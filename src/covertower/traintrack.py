"""Train tracks with switch-condition cones, lifting, and carrying matrices.

A track is combinatorial: switches with two ordered sides of half-branch
slots, branches joining half-branches, and per-branch embedding words in the
one-vertex skeleton of the base surface.  Weights are exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .covers import SurfaceCover, CoverArrow, _trusted, perm_inverse, pull_back
from .errors import (
    BaseMismatch,
    ConeViolation,
    DimensionMismatch,
    IncompatibleTower,
    NegativeWeight,
    SwitchViolation,
)
from .errors import integer, integral, need, rational, sequence, words
from .exact_linalg import mat_vec, rational_nullspace
from .surface import Word


HalfBranch = tuple[int, int]  # (branch index, end 0 or 1)


@dataclass(frozen=True)
class Switch:
    side_a: tuple[HalfBranch, ...]
    side_b: tuple[HalfBranch, ...]


@dataclass(frozen=True)
class TrainTrack:
    genus: int
    switches: tuple[Switch, ...]
    branch_words: tuple[Word, ...]

    def __post_init__(self) -> None:
        genus = integer(self.genus, "genus", DimensionMismatch, low=2)
        branch_words = words(self.branch_words, "branch_words", genus, DimensionMismatch)
        object.__setattr__(self, "branch_words", branch_words)
        checked = []
        for k, sw in enumerate(sequence(self.switches, "switches", DimensionMismatch)):
            need(sw, Switch, f"switches[{k}]", DimensionMismatch)
            try:
                sides = (tuple(sw.side_a), tuple(sw.side_b))
                hash(sides)
            except TypeError:
                raise DimensionMismatch(
                    f"switches[{k}] sides must be sequences of hashable half-branches"
                ) from None
            checked.append(sw if sides == (sw.side_a, sw.side_b) else Switch(*sides))
        switches = tuple(checked)
        object.__setattr__(self, "switches", switches)
        seen: set[HalfBranch] = set()
        for sw in switches:
            for half in sw.side_a + sw.side_b:
                if half in seen:
                    raise DimensionMismatch(f"half-branch {half} used twice")
                seen.add(half)
        if seen != {(b, end) for b in range(len(branch_words)) for end in (0, 1)}:
            raise DimensionMismatch("half-branches do not match the branch list")

    @property
    def n_branches(self) -> int:
        return len(self.branch_words)

    def switch_matrix(self):
        rows = []
        for sw in self.switches:
            row = [0] * self.n_branches
            for b, _ in sw.side_a:
                row[b] += 1
            for b, _ in sw.side_b:
                row[b] -= 1
            rows.append(row)
        return rows

    def validate_weights(self, weights) -> tuple[Fraction, ...]:
        """The weights as Fractions, once they are checked to lie in the cone."""
        weights = sequence(weights, "weights", DimensionMismatch, self.n_branches)
        weights = tuple(rational(w, f"weights[{b}]") for b, w in enumerate(weights))
        for b, w in enumerate(weights):
            if w < 0:
                raise NegativeWeight(f"branch {b} has negative weight {w}")
        for k, row in enumerate(self.switch_matrix()):
            total = sum(r * w for r, w in zip(row, weights))
            if total != 0:
                raise SwitchViolation(f"switch {k} unbalanced by {total}")
        return weights

    def chart_dimension(self) -> int:
        # rank-nullity: the nullspace has n_branches - rank(S) vectors
        return len(rational_nullspace(self.switch_matrix(), self.n_branches))

    def carried_branches(self) -> frozenset[int]:
        """Branches that some closed train path runs along.

        A node (b, e) travels along branch b away from its end e; it arrives
        at the half-branch (b, 1 - e) and leaves its switch through any
        half-branch (c, f) on the other side, as node (c, f).  A branch is
        carried iff one of its two nodes lies on a cycle.  Integer weights
        split into such closed paths at every switch, so this is exactly
        the support of the weight cone.
        """
        across: dict[HalfBranch, tuple[HalfBranch, ...]] = {}
        for sw in self.switches:
            across.update(dict.fromkeys(sw.side_a, sw.side_b))
            across.update(dict.fromkeys(sw.side_b, sw.side_a))
        carried = set()
        for start in across:
            seen, stack = set(), list(across[(start[0], 1 - start[1])])
            while stack and start not in seen:
                node = stack.pop()
                if node not in seen:
                    seen.add(node)
                    stack.extend(across[(node[0], 1 - node[1])])
            if start in seen:
                carried.add(start[0])
        return frozenset(carried)


def three_branch_example() -> TrainTrack:
    """Two switches, three branches, both conditions w0 = w1 + w2.

    Branch 0 and 1 run along the first handle loop, branch 2 is trivial in
    the skeleton; the chart cone is two dimensional.
    """
    s0 = Switch(side_a=((0, 0),), side_b=((1, 0), (2, 0)))
    s1 = Switch(side_a=((0, 1),), side_b=((1, 1), (2, 1)))
    return TrainTrack(
        genus=2,
        switches=(s0, s1),
        branch_words=((1,), (1,), ()),
    )


@dataclass(frozen=True)
class LiftedTrack:
    """Full preimage of a track in a cover.

    Lifted branches are pairs (base branch, starting sheet); the lift of
    branch b starting at sheet s ends at the sheet its word sends s to.
    Lifted switches are pairs (base switch, sheet).
    """

    base: TrainTrack
    cover: SurfaceCover

    @property
    def branches(self) -> tuple[tuple[int, int], ...]:
        d = self.cover.degree
        return tuple((b, s) for b in range(self.base.n_branches) for s in range(d))

    @cached_property
    def track(self) -> TrainTrack:
        """The lifted track as a plain TrainTrack, built once and unchecked.

        Lifted switch (k, s) is switch k * degree + s.  At it a base
        half-branch (b, 0) lifts to (b * degree + s, 0), and (b, 1) to the end
        of the lift of b arriving at sheet s, which starts at arrives[b][s].
        Each lifted half-branch is used once, so the lift of a checked track
        passes the TrainTrack checks by construction.  Branch words stay base
        words; which sheet lives in the branch order.
        """
        d, base, act = self.cover.degree, self.base, self.cover.act
        arrives = [perm_inverse([act(w, s) for s in range(d)]) for w in base.branch_words]

        def side(halves, s: int) -> tuple[HalfBranch, ...]:
            return tuple((b * d + (arrives[b][s] if end else s), end) for b, end in halves)

        switches = tuple(
            Switch(side(sw.side_a, s), side(sw.side_b, s)) for sw in base.switches for s in range(d)
        )
        words = tuple(w for w in base.branch_words for _ in range(d))
        return _trusted(TrainTrack, genus=base.genus, switches=switches, branch_words=words)

    def cycle_chain(self, weights):
        """Integer-weighted lifted branches as an edge chain on the cover, in
        the layout of SurfaceCover.chain."""
        weights = sequence(weights, "weights", DimensionMismatch, len(self.branches))
        words, d = self.base.branch_words, self.cover.degree
        terms = [(words[k // d], k % d, integral(w, f"weights[{k}]"))
                 for k, w in enumerate(weights)]
        return self.cover.chain(terms)


@dataclass(frozen=True)
class CarryingMatrix:
    """Nonnegative integer matrix mapping one track's weight cone into another.

    Rows are indexed by target branches, columns by source branches; weights
    map by matrix-vector product.  The public constructor stores int tuples
    and checks the cone invariant exactly, in polynomial time (see
    `_check_cone`); the package's lifts and composites pass it by
    construction and skip it.
    """

    source: TrainTrack
    target: TrainTrack
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = sequence(self.matrix, "matrix", DimensionMismatch)
        rows = [sequence(row, f"matrix[{r}]", DimensionMismatch) for r, row in enumerate(rows)]
        matrix = tuple(
            tuple(integral(x, f"matrix[{r}][{c}]") for c, x in enumerate(row))
            for r, row in enumerate(rows)
        )
        if len(matrix) != self.target.n_branches or any(
            len(row) != self.source.n_branches for row in matrix
        ):
            raise DimensionMismatch("matrix shape does not match the tracks")
        if any(x < 0 for row in matrix for x in row):
            raise ConeViolation("matrix entries must be nonnegative")
        object.__setattr__(self, "matrix", matrix)
        self._check_cone()

    def _check_cone(self) -> None:
        """M maps the source cone into the target cone iff T·M kills its span.

        M >= 0 keeps weights nonnegative, so only the target switches T can
        fail.  The cone spans ker S ∩ {x_b = 0 for b not carried}, since a
        weight positive on every carried branch stays in the cone after
        adding a small multiple of any vector there; so one nullspace of S
        on the carried branches decides it.
        """
        carried = sorted(self.source.carried_branches())
        restricted = [[row[b] for b in carried] for row in self.source.switch_matrix()]
        target_rows = self.target.switch_matrix()
        for vec in rational_nullspace(restricted, len(carried)):
            scale = math.lcm(*(x.denominator for x in vec))
            full = [0] * self.source.n_branches
            for b, x in zip(carried, vec):
                full[b] = int(x * scale)
            image = mat_vec(self.matrix, full)
            for k, row in enumerate(target_rows):
                if sum(r * x for r, x in zip(row, image)) != 0:
                    raise ConeViolation(
                        f"source weight {full} maps outside the target cone at switch {k}"
                    )

    def apply(self, weights):
        weights = sequence(weights, "weights", DimensionMismatch)  # read an iterator once
        self.source.validate_weights(weights)
        return mat_vec(self.matrix, weights)


def _gather(source: TrainTrack, target: TrainTrack, columns) -> CarryingMatrix:
    """The 0/1 matrix whose row r picks source branch columns[r], unchecked:
    callers gather along a lift, where target branch r lies over source
    branch columns[r] and each target switch lifts a source switch."""
    n = source.n_branches
    eye = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    matrix = tuple(eye[c] for c in columns)
    return _trusted(CarryingMatrix, source=source, target=target, matrix=matrix)


def lift_track(track: TrainTrack, cover: SurfaceCover):
    """Lift a track through a cover; returns the lift and its 0/1 matrix.

    The matrix maps base weights to lifted weights: every lifted copy of a
    branch inherits the base weight, so each column has exactly degree-many
    ones.
    """
    need(track, TrainTrack, "track", BaseMismatch)
    need(cover, SurfaceCover, "cover", BaseMismatch)
    if track.genus != cover.genus:
        raise BaseMismatch("track and cover have different base surfaces")
    lifted = LiftedTrack(base=track, cover=cover)
    return lifted, _gather(track, lifted.track, [b for b, _ in lifted.branches])


def arrow_step_matrix(lifted: LiftedTrack, arrow: CoverArrow) -> CarryingMatrix:
    """Matrix refining a lift along an arrow of covers.

    For an arrow from a finer cover to the lifted track's cover, each branch
    lifted to the finer cover lies over the branch at the image sheet.
    """
    need(lifted, LiftedTrack, "lifted", IncompatibleTower)
    need(arrow, CoverArrow, "arrow", IncompatibleTower)
    if arrow.target != lifted.cover:
        raise BaseMismatch("arrow target is not the lifted track's cover")
    finer = LiftedTrack(base=lifted.base, cover=arrow.source)
    return _gather(lifted.track, finer.track, pull_back(arrow, range(lifted.track.n_branches)))


def carrying_compose(first: CarryingMatrix, second: CarryingMatrix) -> CarryingMatrix:
    """Apply first, then second.  A composite of cone maps is a cone map, so
    the product skips the cone check."""
    if second.source != first.target:
        raise DimensionMismatch("second matrix's source track is not first's target")
    columns = tuple(zip(*first.matrix)) or ((),) * first.source.n_branches
    product = tuple(tuple(mat_vec(columns, row)) for row in second.matrix)
    return _trusted(CarryingMatrix, source=first.source, target=second.target, matrix=product)

