"""Train tracks with switch-condition cones, lifting, and carrying matrices.

A track is combinatorial: switches with two ordered sides of half-branch
slots, branches joining half-branches, and per-branch embedding words in the
one-vertex skeleton of the base surface.  Weights are exact rationals.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .covers import SurfaceCover, CoverArrow, _is_int, _trusted
from .errors import (
    BaseMismatch,
    ConeViolation,
    DimensionMismatch,
    NegativeWeight,
    NonIntegerWeights,
    SwitchViolation,
)
from .exact_linalg import mat_vec, rational_nullspace, rational_rank
from .surface import Word, generator_count, inverse_word


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
        n = generator_count(self.genus)
        words = tuple(map(tuple, self.branch_words))
        for k, w in enumerate(words):
            if not all(_is_int(x) and 0 < abs(x) <= n for x in w):
                raise DimensionMismatch(f"branch_words[{k}] needs integer letters 0 < |x| <= {n}")
        object.__setattr__(self, "branch_words", words)
        seen: set[HalfBranch] = set()
        for sw in self.switches:
            for half in sw.side_a + sw.side_b:
                if half in seen:
                    raise DimensionMismatch(f"half-branch {half} used twice")
                seen.add(half)
        if seen != {(b, end) for b in range(len(words)) for end in (0, 1)}:
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
        try:
            size = len(weights)
        except TypeError:
            raise DimensionMismatch("weights must be a sequence") from None
        if size != self.n_branches:
            raise DimensionMismatch(f"expected {self.n_branches} weights, got {size}")
        weights = tuple(_rational(w, f"weights[{b}]") for b, w in enumerate(weights))
        for b, w in enumerate(weights):
            if w < 0:
                raise NegativeWeight(f"branch {b} has negative weight {w}")
        for k, row in enumerate(self.switch_matrix()):
            total = sum(r * w for r, w in zip(row, weights))
            if total != 0:
                raise SwitchViolation(f"switch {k} unbalanced by {total}")
        return weights

    def chart_dimension(self) -> int:
        return self.n_branches - rational_rank(self.switch_matrix())

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

    def lifted_switch_sides(self, k: int, s: int):
        """Half-branches of the lifted switch (k, s), both sides.

        A base half-branch (b, 0) at the switch lifts to ((b, s), 0); a base
        half-branch (b, 1) lifts to ((b, t), 1) where the branch word maps t
        to s (the lift that arrives at sheet s).
        """
        def lift_half(half: HalfBranch):
            b, end = half
            t = self.cover.act(inverse_word(self.base.branch_words[b]), s) if end else s
            return (b * self.cover.degree + t, end)

        sw = self.base.switches[k]
        return (
            tuple(lift_half(h) for h in sw.side_a),
            tuple(lift_half(h) for h in sw.side_b),
        )

    @cached_property
    def track(self) -> TrainTrack:
        """The lifted track as a plain TrainTrack, built once.

        Lifted switch (k, s) is switch k * degree + s.  Branch words are kept
        as base words for homology bookkeeping at the base; positional
        structure (which sheet) lives in the branch order.
        """
        d = self.cover.degree
        switches = tuple(
            Switch(*self.lifted_switch_sides(k, s))
            for k in range(len(self.base.switches))
            for s in range(d)
        )
        words = tuple(self.base.branch_words[b] for (b, _) in self.branches)
        return TrainTrack(genus=self.base.genus, switches=switches, branch_words=words)

    def branches_under(self, arrow: CoverArrow) -> list[int]:
        """Index of the branch of this lift under each branch of the lift to
        arrow.source, in that lift's branch order: (b, s) lies over
        (b, arrow.sheet_map[s])."""
        d = self.cover.degree
        return [b * d + t for b in range(self.base.n_branches) for t in arrow.sheet_map]

    def cycle_chain(self, weights):
        """Integer-weighted lifted branches as an edge chain on the cover,
        edge (i, s) at i * degree + s."""
        if len(weights) != len(self.branches):
            raise DimensionMismatch(f"expected {len(self.branches)} weights, got {len(weights)}")
        d = self.cover.degree
        chain = [0] * (len(self.cover.perms) * d)
        for k, w in enumerate(weights):
            w = _integer(w, f"weights[{k}]")
            if w:
                for i, t, sign in self.cover.walk(self.base.branch_words[k // d], k % d)[0]:
                    chain[i * d + t] += w * sign
        return chain


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
        try:
            matrix = tuple(
                tuple(_integer(x, f"matrix[{r}][{c}]") for c, x in enumerate(row))
                for r, row in enumerate(self.matrix)
            )
        except TypeError:
            raise DimensionMismatch("matrix must be a sequence of rows") from None
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
        self.source.validate_weights(weights)
        return mat_vec(self.matrix, weights)


def _rational(x, name: str) -> Fraction:
    """x as a Fraction; NonIntegerWeights naming x for a bool or a non-number."""
    if not isinstance(x, bool) and isinstance(x, numbers.Number):
        try:
            return Fraction(x)
        except (TypeError, ValueError, OverflowError):
            pass
    raise NonIntegerWeights(f"{name} must be a number, got {x!r:.40}")


def _integer(x, name: str) -> int:
    f = _rational(x, name)
    if f.denominator != 1:
        raise NonIntegerWeights(f"{name} must be an integer, got {x!r:.40}")
    return f.numerator


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
    if not isinstance(cover, SurfaceCover):
        raise BaseMismatch("cover expected")
    if track.genus != cover.genus:
        raise BaseMismatch("track and cover have different base surfaces")
    lifted = LiftedTrack(base=track, cover=cover)
    return lifted, _gather(track, lifted.track, [b for b, _ in lifted.branches])


def arrow_step_matrix(lifted: LiftedTrack, arrow: CoverArrow) -> CarryingMatrix:
    """Matrix refining a lift along an arrow of covers.

    For an arrow from a finer cover to the lifted track's cover, each branch
    lifted to the finer cover lies over the branch at the image sheet.
    """
    if arrow.target != lifted.cover:
        raise BaseMismatch("arrow target is not the lifted track's cover")
    finer = LiftedTrack(base=lifted.base, cover=arrow.source)
    return _gather(lifted.track, finer.track, lifted.branches_under(arrow))


def carrying_compose(first: CarryingMatrix, second: CarryingMatrix) -> CarryingMatrix:
    """Apply first, then second.  A composite of cone maps is a cone map, so
    the product skips the cone check."""
    if second.source != first.target:
        raise DimensionMismatch("second matrix's source track is not first's target")
    columns = tuple(zip(*first.matrix)) or ((),) * first.source.n_branches
    product = tuple(tuple(mat_vec(columns, row)) for row in second.matrix)
    return _trusted(CarryingMatrix, source=first.source, target=second.target, matrix=product)


def identity_carrying(track: TrainTrack) -> CarryingMatrix:
    return _gather(track, track, range(track.n_branches))
