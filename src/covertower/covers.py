"""Pointed finite covers of a genus-g surface as permutation representations.

A cover of degree d is a tuple of 2g permutations of {0..d-1}, one per
generator, acting on sheets on the right: a word acts letter by letter,
leftmost letter first.  Sheet 0 is the basepoint sheet.  Serialization is
1-indexed; everything in memory is 0-indexed.

Pointed isomorphism is relabeling of the sheets other than 0.  Each class
contains exactly one labeling whose breadth-first discovery order (positive
generators in index order, then inverses) is 0,1,2,...; that labeling is the
canonical form.
"""

from __future__ import annotations

import gc
import itertools
import os
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter

import numpy as np

from .errors import (
    BadDegree,
    BaseMismatch,
    CovertowerError,
    GenusMismatch,
    IncompatibleTower,
    InvalidIdentification,
    NotTransitive,
    RelatorNotTrivial,
    SearchBudgetExceeded,
)
from .errors import checked_cache, genus_key, integer, integers, need, sequence, word, words
from .exact_linalg import generates_integer_lattice
from .surface import Word, abelianized, free_reduce, generator_count, inverse_word, is_trivial
from .surface import substitute, surface_relator

Perm = tuple[int, ...]

DEFAULT_BUDGET = 1_000_000


def search_budget(override: int | None = None) -> int:
    if override is not None:
        return integer(override, "budget", CovertowerError, low=1)
    env = os.environ.get("COVERTOWER_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget < 1:
        raise CovertowerError(f"COVERTOWER_BUDGET must be an integer at least 1, got {env!r}")
    return budget


@contextmanager
def _collector_paused():
    """Run the body with the cyclic garbage collector off, then restore the
    caller's state, also when the body raises.  For bulk builders of many
    acyclic objects, which refcounting alone frees: a collector pass there
    would only rescan what is being built."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _trusted(cls, **fields):
    """A cls built without its checks, for objects the package makes from
    checked ones in ways that keep every invariant the checks test."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Permutation doing p first, then q."""
    return tuple(q[x] for x in p)


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


@dataclass(frozen=True)
class SurfaceCover:
    genus: int
    degree: int
    perms: tuple[Perm, ...]

    def __post_init__(self) -> None:
        g = integer(self.genus, "genus", BadDegree, low=2)
        d = integer(self.degree, "degree", BadDegree, low=1)
        perms = sequence(self.perms, "perms", BadDegree, generator_count(g))
        perms = tuple(integers(p, f"perms[{i}]", BadDegree) for i, p in enumerate(perms))
        for i, p in enumerate(perms):
            if len(p) != d or sorted(p) != list(range(d)):
                raise BadDegree(f"perms[{i}] must be a permutation of 0..{d - 1}, got {p!r:.40}")
        object.__setattr__(self, "perms", perms)
        _check_relator(self)
        order, _, _ = _schreier_walk(self)
        if len(order) != d:
            raise NotTransitive("permutation action is not transitive on sheets")

    @cached_property
    def inverse_perms(self) -> tuple[Perm, ...]:
        return tuple(perm_inverse(p) for p in self.perms)

    @cached_property
    def schreier(self) -> "SchreierTransversal":
        """Schreier transversal of the basepoint stabilizer, built on first use."""
        _, tree, words = _schreier_walk(self)
        in_tree = set(tree)
        edges = itertools.product(range(len(self.perms)), range(self.degree))
        nontree = tuple(e for e in edges if e not in in_tree)
        index = {e: k for k, e in enumerate(nontree)}
        return SchreierTransversal(tuple(words), nontree, index)

    @cached_property
    def loops(self) -> tuple[Word, ...]:
        """The Schreier generators as basepoint loops, in schreier.nontree order."""
        return tuple(schreier_loop(self, e) for e in self.schreier.nontree)

    @property
    def total_genus(self) -> int:
        """Genus of the covering surface, by the degree formula."""
        return self.degree * (self.genus - 1) + 1

    def act(self, word, sheet: int) -> int:
        """The sheet where the lift of a word from a sheet ends."""
        perms, inverse_perms = self.perms, self.inverse_perms
        for letter in word:
            sheet = perms[letter - 1][sheet] if letter > 0 else inverse_perms[-letter - 1][sheet]
        return sheet

    def word_perm(self, word) -> Perm:
        """The permutation a word induces on sheets: s goes to act(word, s)."""
        perm = None
        for letter in word:
            step = self.perms[letter - 1] if letter > 0 else self.inverse_perms[-letter - 1]
            perm = step if perm is None else tuple(map(step.__getitem__, perm))
        return tuple(range(self.degree)) if perm is None else perm

    def walk(self, word, sheet: int):
        """The edges the lift of a word from a sheet runs along, and its end sheet.

        Edges are (generator index, tail sheet, +1 or -1).  Letter i+1 at
        sheet s runs forward along (i, s); letter -(i+1) runs backward along
        (i, t), t the sheet that generator i sends to s.
        """
        edges = []
        for letter in word:
            if letter > 0:
                edges.append((letter - 1, sheet, 1))
                sheet = self.perms[letter - 1][sheet]
            else:
                sheet = self.inverse_perms[-letter - 1][sheet]
                edges.append((-letter - 1, sheet, -1))
        return edges, sheet

    def chain(self, terms) -> list[int]:
        """Sum of coeff times the edge chain of the lift of word from sheet,
        over (word, sheet, coeff) terms.  Edge (i, s) sits at i * degree + s,
        the block layout of pull_back."""
        d = self.degree
        out = [0] * (len(self.perms) * d)
        for word, sheet, coeff in terms:
            for i, s, sign in self.walk(word, sheet)[0]:
                out[i * d + s] += coeff * sign
        return out

    def stabilizes_basepoint(self, word) -> bool:
        return self.act(word, 0) == 0

    def canonical(self) -> "SurfaceCover":
        order, _, _ = _schreier_walk(self)
        if order == list(range(self.degree)):
            return self
        new_of_old = [0] * self.degree
        for new, old in enumerate(order):
            new_of_old[old] = new
        return self.relabel(tuple(new_of_old))

    def relabel(self, new_of_old) -> "SurfaceCover":
        """The cover with sheet s renamed new_of_old[s], a permutation of
        0..d-1; one that moves sheet 0 changes the basepoint."""
        new_of_old = integers(new_of_old, "new_of_old", BadDegree)
        if sorted(new_of_old) != list(range(self.degree)):
            raise BadDegree(
                f"new_of_old must hold each of 0..{self.degree - 1} once, got {new_of_old!r:.40}"
            )
        perms = []
        for p in self.perms:
            q = [0] * self.degree
            for s in range(self.degree):
                q[new_of_old[s]] = new_of_old[p[s]]
            perms.append(tuple(q))
        return SurfaceCover(self.genus, self.degree, tuple(perms))


def _check_relator(cover: SurfaceCover) -> None:
    if cover.word_perm(surface_relator(cover.genus)) != tuple(range(cover.degree)):
        raise RelatorNotTrivial("surface relator does not act as the identity")


@dataclass(frozen=True)
class SchreierTransversal:
    """Breadth-first spanning tree of the Schreier graph from sheet 0.

    words[s] is the tree word from sheet 0 to sheet s.  The edges outside
    the tree, in (generator, sheet) order, index the Schreier generators of
    the basepoint stabilizer, 2*g*d - d + 1 of them; index maps each to its
    position.
    """

    words: tuple[Word, ...]
    nontree: tuple[tuple[int, int], ...]
    index: dict[tuple[int, int], int]


def _schreier_walk(cover: SurfaceCover):
    """Walk the Schreier graph from sheet 0 in canonical order.

    Each sheet in turn tries the positive generators by index, then the
    inverse generators by index.  Returns lists of the sheets in discovery
    order, the tree edges (generator index, source sheet) and the tree words,
    words[s] None for a sheet not reached: the walk stops at the reachable
    component, so a short order means the action is not transitive.
    """
    d = cover.degree
    words: list[Word | None] = [None] * d
    words[0] = ()
    order = [0]
    tree: list[tuple[int, int]] = []
    for s in order:  # the walk appends to order as it discovers sheets
        for i, p in enumerate(cover.perms):
            t = p[s]
            if words[t] is None:
                words[t] = words[s] + (i + 1,)
                tree.append((i, s))
                order.append(t)
        for i, p in enumerate(cover.inverse_perms):
            t = p[s]
            if words[t] is None:
                words[t] = words[s] + (-(i + 1),)
                tree.append((i, t))
                order.append(t)
    return order, tree, words


@checked_cache(genus_key)
def trivial_cover(genus: int) -> SurfaceCover:
    return SurfaceCover(genus, 1, ((0,),) * generator_count(genus))


@checked_cache(genus_key)
def mod2_homology_cover(genus: int) -> SurfaceCover:
    """Regular cover with deck group (Z/2)^2g: sheets are the mod-2 class
    vectors, labeled in discovery order.

    Generator i flips bit i.  A flip is its own inverse, so the interleaved
    walk of _pointed_orbit discovers the sheets in canonical order, and the
    flips commute, so the relator dies.
    """
    return _pointed_orbit(genus, lambda i, s: (s ^ 1 << i,) * 2, start=0)[0]


# ---------------------------------------------------------------------------
# Enumeration

SEARCH_BLOCK = 4096  # candidates per filter pass; more raise peak memory, not speed


def _read_table(perms, degree: int) -> np.ndarray:
    """table[s, 0, i] = perms[i][s] and table[s, 1, i] = the inverse of
    perms[i] at s, in the smallest unsigned type that holds degree itself."""
    table = np.array([(p, perm_inverse(p)) for p in perms], dtype=np.min_scalar_type(degree))
    return table.transpose(2, 1, 0).copy()


def _canonical_columns(table: np.ndarray, columns: np.ndarray, degree: int) -> np.ndarray:
    """Which candidates are canonical transitive tuples, columns[i] holding
    each candidate's generator i as an index into table.

    The read rule of _canonical_tuples on every candidate at once, in the
    order of _schreier_walk: each sheet in turn reads the positive
    generators by index, then the inverses.  The sheets seen before a read
    are 0..top, top the highest sheet read so far (count = top + 1), and the
    walk reaches sheet s only if it has seen it.  top + 1 never exceeds
    degree, which the table's type holds, so nothing overflows.
    """
    reads = np.take(table, columns, axis=2).reshape(-1, columns.shape[1])  # walk order, candidate
    top = np.zeros((len(reads) + 1, columns.shape[1]), table.dtype)  # top[j]: highest of j reads
    for j, t in enumerate(reads):
        np.maximum(top[j], t, out=top[j + 1])
    ok = (reads <= top[:-1] + 1).all(axis=0)
    reached = top[: -1 : 2 * len(columns)] >= np.arange(degree)[:, None]
    return ok & reached.all(axis=0)


def _canonical_tuples(genus: int, degree: int) -> list[tuple[Perm, ...]]:
    """Every canonical transitive representation tuple of the given degree.

    The relator forces the product of per-handle commutators to be trivial, so
    the first g-1 handle pairs range freely and the last handle's commutator is
    determined; a table from commutator values to the pairs producing them
    completes each partial assignment.

    A tuple is canonical iff the canonical walk of _schreier_walk discovers
    the sheets in the order 0, 1, 2, ...  The sheets seen are then always
    0..count-1, so the walk accepts iff every read t is a seen sheet or the
    next new one, t <= count, and t == count discovers it.  The rule needs
    nothing but the reads in walk order and one count, so it is exact, and
    _canonical_columns applies it to a block of candidates at once.

    The walk's first reads are p1[0], q1[0], p2[0], q2[0], ...  With k
    sheets seen before a pair (p, q), the rule asks p[0] <= k, then q[0] <=
    k', where k' is k plus one if p[0] == k, that is max(k, p[0] + 1); then
    max(k', q[0] + 1) sheets are seen.  The pair tables are kept by k as
    well as by commutator, so a pair that fails is skipped with all its
    completions, each of which the walk would reject at that read.

    The tuples come out sorted, in census order, with no sort: pairs are
    numbered in lexicographic order, the heads are extended in that order,
    each completion list keeps it, and a block keeps its candidates in order.
    """
    all_perms = list(itertools.permutations(range(degree)))
    n = len(all_perms)
    index = {p: i for i, p in enumerate(all_perms)}
    table = _read_table(all_perms, degree)
    forward, inverse = table[:, 0].T, table[:, 1].T  # [i, s]: perm i and its inverse at s
    # pair number a * n + b is (all_perms[a], all_perms[b]), lexicographic
    pairs = np.arange(n * n)
    pair_columns = np.array(np.divmod(pairs, n))
    a, b = pair_columns
    comm = inverse[b[:, None], inverse[a[:, None], forward[b[:, None], forward[a]]]]
    comm = [index[c] for c in zip(*comm.T.tolist())]
    p0, q0 = forward[a, 0], forward[b, 0]
    passing, completions = {}, {}
    for k in range(1, min(degree, 2 * genus - 1) + 1):
        keep = pairs[(p0 <= k) & (q0 <= np.maximum(p0 + 1, k))].tolist()
        if k <= 2 * genus - 3:  # the first g-1 pairs see at most 2g-3 sheets before them
            passing[k] = keep
        by_comm: dict[int, list[int]] = {}
        for pair in keep:
            by_comm.setdefault(comm[pair], []).append(pair)
        for c, ids in by_comm.items():
            completions[k, c] = pair_columns[:, ids]

    def heads(row, k, running, pairs_left):
        if not pairs_left:
            yield row, k, running
            return
        for pair in passing[k]:
            i, j = divmod(pair, n)
            seen = max(k, all_perms[i][0] + 1, all_perms[j][0] + 1)
            running_after = perm_mul(running, all_perms[comm[pair]])
            yield from heads(row + (i, j), seen, running_after, pairs_left - 1)

    found: list[tuple[Perm, ...]] = []
    block_heads: list[tuple[int, ...]] = []
    block_lasts: list[np.ndarray] = []
    size = 0

    def flush():
        counts = [last.shape[1] for last in block_lasts]
        head_columns = np.repeat(np.array(block_heads, dtype=np.intp).T, counts, axis=1)
        columns = np.concatenate([head_columns, np.concatenate(block_lasts, axis=1)])
        kept = columns[:, _canonical_columns(table, columns, degree)].tolist()
        found.extend(zip(*(map(all_perms.__getitem__, column) for column in kept)))
        block_heads.clear()
        block_lasts.clear()

    for row, k, running in heads((), 1, all_perms[0], genus - 1):
        last = completions.get((k, index[perm_inverse(running)]))
        if last is None:
            continue
        block_heads.append(row)
        block_lasts.append(last)
        size += last.shape[1]
        if size >= SEARCH_BLOCK:
            flush()
            size = 0
    if block_lasts:
        flush()
    return found


@lru_cache(maxsize=None)
def _enumerate_cached(genus: int, degree: int) -> tuple[SurfaceCover, ...]:
    if degree == 1:
        return (trivial_cover(genus),)
    # the commutator table kills the relator and canonical tuples are
    # transitive, so the covers are built unchecked, in one pass; an empty
    # instance dict updated from a whole one is compact (184 bytes on
    # CPython 3.11, 272 with the fields written one at a time)
    with _collector_paused():
        tuples = _canonical_tuples(genus, degree)
        found = tuple(map(object.__new__, itertools.repeat(SurfaceCover, len(tuples))))
        fields = {"genus": genus, "degree": degree, "perms": None}
        for cover, perms in zip(found, tuples):
            own = cover.__dict__
            own.update(fields)
            own["perms"] = perms
    return found


def enumerate_covers(genus: int, degree: int, budget: int | None = None) -> tuple[SurfaceCover, ...]:
    """All pointed-isomorphism classes of degree-d covers, canonical, sorted.
    The budget gates the search and is not part of the cache key: it bounds
    both the unpruned candidates and the 2g*d permutation entries of a cover."""
    limit = search_budget(budget)
    integer(genus, "genus", BadDegree, low=2)
    integer(degree, "degree", BadDegree, low=1)
    # the unpruned count d!^(2(g-1)), multiplied out only until it passes the
    # limit: every factor is at least 2, so a huge degree or genus stays cheap
    factors = itertools.repeat(range(2, degree + 1), 2 * (genus - 1) if degree > 1 else 0)
    candidates = 1
    for factor in itertools.chain.from_iterable(factors):
        candidates *= factor
        if candidates > limit:
            raise SearchBudgetExceeded(
                f"enumeration would examine more than {limit} candidate assignments; "
                "raise COVERTOWER_BUDGET to override"
            )
    entries = generator_count(genus) * degree
    if entries > limit:
        raise SearchBudgetExceeded(
            f"a cover would hold {entries} permutation entries, more than {limit}; "
            "raise COVERTOWER_BUDGET to override"
        )
    return _enumerate_cached(genus, degree)


# ---------------------------------------------------------------------------
# Schreier loops and stabilizer rewriting

def schreier_loop(cover: SurfaceCover, edge: tuple[int, int]) -> Word:
    """Basepoint loop through one Schreier edge: tree path, edge, tree path back."""
    words = cover.schreier.words
    i, s = edge
    t = cover.perms[i][s]
    return free_reduce(words[s] + (i + 1,) + inverse_word(words[t]))


def rewrite_in_schreier(cover: SurfaceCover, word) -> tuple[int, ...]:
    """Express a basepoint-stabilizing word over the Schreier generators.

    Output letters are signed 1-based indices into cover.schreier.nontree.
    """
    index = cover.schreier.index
    edges, end = cover.walk(word, 0)
    if end != 0:
        raise ValueError("word does not stabilize the basepoint sheet")
    return tuple(sign * (index[i, s] + 1) for i, s, sign in edges if (i, s) in index)


def _first_live_relator(cover: SurfaceCover, table, genus: int) -> int | None:
    """First sheet s whose lifted face t_s.R.t_s^-1, rewritten in cover's
    Schreier generators and sent through table, is not trivial in the genus-g
    surface group, or None.  By Reidemeister-Schreier these faces and the
    Schreier generators present cover's stabilizer, so table is a
    homomorphism into the target's genus-g group iff no face is live.
    """
    relator = surface_relator(cover.genus)
    for s, tree in enumerate(cover.schreier.words):
        face = rewrite_in_schreier(cover, tree + relator + inverse_word(tree))
        if not is_trivial(substitute(face, table), genus):
            return s
    return None


# ---------------------------------------------------------------------------
# Pointed orbits of product actions

def _pointed_orbit(genus: int, moves, budget: int | None = None, start=(0, 0)):
    """Orbit of a start state under a generator action, as a cover.

    moves(i, state) is the pair of states that generator i and its inverse
    move a state to.  States are labeled in discovery order: each state in
    turn explores generator i forward, then backward, for i = 0..2g-1.
    Returns (cover, states), sheet k of cover being states[k], or None when
    the orbit has more than budget states.  The cover is built unchecked: a
    pointed orbit of bijective moves is a transitive permutation action by
    construction, and the caller answers for the relator.

    This order interleaves each generator with its inverse, unlike the
    canonical order of _schreier_walk; the sheet labels of fiber products
    and induced covers, and so the fiber-product output bytes, depend on it.
    """
    label = {start: 0}
    states = [start]
    rows: list[list[int]] = [[] for _ in range(generator_count(genus))]
    for state in states:  # the walk appends to states as it discovers them
        for i, row in enumerate(rows):
            both = moves(i, state)
            for step in both:
                if step not in label:
                    if budget is not None and len(states) >= budget:
                        return None
                    label[step] = len(states)
                    states.append(step)
            row.append(label[both[0]])
    perms = tuple(tuple(row) for row in rows)
    return _trusted(SurfaceCover, genus=genus, degree=len(states), perms=perms), states


# ---------------------------------------------------------------------------
# Arrows, fiber products, induced covers

@dataclass(frozen=True)
class CoverArrow:
    """Pointed factoring map between covers of the same base."""

    source: SurfaceCover
    target: SurfaceCover
    sheet_map: tuple[int, ...]

    def __post_init__(self) -> None:
        need(self.source, SurfaceCover, "source", IncompatibleTower)
        need(self.target, SurfaceCover, "target", IncompatibleTower)
        sheet_map = integers(self.sheet_map, "sheet_map", IncompatibleTower)
        object.__setattr__(self, "sheet_map", sheet_map)
        if self.source.genus != self.target.genus:
            raise BaseMismatch("arrow endpoints have different base surfaces")
        if len(self.sheet_map) != self.source.degree:
            raise IncompatibleTower("sheet map has wrong length")
        if any(not 0 <= t < self.target.degree for t in self.sheet_map):
            raise IncompatibleTower("sheet map hits sheets outside the target")
        if self.sheet_map[0] != 0:
            raise IncompatibleTower("arrow must preserve the basepoint sheet")
        if self.source.degree % self.target.degree != 0:
            raise IncompatibleTower("source degree not a multiple of target degree")
        if not _equivariant(self.source, self.target, self.sheet_map):
            raise IncompatibleTower("sheet map is not equivariant")


def _equivariant(source: SurfaceCover, target: SurfaceCover, sheet_map) -> bool:
    """Whether sheet_map, one target sheet per source sheet, commutes with
    each generator's action: sheet_map[p[s]] == q[sheet_map[s]]."""
    return all(sheet_map[p[s]] == q[t] for p, q in zip(source.perms, target.perms)
               for s, t in enumerate(sheet_map))


def pull_back(arrow: CoverArrow, values) -> list:
    """Pull per-sheet data back along an arrow.

    values holds blocks of arrow.target.degree entries, block b sheet t at
    b * degree + t.  The result holds the same blocks over arrow.source,
    sheet s of each block taking the entry at sheet_map[s].
    """
    d = arrow.target.degree
    return [values[b + t] for b in range(0, len(values), d) for t in arrow.sheet_map]


def factors_through(fine: SurfaceCover, coarse: SurfaceCover) -> CoverArrow | None:
    """The unique pointed arrow fine -> coarse, or None.

    It exists iff fine's basepoint stabilizer lies in coarse's, that is iff
    a pointed equivariant sheet map exists.  One walk from sheet 0 along
    the forward generators, which reach every sheet of a finite transitive
    action, builds it: the first edge into a sheet fixes its image, and
    every later edge must agree.
    """
    need(fine, SurfaceCover, "fine", IncompatibleTower)
    need(coarse, SurfaceCover, "coarse", IncompatibleTower)
    if fine.genus != coarse.genus:
        raise BaseMismatch("covers have different base surfaces")
    sheet_map = [0] + [None] * (fine.degree - 1)
    pairs = tuple(zip(fine.perms, coarse.perms))
    order = [0]
    for s in order:  # the walk appends to order as it reaches sheets
        image = sheet_map[s]
        for p, q in pairs:
            t, u = p[s], q[image]
            if sheet_map[t] is None:
                sheet_map[t] = u
                order.append(t)
            elif sheet_map[t] != u:
                return None
    return _trusted(CoverArrow, source=fine, target=coarse, sheet_map=tuple(sheet_map))


def arrow_to_trivial(cover: SurfaceCover) -> CoverArrow:
    """The constant arrow from a cover to the trivial cover of its base."""
    trivial = trivial_cover(cover.genus)
    return _trusted(CoverArrow, source=cover, target=trivial, sheet_map=(0,) * cover.degree)


def _projection(cover: SurfaceCover, states, k: int, target: SurfaceCover) -> CoverArrow:
    """The arrow from a pointed-orbit cover to target reading component k of
    each state, for a walk that moves that component by target's own action."""
    sheet_map = tuple(map(itemgetter(k), states))
    return _trusted(CoverArrow, source=cover, target=target, sheet_map=sheet_map)


def _pair_moves(first: SurfaceCover, second: SurfaceCover):
    """Moves of the diagonal action on (first sheet, second sheet) pairs."""
    p, q, p_inv, q_inv = first.perms, second.perms, first.inverse_perms, second.inverse_perms
    return lambda i, pair: ((p[i][pair[0]], q[i][pair[1]]), (p_inv[i][pair[0]], q_inv[i][pair[1]]))


@dataclass(frozen=True)
class FiberProduct:
    cover: SurfaceCover
    to_first: CoverArrow
    to_second: CoverArrow


@checked_cache(lambda first, second: (
    need(first, SurfaceCover, "first", IncompatibleTower),
    need(second, SurfaceCover, "second", IncompatibleTower),
))
def fiber_product(first: SurfaceCover, second: SurfaceCover) -> FiberProduct:
    """Pointed component of the diagonal action on sheet pairs.

    The result's stabilizer is the intersection of the two stabilizers.
    Sheets are labeled in the discovery order of the pair walk from (0, 0),
    which tries each generator forward, then backward, in index order.  That
    is not the canonical order, which tries every generator forward before
    any inverse; call canonical() for the canonical labeling.
    """
    if first.genus != second.genus:
        raise BaseMismatch("covers have different base surfaces")
    # a pointed orbit of two relator-killing actions is a cover over both
    cover, states = _pointed_orbit(first.genus, _pair_moves(first, second))
    to_first = _projection(cover, states, 0, first)
    return FiberProduct(cover, to_first, _projection(cover, states, 1, second))


@dataclass(frozen=True)
class InducedCover:
    """Cover built from a word-table homomorphism on a stabilizer.

    Sheets are the discovered pairs (outer sheet, target sheet); the arrow
    projects to the outer cover.
    """

    cover: SurfaceCover
    states: tuple[tuple[int, int], ...]
    to_outer: CoverArrow


def induced_cover(outer: SurfaceCover, table, target: SurfaceCover) -> InducedCover:
    """Cover whose stabilizer is the table-preimage of target's stabilizer.

    table maps each Schreier edge index of outer to a word in the letters of
    target's base, which may differ from outer's; the induced action moves
    (t, s) along a generator by moving t in outer and moving s in target by
    the word of the traversed Schreier loop.  table must represent a
    homomorphism into target's surface group (the relator must die): this
    is the one place that checks it, on the walked cover, and raises
    RelatorNotTrivial otherwise.
    """
    need(outer, SurfaceCover, "outer", IncompatibleTower)
    need(target, SurfaceCover, "target", IncompatibleTower)
    table = sequence(table, "table", IncompatibleTower, len(outer.schreier.nontree))
    table = words(table, "table", target.genus, IncompatibleTower)
    induced = _induced_cover(outer, table, target)
    _check_relator(induced.cover)
    return induced


def _induced_cover(outer: SurfaceCover, table, target: SurfaceCover) -> InducedCover:
    """induced_cover for a checked table that is a homomorphism: one word
    per Schreier generator of outer, over the base of target.  The caller
    answers for the relator: a vaut's tables are checked when it is built,
    and compose_covers checks its table with _first_live_relator.

    The walk moves (outer sheet, target sheet) pairs.  A generator moves the
    outer sheet by outer's action and the target sheet by the table word of
    the Schreier edge of outer it crosses, if any; a tree edge leaves the
    target sheet in place.  Each word moves target sheets by one
    permutation, read once: crossing edge (i, t) forward applies
    moves[i][t], crossing it backward backs[i][t].
    """
    stay = tuple(range(target.degree))
    moves = [[stay] * outer.degree for _ in outer.perms]
    backs = [[stay] * outer.degree for _ in outer.perms]
    for (i, t), k in outer.schreier.index.items():
        moves[i][t] = target.word_perm(table[k])
        backs[i][t] = perm_inverse(moves[i][t])
    p, p_inv = outer.perms, outer.inverse_perms

    def step(i: int, state):
        t, s = state
        t2 = p_inv[i][t]
        return (p[i][t], moves[i][t][s]), (t2, backs[i][t2][s])

    cover, states = _pointed_orbit(outer.genus, step)
    return InducedCover(cover, tuple(states), _projection(cover, states, 0, outer))


# ---------------------------------------------------------------------------
# Composition of covers

def compose_covers(top: SurfaceCover, bottom: SurfaceCover, ident) -> InducedCover:
    """Compose a cover of the covering surface with a cover of the base.

    bottom covers the base; its covering surface has genus g' = d*(g-1)+1,
    and top is a cover of that surface given in a standard marking.  ident
    supplies the identification: for every Schreier edge (generator index,
    sheet) of bottom, the word in the marking that spells that lift of the
    base generator.  The spelled Schreier loops must span H_1 and kill the
    relator lifted at every sheet.  A homomorphism of genus-g' surface groups
    onto H_1 is an isomorphism on H_1, the cup-product form then forces
    degree +-1, and surface groups are Hopfian; so it is an isomorphism, and
    the composite has bottom.degree * top.degree sheets.  The composite is
    induced from bottom; to_outer is its arrow to bottom.
    """
    need(top, SurfaceCover, "top", IncompatibleTower)
    need(bottom, SurfaceCover, "bottom", IncompatibleTower)
    if top.genus != bottom.total_genus:
        raise GenusMismatch(
            f"top cover has base genus {top.genus}, "
            f"bottom covering surface has genus {bottom.total_genus}"
        )
    need(ident, Mapping, "ident", InvalidIdentification)
    edges = list(itertools.product(range(generator_count(bottom.genus)), range(bottom.degree)))
    missing = [e for e in edges if e not in ident]
    if missing:
        raise InvalidIdentification(f"identification missing edges {missing}")
    marks = {e: word(ident[e], f"ident[{e}]", top.genus, InvalidIdentification) for e in edges}

    def spell(loop) -> Word:
        """Identification words along the lift of a base path from sheet 0."""
        out: list[int] = []
        for i, s, sign in bottom.walk(loop, 0)[0]:
            out += marks[i, s] if sign > 0 else inverse_word(marks[i, s])
        return free_reduce(out)

    # a tree edge's loop is trivial, so the table needs only the nontree loops
    table = tuple(map(spell, bottom.loops))
    rows = [abelianized(w, top.genus) for w in table]
    if not generates_integer_lattice(rows, generator_count(top.genus)):
        raise InvalidIdentification("identification words do not span the covering surface homology")
    if (s := _first_live_relator(bottom, table, top.genus)) is not None:
        raise InvalidIdentification(f"identification words do not kill the lifted relator at sheet {s}")
    return _induced_cover(bottom, table, top)
