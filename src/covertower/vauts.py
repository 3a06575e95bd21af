"""Virtual automorphisms as two-arrow diagrams of covers.

A virtual automorphism is an isomorphism between the stabilizers of two
covers with the same total surface.  It is stored as the two covers plus
the isomorphism in both directions, each direction given by one image word
per Schreier generator of the source stabilizer.  An automorphism of the
surface group is the vaut of degree 1: both covers are trivial, and the
Schreier generators are the generators.  The one exact check that two
tables are inverse isomorphisms lives here, behind the constructor.  The
action sends each edge of a cycle to a table word: no loop, no sheet walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .covers import (
    SurfaceCover,
    _first_live_relator,
    _induced_cover,
    _trusted,
    factors_through,
    fiber_product,
    mod2_homology_cover,
    pull_back,
    rewrite_in_schreier,
    trivial_cover,
)
from .errors import (
    BaseMismatch,
    DimensionMismatch,
    GenusMismatch,
    IncompatibleTower,
    InvalidAutomorphism,
    KindMismatch,
)
from .errors import checked_cache, genus_key, integer, need, word, words
from .limits import LimitElement, homology_shadow, normalized_pairing
from .surface import Word, abelianized, free_reduce, inverse_word, is_trivial, substitute
from .surface import symplectic_product


def _word_table(table, name: str, genus: int) -> tuple[Word, ...]:
    """The table's words, free-reduced; InvalidAutomorphism names a bad entry."""
    return tuple(map(free_reduce, words(table, name, genus, InvalidAutomorphism)))


def _check_isomorphism(left: SurfaceCover, right: SurfaceCover, fwd, bwd) -> None:
    """Raise InvalidAutomorphism unless two tables, whose words already lie in
    the right stabilizers, are inverse isomorphisms of the stabilizers of
    left and right.

    A table is a homomorphism iff it kills the relator lifted at every
    sheet (covers._first_live_relator), and two homomorphisms are inverse
    iff each undoes the other on the Schreier generators.  Surface groups
    are Hopfian, so the second undo check follows from the first; both run
    so that a swapped pair passes iff the pair does.
    """
    genus = left.genus
    sides = ((left, right, fwd, bwd, "fwd", "bwd"), (right, left, bwd, fwd, "bwd", "fwd"))
    for source, _, table, _, name, _ in sides:
        if (s := _first_live_relator(source, table, genus)) is not None:
            raise InvalidAutomorphism(f"{name} does not kill the relator lifted at sheet {s}")
    for source, target, table, back, name, back_name in sides:
        for k, (loop, image) in enumerate(zip(source.loops, table)):
            undone = _push_word(target, back, image)
            if not is_trivial(undone + inverse_word(loop), genus):
                raise InvalidAutomorphism(f"{back_name} does not undo {name}[{k}]")


def _push_word(cover: SurfaceCover, table, word) -> Word:
    """Push a stabilizer word through a Schreier-generator substitution.

    The word is rewritten in the cover's Schreier generators and each
    generator is replaced by its table entry.  Unchecked: the word must fix
    the cover's basepoint, as the Schreier loops the package passes do.
    """
    return substitute(rewrite_in_schreier(cover, word), table)


def _stabilizer_word(cover: SurfaceCover, value, side: str) -> Word:
    """value, once it is a word in the base's letters that fixes the cover's
    basepoint; IncompatibleTower names word otherwise."""
    w = word(value, "word", cover.genus, IncompatibleTower)
    if not cover.stabilizes_basepoint(w):
        raise IncompatibleTower(f"word must fix the {side} cover's basepoint, got {w!r:.40}")
    return w


@dataclass(frozen=True)
class TwoArrowVaut:
    """Two covers with identified total surfaces.

    fwd maps each Schreier generator of the left stabilizer to a word in
    the right stabilizer; bwd is the inverse direction.  Construction
    checks that the tables take values in the right subgroups, that each
    sends every lifted face of its source to 1, and that each undoes the
    other on every Schreier generator, all exactly in the surface group
    (see _check_isomorphism).  Together these say that the tables are
    inverse isomorphisms of the two stabilizers.  Over the trivial cover
    the tables are the images of the generators and their inverses, which
    is how an automorphism is given.  name is a label only: it plays no
    part in equality or hashing.

    vaut_inverse, restrict_vaut and vaut_compose build their results
    unchecked.  A swap passes exactly the checks its source passed, as
    every check is run on both sides alike.  A restriction to a cover that
    factors through the left arrow represents the same virtual automorphism
    (Biswas-Nag-Sullivan).  A composite composes restrictions of inverse
    isomorphisms, and substitute free-reduces as this constructor does.
    The tests rebuild all three through this constructor.
    """

    left: SurfaceCover
    right: SurfaceCover
    fwd: tuple[Word, ...]
    bwd: tuple[Word, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        need(self.left, SurfaceCover, "left", IncompatibleTower)
        need(self.right, SurfaceCover, "right", IncompatibleTower)
        need(self.name, str, "name", IncompatibleTower)
        if self.left.genus != self.right.genus:
            raise BaseMismatch("arrows must cover the same base surface")
        if self.left.total_genus != self.right.total_genus:
            raise GenusMismatch("the two arrows have different total surfaces")
        fwd = _word_table(self.fwd, "fwd", self.left.genus)
        bwd = _word_table(self.bwd, "bwd", self.left.genus)
        object.__setattr__(self, "fwd", fwd)
        object.__setattr__(self, "bwd", bwd)
        if len(fwd) != len(self.left.schreier.nontree):
            raise DimensionMismatch("need one image per left Schreier generator")
        if len(bwd) != len(self.right.schreier.nontree):
            raise DimensionMismatch("need one image per right Schreier generator")
        for w in fwd:
            if not self.right.stabilizes_basepoint(w):
                raise InvalidAutomorphism(
                    "forward image does not lie in the right stabilizer"
                )
        for w in bwd:
            if not self.left.stabilizes_basepoint(w):
                raise InvalidAutomorphism(
                    "backward image does not lie in the left stabilizer"
                )
        _check_isomorphism(self.left, self.right, fwd, bwd)

    @property
    def base_genus(self) -> int:
        return self.left.genus

    @property
    def total_genus(self) -> int:
        return self.left.total_genus

    def is_orientation_preserving(self) -> bool:
        """Whether the images of a1 and b1 keep the sign of their
        intersection number, which is +1 or -1 for an automorphism; only a
        vaut of degree 1 is an automorphism."""
        if self.left.degree != 1:
            degree = self.left.degree
            raise IncompatibleTower(f"orientation needs a degree-1 vaut, got degree {degree}")
        a, b = (abelianized(w, self.base_genus) for w in self.fwd[:2])
        return symplectic_product(a, b) == 1

    def forward_word(self, word) -> Word:
        """Image of a left-stabilizer word under the identification."""
        word = _stabilizer_word(self.left, word, "left")
        return _push_word(self.left, self.fwd, word)

    def backward_word(self, word) -> Word:
        """Image of a right-stabilizer word under the inverse identification."""
        word = _stabilizer_word(self.right, word, "right")
        return _push_word(self.right, self.bwd, word)


def vaut_act(vaut: TwoArrowVaut, element: LimitElement) -> LimitElement:
    """Action on a cycle-kind tower element, edge by edge.

    The cycle z is lifted to W, the fiber product of its cover with the left
    cover L, and moved to the cover I induced through the right arrow R.
    Edge (i, s) of W lies over edge (i, l(s)) of L, whose word F is fwd[k]
    for L's k-th Schreier edge and empty on a tree edge.  sigma(s), a sheet
    of I, is where the pushed image of a path p from sheet 0 to s ends.  As
    L's tree word u to l(s) pushes to nothing, that image is fwd(p u^-1): it
    fixes R's sheet and moves W's by bwd(fwd(p u^-1)) = p u^-1, so sigma(s)
    is I's state (0, W.act(u^-1, s)).  The image is the sum over W's edges
    of z(i, s) times X(i, s), the chain of F lifted from sigma(s).  That is
    the chain of z's Schreier loops pushed through fwd: the loop of a
    nontree edge s -> t pushes to the chain A(s) + X(i, s) - A(t), A the
    chain of a pushed tree word, and as z is a cycle its A terms add up to
    its X terms on W's tree edges.
    """
    need(vaut, TwoArrowVaut, "vaut", IncompatibleTower)
    need(element, LimitElement, "element", IncompatibleTower)
    if element.kind != "cycle":
        raise KindMismatch("vaut_act moves cycle elements; see vaut_act_track")
    if element.base_genus != vaut.base_genus:
        raise BaseMismatch("element and vaut live over different bases")
    w = fiber_product(element.cover, vaut.left)
    induced = _induced_cover(vaut.right, vaut.bwd, w.cover)
    label = {state: k for k, state in enumerate(induced.states)}
    trees, index, below = vaut.left.schreier.words, vaut.left.schreier.index, w.to_second.sheet_map
    terms = []
    for e, c in enumerate(pull_back(w.to_first, element.payload)):
        if c:
            i, s = divmod(e, w.cover.degree)
            k = index.get((i, below[s]))
            sigma = label[0, w.cover.act(inverse_word(trees[below[s]]), s)]
            terms.append((() if k is None else vaut.fwd[k], sigma, c))
    image = induced.cover
    return _trusted(LimitElement, kind="cycle", cover=image, payload=tuple(image.chain(terms)))


def vaut_act_track(vaut: TwoArrowVaut, element: LimitElement) -> LimitElement:
    """Action on a weighted-track element through its homology shadow.

    Integer weights give an integer cycle payload, so integrality is
    preserved on the nose.  Carrying the track structure itself across the
    identification is out of scope; only the shadow moves.
    """
    need(vaut, TwoArrowVaut, "vaut", IncompatibleTower)
    need(element, LimitElement, "element", IncompatibleTower)
    return vaut_act(vaut, homology_shadow(element))


def vaut_inverse(vaut: TwoArrowVaut) -> TwoArrowVaut:
    """The vaut with its two sides swapped, unchecked (see TwoArrowVaut)."""
    need(vaut, TwoArrowVaut, "vaut", IncompatibleTower)
    return _trusted(TwoArrowVaut, left=vaut.right, right=vaut.left, fwd=vaut.bwd, bwd=vaut.fwd)


def vaut_compose(outer: TwoArrowVaut, inner: TwoArrowVaut) -> TwoArrowVaut:
    """Composite acting as inner first, then outer.

    The fiber product of outer's left cover with inner's right cover is a
    common total surface; both identifications transport its stabilizer,
    giving the two arrows of the composite.  The result is built unchecked
    (see TwoArrowVaut).
    """
    need(outer, TwoArrowVaut, "outer", IncompatibleTower)
    need(inner, TwoArrowVaut, "inner", IncompatibleTower)
    if outer.base_genus != inner.base_genus:
        raise BaseMismatch("vauts live over different bases")
    mid = fiber_product(outer.left, inner.right)
    new_left = _induced_cover(inner.left, inner.fwd, mid.cover)
    new_right = _induced_cover(outer.right, outer.bwd, mid.cover)
    fwd = (_push_word(inner.left, inner.fwd, w) for w in new_left.cover.loops)
    fwd = tuple(_push_word(outer.left, outer.fwd, w) for w in fwd)
    bwd = (_push_word(outer.right, outer.bwd, w) for w in new_right.cover.loops)
    bwd = tuple(_push_word(inner.right, inner.bwd, w) for w in bwd)
    return _trusted(TwoArrowVaut, left=new_left.cover, right=new_right.cover, fwd=fwd, bwd=bwd)


@checked_cache(genus_key)
def identity_vaut(genus: int) -> TwoArrowVaut:
    cover = trivial_cover(genus)
    return TwoArrowVaut(cover, cover, cover.loops, cover.loops)


def vaut_from_automorphism(aut: TwoArrowVaut) -> TwoArrowVaut:
    """aut itself, once it is a vaut of degree 1, which is how an
    automorphism is given.  Kept only for the benchmark's tower job, which
    still converts; ROADMAP item 1a removes it."""
    if not isinstance(aut, TwoArrowVaut) or aut.left.degree != 1:
        raise IncompatibleTower(f"aut must be a degree-1 TwoArrowVaut, got {aut!r:.40}")
    return aut


def restrict_vaut(vaut: TwoArrowVaut, finer: SurfaceCover) -> TwoArrowVaut:
    """Representative of the same virtual automorphism over a finer left cover.

    The finer cover must factor through the current left cover; the new
    right cover is induced through the backward table.  The result is
    built unchecked (see TwoArrowVaut).
    """
    need(vaut, TwoArrowVaut, "vaut", IncompatibleTower)
    need(finer, SurfaceCover, "finer", IncompatibleTower)
    if factors_through(finer, vaut.left) is None:
        raise IncompatibleTower("cover does not factor through the vaut's left arrow")
    new_right = _induced_cover(vaut.right, vaut.bwd, finer)
    fwd = tuple(_push_word(vaut.left, vaut.fwd, w) for w in finer.loops)
    bwd = tuple(_push_word(vaut.right, vaut.bwd, w) for w in new_right.cover.loops)
    return _trusted(TwoArrowVaut, left=finer, right=new_right.cover, fwd=fwd, bwd=bwd)


def pairing_preserved(
    vaut: TwoArrowVaut, e1: LimitElement, e2: LimitElement
) -> bool:
    """Exact equality of normalized pairings before and after acting."""
    need(vaut, TwoArrowVaut, "vaut", IncompatibleTower)
    before = normalized_pairing(e1, e2)
    after = normalized_pairing(vaut_act(vaut, e1), vaut_act(vaut, e2))
    return before == after


def _restricts_to(left: SurfaceCover, right: SurfaceCover, table, characteristic) -> bool:
    """Whether the vaut from left to right with backward table table, restricted
    over characteristic, lands on a cover of it; builds no vaut, only that cover."""
    refined = fiber_product(left, characteristic).cover
    return factors_through(_induced_cover(right, table, refined).cover, characteristic) is not None


def certified_in_caut(vaut: TwoArrowVaut, depth: int = 1) -> bool:
    """Depth-bounded certificate that the vaut descends to characteristic covers.

    Depth 0 is the trivial cover, which every cover factors through, so it
    holds without a check; depth 1 adds the mod-2 homology cover; no deeper
    level is implemented.  True certifies a representative over each tested
    characteristic cover in both directions; False is inconclusive beyond
    the tested depth.
    """
    need(vaut, TwoArrowVaut, "vaut", IncompatibleTower)
    if integer(depth, "depth", IncompatibleTower, low=0) > 1:
        raise IncompatibleTower(f"depth must be 0 or 1, got {depth}")
    if depth == 0:
        return True
    cover = mod2_homology_cover(vaut.base_genus)
    forth = _restricts_to(vaut.left, vaut.right, vaut.bwd, cover)
    return forth and _restricts_to(vaut.right, vaut.left, vaut.fwd, cover)
