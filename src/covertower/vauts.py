"""Virtual automorphisms as two-arrow diagrams of covers.

A virtual automorphism is an isomorphism between the stabilizers of two
covers with the same total surface.  It is stored as the two covers plus
the isomorphism in both directions, each direction given by one image word
per Schreier generator of the source stabilizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .characteristic import SurfaceAutomorphism, _word_table, mod2_homology_cover
from .covers import (
    SurfaceCover,
    _trusted,
    factors_through,
    fiber_product,
    induced_cover,
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
from .errors import integer, need
from .exact_linalg import mat_vec
from .homology import surface_complex, transfer_along_arrow
from .limits import LimitElement, homology_shadow, normalized_pairing
from .surface import Word, substitute

__all__ = [
    "TwoArrowVaut",
    "apply_edge_word_map",
    "vaut_act",
    "vaut_act_track",
    "vaut_compose",
    "vaut_inverse",
    "identity_vaut",
    "vaut_from_automorphism",
    "restrict_vaut",
    "is_mapping_class_like",
    "pairing_preserved",
    "certified_in_caut",
]


def apply_edge_word_map(cover: SurfaceCover, table, word) -> Word:
    """Push a stabilizer word through a Schreier-generator substitution.

    The word must stabilize the cover's basepoint; it is rewritten in the
    cover's Schreier generators and each generator is replaced by its table
    entry.
    """
    return substitute(rewrite_in_schreier(cover, word), table)


def _homology_map(source: SurfaceCover, target: SurfaceCover, table):
    """Map a table of Schreier-generator images induces on homology, or None."""
    cx = surface_complex(target)
    images = [cx.class_coordinates(target.chain([(w, 0, 1)])) for w in table]
    return surface_complex(source).loop_map(images)


@dataclass(frozen=True)
class TwoArrowVaut:
    """Two covers with identified total surfaces.

    fwd maps each Schreier generator of the left stabilizer to a word in
    the right stabilizer; bwd is the inverse direction.  Construction
    checks that the tables take values in the right subgroups and that the
    two induced maps on the homology of the total surface are inverse
    integer matrices.  That check is a strong necessary condition; word
    problems beyond it are out of scope.

    vaut_inverse and restrict_vaut build their results unchecked.  A swap
    passes exactly the checks its source passed: the two stabilizer checks
    trade places, and X.Y = I iff Y.X = I for square integer matrices.  A
    restriction to a cover that factors through the left arrow represents
    the same virtual automorphism (Biswas-Nag-Sullivan).  The tests rebuild
    both through this constructor.
    """

    left: SurfaceCover
    right: SurfaceCover
    fwd: tuple[Word, ...]
    bwd: tuple[Word, ...]

    def __post_init__(self) -> None:
        need(self.left, SurfaceCover, "left", IncompatibleTower)
        need(self.right, SurfaceCover, "right", IncompatibleTower)
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
        x = _homology_map(self.left, self.right, fwd)
        y = _homology_map(self.right, self.left, bwd)
        if x is None or y is None:
            raise InvalidAutomorphism(
                "identification does not induce a linear map on homology"
            )
        # square matrices: a one-sided inverse is two-sided
        columns = list(zip(*y))
        for i, row in enumerate(x):
            if mat_vec(columns, row) != [int(i == j) for j in range(len(x))]:
                raise InvalidAutomorphism("identification is not invertible on homology")

    @property
    def base_genus(self) -> int:
        return self.left.genus

    @property
    def total_genus(self) -> int:
        return self.left.total_genus

    def forward_word(self, word) -> Word:
        """Image of a left-stabilizer word under the identification."""
        return apply_edge_word_map(self.left, self.fwd, word)

    def backward_word(self, word) -> Word:
        return apply_edge_word_map(self.right, self.bwd, word)


def vaut_act(vaut: TwoArrowVaut, element: LimitElement) -> LimitElement:
    """Action on a cycle-kind tower element.

    The element is lifted to the fiber product with the left cover, its
    chain is decomposed over Schreier loops there, each loop is pushed
    through the identification, and the images are traced out on the cover
    induced through the right arrow.
    """
    need(vaut, TwoArrowVaut, "vaut", IncompatibleTower)
    need(element, LimitElement, "element", IncompatibleTower)
    if element.kind != "cycle":
        raise KindMismatch("vaut_act moves cycle elements; see vaut_act_track")
    if element.base_genus != vaut.base_genus:
        raise BaseMismatch("element and vaut live over different bases")
    w = fiber_product(element.cover, vaut.left)
    chain = transfer_along_arrow(w.to_first, element.payload)
    image = induced_cover(vaut.right, vaut.bwd, w.cover).cover
    d = w.cover.degree
    coeffs = (chain[i * d + s] for i, s in w.cover.schreier.nontree)
    terms = [(vaut.forward_word(loop), 0, c) for c, loop in zip(coeffs, w.cover.loops) if c]
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
    giving the two arrows of the composite.
    """
    need(outer, TwoArrowVaut, "outer", IncompatibleTower)
    need(inner, TwoArrowVaut, "inner", IncompatibleTower)
    if outer.base_genus != inner.base_genus:
        raise BaseMismatch("vauts live over different bases")
    mid = fiber_product(outer.left, inner.right)
    new_left = induced_cover(inner.left, inner.fwd, mid.cover)
    new_right = induced_cover(outer.right, outer.bwd, mid.cover)
    fwd = tuple(outer.forward_word(inner.forward_word(w)) for w in new_left.cover.loops)
    bwd = tuple(inner.backward_word(outer.backward_word(w)) for w in new_right.cover.loops)
    return TwoArrowVaut(new_left.cover, new_right.cover, fwd, bwd)


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 and True miss the cache and are rejected
def identity_vaut(genus: int) -> TwoArrowVaut:
    cover = trivial_cover(genus)
    return TwoArrowVaut(cover, cover, cover.loops, cover.loops)


def vaut_from_automorphism(aut: SurfaceAutomorphism) -> TwoArrowVaut:
    """Mapping-class-like vaut with both arrows trivial."""
    cover = trivial_cover(aut.genus)
    fwd = tuple(map(aut.apply, cover.loops))
    bwd = tuple(map(aut.apply_inverse, cover.loops))
    return TwoArrowVaut(cover, cover, fwd, bwd)


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
    new_right = induced_cover(vaut.right, vaut.bwd, finer)
    fwd = tuple(map(vaut.forward_word, finer.loops))
    bwd = tuple(map(vaut.backward_word, new_right.cover.loops))
    return _trusted(TwoArrowVaut, left=finer, right=new_right.cover, fwd=fwd, bwd=bwd)


def is_mapping_class_like(vaut: TwoArrowVaut) -> bool:
    """Whether this representative has pointed-equal arrows.

    Decided after canonical relabeling.  False only means not witnessed by
    this representative; a finer one may still exhibit it.
    """
    return vaut.left.canonical() == vaut.right.canonical()


def pairing_preserved(
    vaut: TwoArrowVaut, e1: LimitElement, e2: LimitElement
) -> bool:
    """Exact equality of normalized pairings before and after acting."""
    before = normalized_pairing(e1, e2)
    after = normalized_pairing(vaut_act(vaut, e1), vaut_act(vaut, e2))
    return before == after


def _restricts_to(left: SurfaceCover, right: SurfaceCover, table, characteristic) -> bool:
    """Whether the vaut from left to right with backward table table, restricted
    over characteristic, lands on a cover of it; builds no vaut, only that cover."""
    refined = fiber_product(left, characteristic).cover
    return factors_through(induced_cover(right, table, refined).cover, characteristic) is not None


def certified_in_caut(vaut: TwoArrowVaut, depth: int = 1) -> bool:
    """Depth-bounded certificate that the vaut descends to characteristic covers.

    Depth 0 checks the trivial cover, depth 1 adds the mod-2 homology
    cover.  True certifies a representative over each tested characteristic
    cover in both directions; False is inconclusive beyond the tested depth.
    """
    need(vaut, TwoArrowVaut, "vaut", IncompatibleTower)
    integer(depth, "depth", IncompatibleTower, low=0)
    candidates = [trivial_cover(vaut.base_genus)]
    if depth >= 1:
        candidates.append(mod2_homology_cover(vaut.base_genus))
    for cover in candidates:
        if not _restricts_to(vaut.left, vaut.right, vaut.bwd, cover):
            return False
        if not _restricts_to(vaut.right, vaut.left, vaut.fwd, cover):
            return False
    return True
