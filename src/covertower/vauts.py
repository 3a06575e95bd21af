"""Virtual automorphisms as two-arrow diagrams of covers.

A virtual automorphism is an isomorphism between the stabilizers of two
covers with the same total surface.  It is stored as the two covers plus
the isomorphism in both directions, each direction given by one image word
per Schreier generator of the source stabilizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .characteristic import SurfaceAutomorphism, mod2_homology_cover
from .covers import (
    SurfaceCover,
    _trusted,
    factors_through,
    fiber_product,
    induced_cover,
    rewrite_in_schreier,
    schreier_loop,
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
from .exact_linalg import mat_mul
from .homology import surface_complex, transfer_along_arrow
from .limits import LimitElement, homology_shadow, normalized_pairing
from .surface import Word, free_reduce, generator_count, inverse_word

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
    out: list[int] = []
    for symbol in rewrite_in_schreier(cover, word):
        piece = table[abs(symbol) - 1]
        if symbol < 0:
            piece = inverse_word(piece)
        out.extend(piece)
    return free_reduce(out)


def _homology_map(source: SurfaceCover, target: SurfaceCover, table):
    """Map a table of Schreier-generator images induces on homology, or None."""
    cx = surface_complex(target)
    images = [cx.class_coordinates(cx.word_path_chain(w, 0)) for w in table]
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
    """

    left: SurfaceCover
    right: SurfaceCover
    fwd: tuple[Word, ...]
    bwd: tuple[Word, ...]

    def __post_init__(self) -> None:
        if self.left.genus != self.right.genus:
            raise BaseMismatch("arrows must cover the same base surface")
        if self.left.total_genus != self.right.total_genus:
            raise GenusMismatch("the two arrows have different total surfaces")
        n = generator_count(self.left.genus)
        for name, table in (("fwd", self.fwd), ("bwd", self.bwd)):
            for k, w in enumerate(table):
                if any(not 0 < abs(x) <= n for x in w):
                    raise InvalidAutomorphism(
                        f"{name}[{k}]: letters must be nonzero, at most {n} in size"
                    )
        fwd = tuple(free_reduce(w) for w in self.fwd)
        bwd = tuple(free_reduce(w) for w in self.bwd)
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
        t = len(x)
        if mat_mul(x, y) != [[int(i == j) for j in range(t)] for i in range(t)]:
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
    if element.kind != "cycle":
        raise KindMismatch("vaut_act moves cycle elements; see vaut_act_track")
    if element.base_genus != vaut.base_genus:
        raise BaseMismatch("element and vaut live over different bases")
    w = fiber_product(element.cover, vaut.left)
    chain = transfer_along_arrow(w.to_first, element.payload)
    image = induced_cover(vaut.right, vaut.bwd, w.cover).cover
    d = image.degree
    out = [0] * (len(image.perms) * d)
    for i, s in w.cover.schreier.nontree:
        coeff = chain[i * w.cover.degree + s]
        if coeff:
            moved = vaut.forward_word(schreier_loop(w.cover, (i, s)))
            for j, t, sign in image.walk(moved, 0)[0]:
                out[j * d + t] += coeff * sign
    return _trusted(LimitElement, kind="cycle", cover=image, payload=tuple(out))


def vaut_act_track(vaut: TwoArrowVaut, element: LimitElement) -> LimitElement:
    """Action on a weighted-track element through its homology shadow.

    Integer weights give an integer cycle payload, so integrality is
    preserved on the nose.  Carrying the track structure itself across the
    identification is out of scope; only the shadow moves.
    """
    return vaut_act(vaut, homology_shadow(element))


def vaut_inverse(vaut: TwoArrowVaut) -> TwoArrowVaut:
    return TwoArrowVaut(vaut.right, vaut.left, vaut.bwd, vaut.fwd)


def vaut_compose(outer: TwoArrowVaut, inner: TwoArrowVaut) -> TwoArrowVaut:
    """Composite acting as inner first, then outer.

    The fiber product of outer's left cover with inner's right cover is a
    common total surface; both identifications transport its stabilizer,
    giving the two arrows of the composite.
    """
    if outer.base_genus != inner.base_genus:
        raise BaseMismatch("vauts live over different bases")
    mid = fiber_product(outer.left, inner.right)
    new_left = induced_cover(inner.left, inner.fwd, mid.cover)
    new_right = induced_cover(outer.right, outer.bwd, mid.cover)
    fwd = tuple(
        outer.forward_word(inner.forward_word(schreier_loop(new_left.cover, e)))
        for e in new_left.cover.schreier.nontree
    )
    bwd = tuple(
        inner.backward_word(outer.backward_word(schreier_loop(new_right.cover, e)))
        for e in new_right.cover.schreier.nontree
    )
    return TwoArrowVaut(new_left.cover, new_right.cover, fwd, bwd)


@lru_cache(maxsize=None)
def identity_vaut(genus: int) -> TwoArrowVaut:
    cover = trivial_cover(genus)
    table = tuple(schreier_loop(cover, e) for e in cover.schreier.nontree)
    return TwoArrowVaut(cover, cover, table, table)


def vaut_from_automorphism(aut: SurfaceAutomorphism) -> TwoArrowVaut:
    """Mapping-class-like vaut with both arrows trivial."""
    cover = trivial_cover(aut.genus)
    loops = [schreier_loop(cover, e) for e in cover.schreier.nontree]
    fwd = tuple(aut.apply(w) for w in loops)
    bwd = tuple(aut.apply_inverse(w) for w in loops)
    return TwoArrowVaut(cover, cover, fwd, bwd)


def restrict_vaut(vaut: TwoArrowVaut, finer: SurfaceCover) -> TwoArrowVaut:
    """Representative of the same virtual automorphism over a finer left cover.

    The finer cover must factor through the current left cover; the new
    right cover is induced through the backward table.
    """
    if factors_through(finer, vaut.left) is None:
        raise IncompatibleTower("cover does not factor through the vaut's left arrow")
    new_right = induced_cover(vaut.right, vaut.bwd, finer)
    fwd = tuple(
        vaut.forward_word(schreier_loop(finer, e)) for e in finer.schreier.nontree
    )
    bwd = tuple(
        vaut.backward_word(schreier_loop(new_right.cover, e))
        for e in new_right.cover.schreier.nontree
    )
    return TwoArrowVaut(finer, new_right.cover, fwd, bwd)


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


def _restricts_to(vaut: TwoArrowVaut, characteristic: SurfaceCover) -> bool:
    refined = fiber_product(vaut.left, characteristic).cover
    restricted = restrict_vaut(vaut, refined)
    return factors_through(restricted.right, characteristic) is not None


def certified_in_caut(vaut: TwoArrowVaut, depth: int = 1) -> bool:
    """Depth-bounded certificate that the vaut descends to characteristic covers.

    Depth 0 checks the trivial cover, depth 1 adds the mod-2 homology
    cover.  True certifies a representative over each tested characteristic
    cover in both directions; False is inconclusive beyond the tested depth.
    """
    candidates = [trivial_cover(vaut.base_genus)]
    if depth >= 1:
        candidates.append(mod2_homology_cover(vaut.base_genus))
    for cover in candidates:
        if not _restricts_to(vaut, cover):
            return False
        if not _restricts_to(vaut_inverse(vaut), cover):
            return False
    return True
