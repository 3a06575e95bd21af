"""Characteristic covers and a shipped automorphism generating set.

A cover is characteristic when its stabilizer subgroup is preserved by every
automorphism of the surface group.  Testing is relative to a supplied list
of automorphisms; the shipped genus-2 list contains the four one-handle
twist substitutions, the handle swap, and an orientation-reversing flip.
"""

from __future__ import annotations

from dataclasses import dataclass

from .covers import (
    SurfaceCover,
    _pointed_orbit,
    enumerate_covers,
    search_budget,
    trivial_cover,
)
from .errors import IncompatibleTower, InvalidAutomorphism, SearchBudgetExceeded
from .errors import checked_cache, genus_key, integer, need, sequence, words
from .surface import (
    Word,
    are_conjugate,
    free_reduce,
    generator_count,
    inverse_word,
    substitute,
    surface_relator,
)


def _word_table(table, name: str, genus: int) -> tuple[Word, ...]:
    """The table's words, free-reduced; InvalidAutomorphism names a bad entry."""
    return tuple(map(free_reduce, words(table, name, genus, InvalidAutomorphism)))


@dataclass(frozen=True)
class SurfaceAutomorphism:
    """Automorphism of the surface group given by generator images.

    Constructor accepts only tame presentations: the two substitution tables
    must compose to the identity after free reduction, and the relator image
    must be freely conjugate to the relator or its inverse.  That is
    sufficient for a genuine automorphism; presentations needing relator
    rewriting to verify are out of scope and rejected.
    """

    genus: int
    images: tuple[Word, ...]
    inverse_images: tuple[Word, ...]
    name: str = ""

    def __post_init__(self) -> None:
        n = generator_count(integer(self.genus, "genus", InvalidAutomorphism, low=2))
        images = _word_table(self.images, "images", self.genus)
        inverses = _word_table(self.inverse_images, "inverse_images", self.genus)
        if len(images) != n or len(inverses) != n:
            raise InvalidAutomorphism("need one image word per generator")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "inverse_images", inverses)
        for i in range(n):
            gen = (i + 1,)
            if substitute(substitute(gen, self.images), self.inverse_images) != gen:
                raise InvalidAutomorphism(
                    f"inverse images do not undo generator {i + 1}"
                )
            if substitute(substitute(gen, self.inverse_images), self.images) != gen:
                raise InvalidAutomorphism(
                    f"images do not undo inverse generator {i + 1}"
                )
        relator = surface_relator(self.genus)
        image = substitute(relator, self.images)
        if not (
            are_conjugate(image, relator)
            or are_conjugate(image, inverse_word(relator))
        ):
            raise InvalidAutomorphism(
                "relator image is not conjugate to the relator or its inverse"
            )

    def apply(self, word) -> Word:
        return substitute(word, self.images)

    def apply_inverse(self, word) -> Word:
        return substitute(word, self.inverse_images)

    def is_orientation_preserving(self) -> bool:
        relator = surface_relator(self.genus)
        return are_conjugate(substitute(relator, self.images), relator)


def _twist(genus: int, moving: int, along: int, name: str) -> SurfaceAutomorphism:
    """Substitution sending one generator to itself times another."""
    n = generator_count(genus)
    images = [(i + 1,) for i in range(n)]
    inverses = [(i + 1,) for i in range(n)]
    images[moving] = (moving + 1, along + 1)
    inverses[moving] = (moving + 1, -(along + 1))
    return SurfaceAutomorphism(genus, tuple(images), tuple(inverses), name)


def _genus_two(genus=2) -> tuple[int]:
    if integer(genus, "genus", InvalidAutomorphism, low=2) != 2:
        raise InvalidAutomorphism("shipped automorphism list is genus-2 only")
    return (2,)


@checked_cache(_genus_two)
def shipped_automorphisms(genus: int = 2) -> tuple[SurfaceAutomorphism, ...]:
    """Generating data for characteristic testing at genus 2.

    Four handle twists, the swap of the two handles, and an
    orientation-reversing exchange of the two curves in every handle.
    """
    twists = (
        _twist(2, 1, 0, "twist_b1_along_a1"),
        _twist(2, 0, 1, "twist_a1_along_b1"),
        _twist(2, 3, 2, "twist_b2_along_a2"),
        _twist(2, 2, 3, "twist_a2_along_b2"),
    )
    swap = SurfaceAutomorphism(
        2,
        images=((3,), (4,), (1,), (2,)),
        inverse_images=((3,), (4,), (1,), (2,)),
        name="handle_swap",
    )
    flip = SurfaceAutomorphism(
        2,
        images=((2,), (1,), (4,), (3,)),
        inverse_images=((2,), (1,), (4,), (3,)),
        name="ab_flip",
    )
    return twists + (swap, flip)


def is_characteristic(cover: SurfaceCover, automorphisms) -> bool:
    """Normality plus stability of the stabilizer under each automorphism.

    Sound relative to the supplied list: a True answer certifies invariance
    under the subgroup those automorphisms generate.
    """
    need(cover, SurfaceCover, "cover", IncompatibleTower)
    automorphisms = sequence(automorphisms, "automorphisms", IncompatibleTower)
    for k, aut in enumerate(automorphisms):
        need(aut, SurfaceAutomorphism, f"automorphisms[{k}]", IncompatibleTower)
        if aut.genus != cover.genus:
            raise InvalidAutomorphism("automorphism is for a different genus")
    sheets = range(cover.degree)
    for loop in cover.loops:
        if any(cover.act(loop, s) != s for s in sheets):
            return False
    for aut in automorphisms:
        for loop in cover.loops:
            if not cover.stabilizes_basepoint(aut.apply(loop)):
                return False
    return True


@checked_cache(genus_key)
def mod2_homology_cover(genus: int) -> SurfaceCover:
    """Regular cover with deck group (Z/2)^2g: sheets are mod-2 class vectors."""
    n = generator_count(genus)
    degree = 1 << n
    perms = tuple(
        tuple(s ^ (1 << i) for s in range(degree)) for i in range(n)
    )
    return SurfaceCover(genus, degree, perms).canonical()


def characteristic_refinement(
    cover: SurfaceCover, budget: int | None = None
) -> SurfaceCover:
    """Intersection of all stabilizers of index up to the cover's degree.

    Realized as the pointed component of the diagonal action on the product
    of every coset space of degree 2..d.  The family is automorphism-stable,
    so the result is characteristic; it factors through the input because the
    input is one of the factors.
    """
    need(cover, SurfaceCover, "cover", IncompatibleTower)
    limit = search_budget(budget)
    d = cover.degree
    if d == 1:
        return trivial_cover(cover.genus)
    family: list[SurfaceCover] = []
    for deg in range(2, d + 1):
        family.extend(enumerate_covers(cover.genus, deg, budget=limit))
    orbit = _pointed_orbit(
        cover.genus,
        lambda i, state: (
            tuple(c.perms[i][s] for c, s in zip(family, state)),
            tuple(c.inverse_perms[i][s] for c, s in zip(family, state)),
        ),
        budget=limit,
        start=(0,) * len(family),
    )
    if orbit is None:
        raise SearchBudgetExceeded(
            f"characteristic refinement exceeded {limit} sheets; "
            "raise COVERTOWER_BUDGET or pass a larger budget"
        )
    # every factor kills the relator, so their diagonal orbit does too
    return orbit[0].canonical()
