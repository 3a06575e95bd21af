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
    _first_live_relator,
    _pointed_orbit,
    enumerate_covers,
    rewrite_in_schreier,
    search_budget,
    trivial_cover,
)
from .errors import IncompatibleTower, InvalidAutomorphism, SearchBudgetExceeded
from .errors import checked_cache, genus_key, integer, need, sequence, words
from .surface import (
    Word,
    abelianized,
    free_reduce,
    generator_count,
    inverse_word,
    is_trivial,
    substitute,
    symplectic_product,
)


def _word_table(table, name: str, genus: int) -> tuple[Word, ...]:
    """The table's words, free-reduced; InvalidAutomorphism names a bad entry."""
    return tuple(map(free_reduce, words(table, name, genus, InvalidAutomorphism)))


def _check_isomorphism(left: SurfaceCover, right: SurfaceCover, fwd, bwd, names) -> None:
    """Raise InvalidAutomorphism unless two tables, whose words already lie in
    the right stabilizers, are inverse isomorphisms of the stabilizers of
    left and right; names holds the tables' field names, for the messages.

    A table is a homomorphism iff it kills the relator lifted at every
    sheet (covers._first_live_relator), and two homomorphisms are inverse
    iff each undoes the other on the Schreier generators.  Surface groups
    are Hopfian, so the second undo check follows from the first; both run
    so that a swapped pair passes iff the pair does.
    """
    genus = left.genus
    sides = ((left, right, fwd, bwd, names), (right, left, bwd, fwd, names[::-1]))
    for source, _, table, _, (name, _) in sides:
        if (s := _first_live_relator(source, table, genus)) is not None:
            raise InvalidAutomorphism(f"{name} does not kill the relator lifted at sheet {s}")
    for source, target, table, back, (name, back_name) in sides:
        for k, (loop, image) in enumerate(zip(source.loops, table)):
            undone = substitute(rewrite_in_schreier(target, image), back)
            if not is_trivial(undone + inverse_word(loop), genus):
                raise InvalidAutomorphism(f"{back_name} does not undo {name}[{k}]")


@dataclass(frozen=True)
class SurfaceAutomorphism:
    """Automorphism of the surface group given by generator images.

    The constructor checks that both tables send the relator to 1 and undo
    each other on every generator in the surface group, by the same exact
    check as a TwoArrowVaut over the trivial cover, whose Schreier
    generators are the generators.
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
        cover = trivial_cover(self.genus)
        _check_isomorphism(cover, cover, images, inverses, ("images", "inverse_images"))

    def apply(self, word) -> Word:
        return substitute(word, self.images)

    def is_orientation_preserving(self) -> bool:
        """Whether the images of a1 and b1 keep the sign of their
        intersection number; for an automorphism it is +1 or -1."""
        a, b = (abelianized(w, self.genus) for w in self.images[:2])
        return symplectic_product(a, b) == 1


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
