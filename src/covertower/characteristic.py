"""Characteristic covers and a shipped automorphism generating set.

A cover is characteristic when its stabilizer subgroup is preserved by every
automorphism of the surface group.  An automorphism is a degree-1 vaut
(vauts.TwoArrowVaut over the trivial cover), and testing is relative to a
supplied list of them; the shipped genus-2 list contains the four one-handle
twist substitutions, the handle swap, and an orientation-reversing flip.
The characteristic refinement folds the pair walk of fiber_product over
every cover of degree up to the given one.
"""

from __future__ import annotations

from .covers import (
    SurfaceCover,
    _pair_moves,
    _pointed_orbit,
    enumerate_covers,
    mod2_homology_cover,  # re-exported for perfbench's cache table and tower job
    search_budget,
    trivial_cover,
)
from .errors import IncompatibleTower, InvalidAutomorphism, SearchBudgetExceeded
from .errors import checked_cache, integer, need, sequence
from .surface import substitute
from .vauts import TwoArrowVaut


def _automorphism(images, inverses, name: str) -> TwoArrowVaut:
    cover = trivial_cover(2)
    return TwoArrowVaut(cover, cover, images, inverses, name)


def _twist(moving: int, along: int, name: str) -> TwoArrowVaut:
    """Substitution sending one generator to itself times another."""
    images = [(i + 1,) for i in range(4)]
    inverses = list(images)
    images[moving] = (moving + 1, along + 1)
    inverses[moving] = (moving + 1, -(along + 1))
    return _automorphism(images, inverses, name)


def _genus_two(genus=2) -> tuple[int]:
    if integer(genus, "genus", InvalidAutomorphism, low=2) != 2:
        raise InvalidAutomorphism("shipped automorphism list is genus-2 only")
    return (2,)


@checked_cache(_genus_two)
def shipped_automorphisms(genus: int = 2) -> tuple[TwoArrowVaut, ...]:
    """Generating data for characteristic testing at genus 2, as degree-1 vauts.

    Four handle twists, the swap of the two handles, and an
    orientation-reversing exchange of the two curves in every handle.
    """
    swap, flip = ((3,), (4,), (1,), (2,)), ((2,), (1,), (4,), (3,))
    return (
        _twist(1, 0, "twist_b1_along_a1"),
        _twist(0, 1, "twist_a1_along_b1"),
        _twist(3, 2, "twist_b2_along_a2"),
        _twist(2, 3, "twist_a2_along_b2"),
        _automorphism(swap, swap, "handle_swap"),
        _automorphism(flip, flip, "ab_flip"),
    )


def is_characteristic(cover: SurfaceCover, automorphisms) -> bool:
    """Normality plus stability of the stabilizer under each automorphism,
    a degree-1 vaut of the cover's genus.

    Sound relative to the supplied list: a True answer certifies invariance
    under the subgroup those automorphisms generate.
    """
    need(cover, SurfaceCover, "cover", IncompatibleTower)
    automorphisms = sequence(automorphisms, "automorphisms", IncompatibleTower)
    for k, aut in enumerate(automorphisms):
        need(aut, TwoArrowVaut, f"automorphisms[{k}]", IncompatibleTower)
        if aut.left.degree != 1 or aut.base_genus != cover.genus:
            raise InvalidAutomorphism(
                f"automorphisms[{k}] must be a degree-1 vaut of genus {cover.genus}, "
                f"got degree {aut.left.degree} over genus {aut.base_genus}"
            )
    sheets = range(cover.degree)
    for loop in cover.loops:
        if any(cover.act(loop, s) != s for s in sheets):
            return False
    for aut in automorphisms:
        for loop in cover.loops:
            if not cover.stabilizes_basepoint(substitute(loop, aut.fwd)):
                return False
    return True


def characteristic_refinement(
    cover: SurfaceCover, budget: int | None = None
) -> SurfaceCover:
    """Intersection of all stabilizers of index up to the cover's degree.

    From the trivial cover, each cover of degree 2..d in turn is attached by
    the pair walk of fiber_product; each walk's orbit is a quotient of the
    last, so one exceeds the budget iff the result would.  The family is
    automorphism-stable, so the result is characteristic; it factors through
    the input because the input is one of the factors.
    """
    need(cover, SurfaceCover, "cover", IncompatibleTower)
    limit = search_budget(budget)
    degrees = range(2, cover.degree + 1)
    family = [c for deg in degrees for c in enumerate_covers(cover.genus, deg, budget=limit)]
    refinement = trivial_cover(cover.genus)
    for factor in family:
        # every factor kills the relator, so each pair orbit does too
        orbit = _pointed_orbit(cover.genus, _pair_moves(refinement, factor), budget=limit)
        if orbit is None:
            raise SearchBudgetExceeded(
                f"characteristic refinement exceeded {limit} sheets; "
                "raise COVERTOWER_BUDGET or pass a larger budget"
            )
        refinement = orbit[0]
    return refinement.canonical()
