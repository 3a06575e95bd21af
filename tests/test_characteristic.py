import dataclasses
import tracemalloc

import pytest

from covertower.characteristic import (
    characteristic_refinement,
    is_characteristic,
    shipped_automorphisms,
)
from covertower.covers import (
    SurfaceCover,
    _pointed_orbit,
    enumerate_covers,
    factors_through,
    mod2_homology_cover,
    search_budget,
    trivial_cover,
)
from covertower.documents import DocumentError, parse_automorphisms
from covertower.errors import (
    BadDegree,
    CovertowerError,
    DimensionMismatch,
    IncompatibleTower,
    InvalidAutomorphism,
    SearchBudgetExceeded,
)
from covertower.limits import base_class_element, limit_equal
from covertower.surface import (
    abelianized,
    free_reduce,
    inverse_word,
    is_trivial,
    substitute,
    surface_relator,
)
from covertower.vauts import (
    TwoArrowVaut,
    identity_vaut,
    restrict_vaut,
    vaut_act,
    vaut_from_automorphism,
)
from conftest import automorphism, double_cover_from_signs


def test_shipped_list():
    """Six named degree-1 vauts, at genus 2 only."""
    auts = shipped_automorphisms(2)
    assert [a.name for a in auts] == [
        "twist_b1_along_a1",
        "twist_a1_along_b1",
        "twist_b2_along_a2",
        "twist_a2_along_b2",
        "handle_swap",
        "ab_flip",
    ]
    for a in auts:
        assert type(a) is TwoArrowVaut
        assert a.left == a.right == trivial_cover(2)
        assert vaut_from_automorphism(a) is a
    with pytest.raises(InvalidAutomorphism):
        shipped_automorphisms(3)


def test_names_play_no_part_in_equality():
    for a in shipped_automorphisms(2):
        renamed = dataclasses.replace(a, name="renamed")
        assert renamed.name == "renamed"
        assert renamed == a and hash(renamed) == hash(a)
    with pytest.raises(IncompatibleTower, match="^name must be a str, got 3$"):
        dataclasses.replace(shipped_automorphisms(2)[0], name=3)


def test_a_higher_degree_vaut_is_no_automorphism():
    swap = shipped_automorphisms(2)[4]
    restricted = restrict_vaut(swap, enumerate_covers(2, 2)[0])
    with pytest.raises(IncompatibleTower, match="^orientation needs a degree-1 vaut, got degree 2$"):
        restricted.is_orientation_preserving()
    with pytest.raises(
        InvalidAutomorphism,
        match=r"^automorphisms\[1\] must be a degree-1 vaut of genus 2, got degree 2 over genus 2$",
    ):
        is_characteristic(trivial_cover(2), [swap, restricted])
    other = identity_vaut(3)
    with pytest.raises(
        InvalidAutomorphism,
        match=r"^automorphisms\[0\] must be a degree-1 vaut of genus 2, got degree 1 over genus 3$",
    ):
        is_characteristic(trivial_cover(2), [other])
    for bad in (restricted, None, "aut"):
        with pytest.raises(IncompatibleTower, match="^aut must be a degree-1 TwoArrowVaut, got "):
            vaut_from_automorphism(bad)


def test_orientation_split():
    auts = shipped_automorphisms(2)
    reversing = [a.name for a in auts if not a.is_orientation_preserving()]
    assert reversing == ["ab_flip"]


def test_twist_abelian_matrix():
    twist = next(a for a in shipped_automorphisms(2) if a.name == "twist_b1_along_a1")
    assert [list(abelianized(w, 2)) for w in twist.fwd] == [
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]


def test_apply_round_trip():
    words = [(1, 2, -3), (4, 4, 1), (-2, -1, 3, 4)]
    for aut in shipped_automorphisms(2):
        for w in words:
            there = substitute(w, aut.fwd)
            assert free_reduce(substitute(there, aut.bwd)) == free_reduce(w)
            assert free_reduce(substitute(substitute(w, aut.bwd), aut.fwd)) == free_reduce(w)


def test_automorphism_validation():
    ident = ((1,), (2,), (3,), (4,))
    with pytest.raises(DimensionMismatch, match="^need one image per left Schreier generator$"):
        automorphism(2, ((1,), (2,), (3,)), ident)
    with pytest.raises(DimensionMismatch, match="^need one image per right Schreier generator$"):
        automorphism(2, ident, ident + ((1,),))
    with pytest.raises(InvalidAutomorphism, match=r"^bwd does not undo fwd\[0\]$"):
        # claimed inverse does not undo the twist
        automorphism(2, ((1, 2), (2,), (3,), (4,)), ident)
    # swapping a single pair of handles' a-curves breaks the relator
    swap_a = ((3,), (2,), (1,), (4,))
    with pytest.raises(
        InvalidAutomorphism, match="^fwd does not kill the relator lifted at sheet 0$"
    ):
        automorphism(2, swap_a, ident)
    with pytest.raises(
        InvalidAutomorphism, match="^bwd does not kill the relator lifted at sheet 0$"
    ):
        automorphism(2, ident, swap_a)


def test_automorphism_input_errors_name_the_field():
    ident = ((1,), (2,), (3,), (4,))
    cases = [
        ((2, ((1.0,), (2,), (3,), (4,)), ident), r"^fwd\[0\]"),
        ((2, ((True,), (2,), (3,), (4,)), ident), r"^fwd\[0\]"),
        ((2, ident, ((1,), (2,), (0,), (4,))), r"^bwd\[2\]"),
        ((2, ((1,), (2,), (3,), (9,)), ident), r"^fwd\[3\]"),
        ((2, 5, ident), r"^fwd must be a sequence"),
        ((2, ident, None), r"^bwd must be a sequence"),
    ]
    for args, field in cases:
        with pytest.raises(InvalidAutomorphism, match=field):
            automorphism(*args)
    # the genus is the trivial cover's
    for genus, table in ((2.0, ident), (True, ident), (0, ()), (1, ((1,), (2,)))):
        with pytest.raises(BadDegree, match=rf"^genus must be an integer at least 2, got {genus!r}$"):
            automorphism(genus, table, table)


def _automorphisms_at(genus):
    """An automorphisms document holding the identity at the given genus."""
    ident = [[i + 1] for i in range(2 * genus)]
    item = {"images": ident, "inverse_images": ident}
    return parse_automorphisms({"type": "automorphisms", "genus": genus, "items": [item]})


@pytest.mark.parametrize("build, genus, error", [
    (trivial_cover, 2.0, BadDegree),
    (trivial_cover, True, BadDegree),
    (trivial_cover, 1, BadDegree),
    (mod2_homology_cover, 2.0, BadDegree),
    (mod2_homology_cover, True, BadDegree),
    (shipped_automorphisms, 2.0, InvalidAutomorphism),
    (shipped_automorphisms, True, InvalidAutomorphism),
    (identity_vaut, 2.0, BadDegree),
    (identity_vaut, "2", BadDegree),
    (_automorphisms_at, 1, DocumentError),
])
def test_genus_is_an_integer_at_least_2(build, genus, error):
    build(2)  # the cached builders must not answer a float or bool genus from the cache
    with pytest.raises(error, match=rf"^genus must be an integer at least 2, got {genus!r}$"):
        build(genus)


def test_substitution_respects_relator_on_shipped():
    relator = surface_relator(2)
    for aut in shipped_automorphisms(2):
        assert is_trivial(substitute(relator, aut.fwd), 2)
        assert is_trivial(substitute(relator, aut.bwd), 2)
        for i in range(4):
            gen = (i + 1,)
            back = substitute(substitute(gen, aut.fwd), aut.bwd)
            assert is_trivial(back + inverse_word(gen), 2)


def test_a_correct_table_that_is_not_tame_is_accepted():
    """a1 -> a1.R is the identity of the surface group, but its relator image
    is not freely conjugate to R^+-1, so a free-group check rejects it."""
    relator = surface_relator(2)
    ident = ((1,), (2,), (3,), (4,))
    v = automorphism(2, ((1,) + relator, (2,), (3,), (4,)), ident, "a1_times_R")
    assert v.is_orientation_preserving()
    for gen in range(4):
        unit = tuple(int(i == gen) for i in range(4))
        assert limit_equal(vaut_act(v, base_class_element(2, unit)), base_class_element(2, unit))
    flip = next(a for a in shipped_automorphisms(2) if a.name == "ab_flip")
    assert not flip.is_orientation_preserving()


def _chain_map(conjugate_other_handles: bool):
    """Genus 3: a1 -> b2 b1 a1 and a2 -> b1 b2 a2, b1 and b2 fixed, handle 3
    conjugated by u = b2 b1 or left alone; and the claimed inverse."""
    u = (4, 2) if conjugate_other_handles else ()
    images = ((4, 2, 1), (2,), (2, 4, 3), (4,)) + tuple(
        u + (x,) + inverse_word(u) for x in (5, 6)
    )
    inverses = ((-2, -4, 1), (2,), (-4, -2, 3), (4,)) + tuple(
        inverse_word(u) + (x,) + u for x in (5, 6)
    )
    return images, inverses


def test_genus_three_maps_that_are_not_endomorphisms_are_rejected():
    images, inverses = _chain_map(conjugate_other_handles=True)
    assert automorphism(3, images, inverses).is_orientation_preserving()
    swap = ((3,), (4,), (1,), (2,), (5,), (6,))
    flip = ((2,), (1,), (4,), (3,), (6,), (5,))
    for table, inverse in (swap, swap), (flip, flip), _chain_map(conjugate_other_handles=False):
        with pytest.raises(
            InvalidAutomorphism, match="^fwd does not kill the relator lifted at sheet 0$"
        ):
            automorphism(3, table, inverse)


def test_trivial_and_mod2_are_characteristic():
    auts = shipped_automorphisms(2)
    assert is_characteristic(trivial_cover(2), auts)
    assert is_characteristic(mod2_homology_cover(2), auts)


def test_single_double_cover_is_not_characteristic():
    auts = shipped_automorphisms(2)
    for signs in ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)):
        assert not is_characteristic(double_cover_from_signs(2, signs), auts)


def test_nonnormal_cover_is_not_characteristic():
    cyc = (1, 2, 0)
    swp = (0, 2, 1)
    cover = SurfaceCover(2, 3, (swp, cyc, cyc, swp))
    assert not is_characteristic(cover, shipped_automorphisms(2))


def test_mod2_cover_shape():
    k = mod2_homology_cover(2)
    assert k.degree == 16
    assert k.total_genus == 17
    assert k.canonical() is k
    for cover in enumerate_covers(2, 2):
        assert factors_through(k, cover) is not None


def test_refinement_of_trivial_cover():
    assert characteristic_refinement(trivial_cover(2)) == trivial_cover(2)


def test_refinement_of_every_double_cover_is_mod2():
    k = mod2_homology_cover(2)
    auts = shipped_automorphisms(2)
    for cover in enumerate_covers(2, 2):
        refined = characteristic_refinement(cover)
        assert refined == k
        assert factors_through(refined, cover) is not None
        assert is_characteristic(refined, auts)


def reference_refinement(cover: SurfaceCover, budget: int | None = None) -> SurfaceCover:
    """The refinement as one pointed orbit of the diagonal action on tuples
    holding one sheet of every cover of degree 2..d, the oracle of the fold
    of pair walks.  Each state holds the whole family: 235 entries at d = 3
    and 5,510 at d = 4."""
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
    return orbit[0].canonical()


def _raised(build, cover, budget) -> tuple[type, str]:
    with pytest.raises(CovertowerError) as exc:
        build(cover, budget=budget)
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("genus, degree", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_fold_matches_the_family_tuple_orbit(genus, degree):
    """Same cover and same labels on every cover, and the same budget edge:
    both pass at a budget equal to the refinement's degree and raise the
    same error one below it (a budget of 0 is no budget at all, for both).
    The family depends on the genus and degree alone, so the edge is tried
    on the first and last cover of each census."""
    census = enumerate_covers(genus, degree)
    for cover in census:
        refined, expected = characteristic_refinement(cover), reference_refinement(cover)
        assert refined == expected and refined.perms == expected.perms
        assert refined.degree == (1 if degree == 1 else 1 << 2 * genus)
    for cover in {census[0], census[-1]}:
        for build in characteristic_refinement, reference_refinement:
            assert build(cover, budget=refined.degree) == refined
        below = refined.degree - 1
        raised = _raised(characteristic_refinement, cover, below)
        assert raised == _raised(reference_refinement, cover, below)
        assert raised[0] is (CovertowerError if degree == 1 else SearchBudgetExceeded)


def test_refinement_over_degree_4_walks_small_states():
    """The walk states are sheet pairs, not tuples over the 5,510 covers of
    degree <= 4: reaching a 5,000-sheet budget stays far under 20 MB of
    traced allocation (the family-tuple walk takes about 243 MB)."""
    cover = enumerate_covers(2, 4)[-1]
    tracemalloc.start()
    try:
        with pytest.raises(SearchBudgetExceeded, match="^characteristic refinement exceeded 5000 sheets"):
            characteristic_refinement(cover, budget=5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak


def test_refinement_at_degree3_exceeds_any_desk_budget():
    # the fold attaches the 235 covers of degree <= 3 one pair walk at a
    # time, and the refinement blows up: with only a third of the degree-3
    # factors attached it already passes 900000 sheets, so the default
    # budget cannot complete either.  A small explicit budget keeps the
    # failure fast.
    cover = enumerate_covers(2, 3)[0]
    with pytest.raises(SearchBudgetExceeded):
        characteristic_refinement(cover, budget=5000)


def test_refinement_rejects_a_zero_budget():
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    with pytest.raises(CovertowerError, match="budget must be an integer") as exc:
        characteristic_refinement(cover, budget=0)
    assert not isinstance(exc.value, SearchBudgetExceeded)


def test_refinement_tiny_budget():
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    with pytest.raises(SearchBudgetExceeded):
        characteristic_refinement(cover, budget=8)
