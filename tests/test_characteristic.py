import pytest

from covertower.characteristic import (
    SurfaceAutomorphism,
    characteristic_refinement,
    is_characteristic,
    mod2_homology_cover,
    shipped_automorphisms,
)
from covertower.covers import (
    SurfaceCover,
    enumerate_covers,
    factors_through,
    trivial_cover,
)
from covertower.documents import parse_automorphisms
from covertower.errors import BadDegree, CovertowerError, InvalidAutomorphism, SearchBudgetExceeded
from covertower.limits import base_class_element, limit_equal
from covertower.surface import (
    abelianized,
    free_reduce,
    inverse_word,
    is_trivial,
    substitute,
    surface_relator,
)
from covertower.vauts import identity_vaut, vaut_act, vaut_from_automorphism
from conftest import double_cover_from_signs


def test_shipped_list():
    auts = shipped_automorphisms(2)
    assert len(auts) == 6
    names = [a.name for a in auts]
    assert len(set(names)) == 6
    assert "handle_swap" in names
    assert "ab_flip" in names
    with pytest.raises(InvalidAutomorphism):
        shipped_automorphisms(3)


def test_orientation_split():
    auts = shipped_automorphisms(2)
    reversing = [a.name for a in auts if not a.is_orientation_preserving()]
    assert reversing == ["ab_flip"]


def test_twist_abelian_matrix():
    twist = next(a for a in shipped_automorphisms(2) if a.name == "twist_b1_along_a1")
    assert [list(abelianized(w, 2)) for w in twist.images] == [
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]


def test_apply_round_trip():
    words = [(1, 2, -3), (4, 4, 1), (-2, -1, 3, 4)]
    for aut in shipped_automorphisms(2):
        for w in words:
            assert free_reduce(substitute(aut.apply(w), aut.inverse_images)) == free_reduce(w)
            assert free_reduce(aut.apply(substitute(w, aut.inverse_images))) == free_reduce(w)


def test_automorphism_validation():
    ident = ((1,), (2,), (3,), (4,))
    with pytest.raises(InvalidAutomorphism):
        SurfaceAutomorphism(2, ((1,), (2,), (3,)), ident)
    with pytest.raises(InvalidAutomorphism, match=r"^inverse_images does not undo images\[0\]$"):
        # claimed inverse does not undo the twist
        SurfaceAutomorphism(2, ((1, 2), (2,), (3,), (4,)), ident)
    # swapping a single pair of handles' a-curves breaks the relator
    swap_a = ((3,), (2,), (1,), (4,))
    with pytest.raises(
        InvalidAutomorphism, match="^images does not kill the relator lifted at sheet 0$"
    ):
        SurfaceAutomorphism(2, swap_a, ident)
    with pytest.raises(
        InvalidAutomorphism, match="^inverse_images does not kill the relator lifted at sheet 0$"
    ):
        SurfaceAutomorphism(2, ident, swap_a)


def test_automorphism_input_errors_name_the_field():
    ident = ((1,), (2,), (3,), (4,))
    cases = [
        ((2, ((1.0,), (2,), (3,), (4,)), ident), r"images\[0\]"),
        ((2, ((True,), (2,), (3,), (4,)), ident), r"images\[0\]"),
        ((2, ident, ((1,), (2,), (0,), (4,))), r"inverse_images\[2\]"),
        ((2, ((1,), (2,), (3,), (9,)), ident), r"images\[3\]"),
        ((2.0, ident, ident), r"genus"),
        ((True, ident, ident), r"genus"),
        ((2, 5, ident), r"images must be a sequence"),
        ((2, ident, None), r"inverse_images must be a sequence"),
        ((0, (), ()), r"^genus must be an integer at least 2, got 0$"),
        ((1, ((1,), (2,)), ((1,), (2,))), r"^genus must be an integer at least 2, got 1$"),
    ]
    for args, field in cases:
        with pytest.raises(InvalidAutomorphism, match=field):
            SurfaceAutomorphism(*args)


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
    (_automorphisms_at, 1, InvalidAutomorphism),
])
def test_genus_is_an_integer_at_least_2(build, genus, error):
    build(2)  # the cached builders must not answer a float or bool genus from the cache
    with pytest.raises(error, match=rf"^genus must be an integer at least 2, got {genus!r}$"):
        build(genus)


def test_substitution_respects_relator_on_shipped():
    relator = surface_relator(2)
    for aut in shipped_automorphisms(2):
        assert is_trivial(aut.apply(relator), 2)
        assert is_trivial(substitute(relator, aut.inverse_images), 2)
        for i in range(4):
            gen = (i + 1,)
            back = substitute(aut.apply(gen), aut.inverse_images)
            assert is_trivial(back + inverse_word(gen), 2)


def test_a_correct_table_that_is_not_tame_is_accepted():
    """a1 -> a1.R is the identity of the surface group, but its relator image
    is not freely conjugate to R^+-1, so a free-group check rejects it."""
    relator = surface_relator(2)
    ident = ((1,), (2,), (3,), (4,))
    aut = SurfaceAutomorphism(2, ((1,) + relator, (2,), (3,), (4,)), ident, "a1_times_R")
    assert aut.is_orientation_preserving()
    v = vaut_from_automorphism(aut)
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
    assert SurfaceAutomorphism(3, images, inverses).is_orientation_preserving()
    swap = ((3,), (4,), (1,), (2,), (5,), (6,))
    flip = ((2,), (1,), (4,), (3,), (6,), (5,))
    for table, inverse in (swap, swap), (flip, flip), _chain_map(conjugate_other_handles=False):
        with pytest.raises(
            InvalidAutomorphism, match="^images does not kill the relator lifted at sheet 0$"
        ):
            SurfaceAutomorphism(3, table, inverse)


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


def test_refinement_at_degree3_exceeds_any_desk_budget():
    # the diagonal orbit over all 235 coset spaces of degree <= 3 blows up:
    # with only a third of the degree-3 factors attached the orbit already
    # passes 900000 sheets, so the default budget cannot complete either.
    # A small explicit budget keeps the failure fast.
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
