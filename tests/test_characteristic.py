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
    double_cover_from_signs,
    enumerate_covers,
    factors_through,
    trivial_cover,
)
from covertower.errors import CovertowerError, InvalidAutomorphism, SearchBudgetExceeded
from covertower.surface import abelianized, free_reduce, substitute


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
            assert free_reduce(aut.apply_inverse(aut.apply(w))) == free_reduce(w)
            assert free_reduce(aut.apply(aut.apply_inverse(w))) == free_reduce(w)


def test_automorphism_validation():
    ident = ((1,), (2,), (3,), (4,))
    with pytest.raises(InvalidAutomorphism):
        SurfaceAutomorphism(2, ((1,), (2,), (3,)), ident)
    with pytest.raises(InvalidAutomorphism):
        # claimed inverse does not undo the twist
        SurfaceAutomorphism(2, ((1, 2), (2,), (3,), (4,)), ident)
    with pytest.raises(InvalidAutomorphism):
        # swapping a single pair of handles' a-curves breaks the relator
        swap_a = ((3,), (2,), (1,), (4,))
        SurfaceAutomorphism(2, swap_a, swap_a)


def test_substitution_respects_relator_on_shipped():
    from covertower.surface import are_conjugate, inverse_word, surface_relator

    relator = surface_relator(2)
    for aut in shipped_automorphisms(2):
        image = substitute(relator, aut.images)
        assert are_conjugate(image, relator) or are_conjugate(
            image, inverse_word(relator)
        )


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
