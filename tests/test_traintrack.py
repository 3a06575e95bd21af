from fractions import Fraction

import pytest
import sympy

from covertower.covers import (
    double_cover_from_signs,
    enumerate_covers,
    fiber_product,
    trivial_cover,
)
from covertower.errors import (
    BaseMismatch,
    ConeViolation,
    DimensionMismatch,
    NegativeWeight,
    NonIntegerWeights,
    SwitchViolation,
)
from covertower.exact_linalg import extreme_rays
from covertower.homology import surface_complex
from covertower.limits import base_class_element, homology_shadow, limit_equal, track_element
from covertower.surface import abelianized
from covertower.traintrack import (
    CarryingMatrix,
    Switch,
    TrainTrack,
    arrow_step_matrix,
    carrying_compose,
    identity_carrying,
    lift_track,
    three_branch_example,
)


def test_example_track_shape():
    track = three_branch_example()
    assert track.n_branches == 3
    assert track.switch_matrix() == [[1, -1, -1], [1, -1, -1]]
    assert track.chart_dimension() == 2
    track.validate_weights((2, 1, 1))
    track.validate_weights((Fraction(3, 2), Fraction(1, 2), 1))


def test_track_construction_rejects_bad_gluing():
    s0 = Switch(side_a=((0, 0), (0, 0)), side_b=((1, 0),))
    with pytest.raises(DimensionMismatch):
        TrainTrack(genus=2, switches=(s0,), branch_words=((1,), (2,)))
    s1 = Switch(side_a=((0, 0),), side_b=((0, 1),))
    with pytest.raises(DimensionMismatch):
        TrainTrack(genus=2, switches=(s1,), branch_words=((1,), (2,)))


def test_weight_validation_errors():
    track = three_branch_example()
    with pytest.raises(DimensionMismatch):
        track.validate_weights((1, 1))
    with pytest.raises(NegativeWeight):
        track.validate_weights((1, 2, -1))
    with pytest.raises(SwitchViolation):
        track.validate_weights((1, 1, 1))


def test_chart_dimension_matches_sympy():
    track = three_branch_example()
    assert track.chart_dimension() == 3 - sympy.Matrix(track.switch_matrix()).rank()
    for cover in enumerate_covers(2, 2)[:5]:
        lifted, _ = lift_track(track, cover)
        sm = lifted.track.switch_matrix()
        assert lifted.track.chart_dimension() == len(sm[0]) - sympy.Matrix(sm).rank()


def test_cone_rays_of_example():
    track = three_branch_example()
    rays = sorted(tuple(r) for r in extreme_rays(track.switch_matrix(), track.n_branches))
    assert rays == [(1, 0, 1), (1, 1, 0)]


def homology_class(track, weights):
    """Weighted sum of branch word classes; weights must be integers."""
    out = [0] * (2 * track.genus)
    for b, w in enumerate(weights):
        w = Fraction(w)
        if w.denominator != 1:
            raise NonIntegerWeights(f"branch {b} weight {w} is not an integer")
        vec = abelianized(track.branch_words[b], track.genus)
        out = [x + int(w) * y for x, y in zip(out, vec)]
    return tuple(out)


def test_homology_class():
    track = three_branch_example()
    assert homology_class(track, (2, 1, 1)) == (3, 0, 0, 0)
    with pytest.raises(NonIntegerWeights):
        homology_class(track, (Fraction(1, 2), Fraction(1, 2), 0))
    # the library's shadow of a weighted track carries the same class
    shadow = homology_shadow(track_element(track, trivial_cover(2), (2, 1, 1)))
    assert limit_equal(shadow, base_class_element(2, (3, 0, 0, 0)))
    with pytest.raises(NonIntegerWeights):
        homology_shadow(track_element(track, trivial_cover(2), (Fraction(1, 2), Fraction(1, 2), 0)))


def test_lift_through_first_handle_swap():
    track = three_branch_example()
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    lifted, matrix = lift_track(track, cover)
    assert len(lifted.branches) == 6
    assert lifted.track.chart_dimension() == 3
    cols = [sum(row[j] for row in matrix.matrix) for j in range(3)]
    assert cols == [2, 2, 2]
    assert all(x in (0, 1) for row in matrix.matrix for x in row)
    up = matrix.apply((2, 1, 1))
    lifted.track.validate_weights(up)


def test_lift_where_track_words_act_trivially():
    # the track only uses the a1 loop; a cover trivial on a1 pulls it back to
    # two disjoint copies, doubling the chart dimension
    track = three_branch_example()
    cover = double_cover_from_signs(2, (0, 0, 0, 1))
    lifted, _ = lift_track(track, cover)
    assert lifted.track.chart_dimension() == 4


def test_lift_matrix_shape_all_degree2():
    track = three_branch_example()
    for cover in enumerate_covers(2, 2):
        lifted, matrix = lift_track(track, cover)
        for j in range(track.n_branches):
            assert sum(row[j] for row in matrix.matrix) == cover.degree
        up = matrix.apply((2, 1, 1))
        lifted.track.validate_weights(up)
        assert all(w == int(w) for w in up)


def test_lifted_cycle_chain_matches_transfer():
    track = three_branch_example()
    weights = (2, 1, 1)
    for cover in enumerate_covers(2, 2)[:8]:
        lifted, matrix = lift_track(track, cover)
        cx = surface_complex(cover)
        chain = lifted.cycle_chain(matrix.apply(weights))
        assert cx.is_cycle(chain)
        via_transfer = cx.transfer(homology_class(track, weights))
        assert list(cx.class_coordinates(chain)) == list(
            cx.class_coordinates(via_transfer)
        )


def test_cycle_chain_rejects_fractions():
    track = three_branch_example()
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    lifted, _ = lift_track(track, cover)
    with pytest.raises(NonIntegerWeights):
        lifted.cycle_chain([Fraction(1, 2)] * 6)


def test_lift_rejects_wrong_base():
    track = three_branch_example()
    with pytest.raises(BaseMismatch):
        lift_track(track, trivial_cover(3))


def test_carrying_validation():
    track = three_branch_example()
    sm = tuple(tuple(r) for r in track.switch_matrix())
    with pytest.raises(ConeViolation):
        CarryingMatrix(sm, sm, ((1, 0, 0), (0, 1, 0), (0, 0, 0)))
    with pytest.raises(ConeViolation):
        CarryingMatrix(sm, sm, ((1, 0, 0), (0, -1, 0), (0, 0, 1)))
    eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    CarryingMatrix(sm, sm, eye)
    with pytest.raises(DimensionMismatch):
        CarryingMatrix(sm, sm, ((1, 0), (0, 1), (0, 0)))


def test_identity_carrying():
    track = three_branch_example()
    ident = identity_carrying(track)
    assert ident.apply((5, 2, 3)) == [5, 2, 3]


def test_lifting_commutes_with_cover_composition():
    track = three_branch_example()
    a = double_cover_from_signs(2, (1, 0, 0, 0))
    b = double_cover_from_signs(2, (0, 0, 1, 0))
    fp = fiber_product(a, b)
    lifted_a, base_to_a = lift_track(track, a)
    step = arrow_step_matrix(lifted_a, fp.to_first)
    composed = carrying_compose(base_to_a, step)
    _, direct = lift_track(track, fp.cover)
    assert composed.matrix == direct.matrix
    assert composed.source_matrix == direct.source_matrix
    assert composed.target_matrix == direct.target_matrix


def test_carrying_compose_rejects_mismatch():
    track = three_branch_example()
    a = double_cover_from_signs(2, (1, 0, 0, 0))
    _, base_to_a = lift_track(track, a)
    with pytest.raises(DimensionMismatch):
        carrying_compose(base_to_a, identity_carrying(track))


def test_arrow_step_requires_matching_cover():
    track = three_branch_example()
    a = double_cover_from_signs(2, (1, 0, 0, 0))
    b = double_cover_from_signs(2, (0, 1, 0, 0))
    lifted_a, _ = lift_track(track, a)
    fp = fiber_product(b, b)
    with pytest.raises(BaseMismatch):
        arrow_step_matrix(lifted_a, fp.to_first)
