import math
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
import sympy

from covertower.characteristic import mod2_homology_cover

from covertower.covers import (
    enumerate_covers,
    fiber_product,
    trivial_cover,
)
from covertower.errors import (
    BaseMismatch,
    ConeViolation,
    CovertowerError,
    DimensionMismatch,
    NegativeWeight,
    NonIntegerWeights,
    SearchBudgetExceeded,
    SwitchViolation,
)
from covertower.exact_linalg import mat_vec, rational_nullspace
from covertower.homology import surface_complex
from covertower.limits import base_class_element, homology_shadow, limit_equal, track_element
from covertower.surface import abelianized, inverse_word
from covertower.traintrack import (
    CarryingMatrix,
    LiftedTrack,
    Switch,
    TrainTrack,
    arrow_step_matrix,
    carrying_compose,
    lift_track,
    three_branch_example,
)
from conftest import double_cover_from_signs, identity_carrying


def extreme_rays(eq_matrix, n_vars: int, budget: int = 200_000):
    """Extreme rays of the cone {x >= 0 : eq_matrix @ x = 0}.

    Enumerates candidate supports in increasing size; a support carries a ray
    iff the restricted system has a one-dimensional nullspace spanned by a
    strictly positive vector.  Rays are returned as primitive integer vectors
    in lexicographic order.  Intended for small chart cones only.
    """
    rays = []
    supports: list[frozenset[int]] = []
    examined = 0
    max_size = sympy.Matrix(eq_matrix).rank() + 1 if eq_matrix else 1
    for size in range(1, min(n_vars, max_size) + 1):
        for combo in combinations(range(n_vars), size):
            examined += 1
            if examined > budget:
                raise SearchBudgetExceeded(
                    f"extreme ray search examined {examined} supports, budget {budget}"
                )
            if any(set(sup) <= set(combo) for sup in supports):
                continue
            sub = [[row[c] for c in combo] for row in eq_matrix]
            null = rational_nullspace(sub, len(combo))
            if len(null) != 1:
                continue
            vec = null[0]
            if all(x > 0 for x in vec) or all(x < 0 for x in vec):
                if vec[0] < 0:
                    vec = [-x for x in vec]
                denom_lcm = math.lcm(*(x.denominator for x in vec))
                ints = [int(x * denom_lcm) for x in vec]
                g = math.gcd(*ints)
                ints = [x // g for x in ints]
                full = [0] * n_vars
                for c, val in zip(combo, ints):
                    full[c] = val
                rays.append(full)
                supports.append(frozenset(combo))
    rays.sort()
    return rays


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


@pytest.mark.parametrize(
    "words, k",
    [
        (((0,), (1,), ()), 0),
        (((5,), (1,), ()), 0),
        (((1,), (-5,), ()), 1),
        (((1,), (1,), (1.0,)), 2),
        (((1,), (1,), (True,)), 2),
        (((1,), (1, "2"), ()), 1),
    ],
)
def test_track_rejects_bad_branch_letters(words, k):
    example = three_branch_example()
    with pytest.raises(CovertowerError, match=rf"branch_words\[{k}\]"):
        TrainTrack(genus=2, switches=example.switches, branch_words=words)


def test_track_branch_words_are_stored_as_tuples():
    example = three_branch_example()
    listed = TrainTrack(genus=2, switches=example.switches, branch_words=[[1], [1], []])
    assert listed.branch_words == ((1,), (1,), ())
    assert listed == example and hash(listed) == hash(example)
    # letter 4 is b2 at genus 2; the rejected letter 0 used to lift as b2 too
    ok = TrainTrack(genus=2, switches=example.switches, branch_words=((4,), (4,), ()))
    lifted, _ = lift_track(ok, double_cover_from_signs(2, (0, 0, 0, 1)))
    assert lifted.track.chart_dimension() == 3


EXAMPLE_WORDS = ((1,), (1,), ())


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda ex, cover: TrainTrack(2.5, ex.switches, EXAMPLE_WORDS), "genus"),
        (lambda ex, cover: TrainTrack(True, ex.switches, EXAMPLE_WORDS), "genus"),
        (lambda ex, cover: TrainTrack(1, ex.switches, EXAMPLE_WORDS), "genus"),
        (lambda ex, cover: TrainTrack(2, (5,), ()), "switches[0]"),
        (lambda ex, cover: TrainTrack(2, 5, ()), "switches"),
        (lambda ex, cover: TrainTrack(2, ex.switches, 5), "branch_words"),
        (lambda ex, cover: TrainTrack(2, ex.switches, (5, (1,), ())), "branch_words[0]"),
        (lambda ex, cover: lift_track("x", cover), "track"),
        (lambda ex, cover: lift_track(ex, "x"), "cover"),
        (lambda ex, cover: LiftedTrack(ex, cover).cycle_chain(None), "weights"),
        (lambda ex, cover: ex.validate_weights(None), "weights"),
    ],
    ids=[
        "genus-float", "genus-bool", "genus-1", "switch-int", "switches-int",
        "branch_words-int", "branch_word-int", "lift-str", "lift-cover-str", "cycle_chain-None",
        "validate_weights-None",
    ],
)
def test_track_inputs_are_named(make, field):
    example = three_branch_example()
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    with pytest.raises(CovertowerError, match=rf"^{re.escape(field)} "):
        make(example, cover)


def test_track_switches_are_stored_as_a_tuple():
    example = three_branch_example()
    listed = TrainTrack(2, list(example.switches), EXAMPLE_WORDS)
    assert listed.switches == example.switches
    assert listed == example and hash(listed) == hash(example)


@pytest.mark.parametrize(
    "switch",
    [
        Switch(([0, 0], (1, 0)), ((2, 0),)),
        Switch(((0, 0),), ((1, 0), [2, 0])),
        Switch(5, ((1, 0), (2, 0))),
        Switch(((0, 0),), None),
    ],
    ids=["unhashable-half-a", "unhashable-half-b", "side-int", "side-None"],
)
def test_track_rejects_malformed_switch_sides(switch):
    example = three_branch_example()
    switches = (switch, example.switches[1])
    with pytest.raises(DimensionMismatch, match=r"^switches\[0\] "):
        TrainTrack(2, switches, EXAMPLE_WORDS)


def test_track_switch_sides_are_stored_as_tuples():
    example = three_branch_example()
    listed = [Switch(list(sw.side_a), list(sw.side_b)) for sw in example.switches]
    track = TrainTrack(2, listed, EXAMPLE_WORDS)
    for sw in track.switches:
        assert type(sw.side_a) is tuple and type(sw.side_b) is tuple
    assert track == example and hash(track) == hash(example)


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


@pytest.mark.parametrize("weights", [[2, 1], [1] * 9])
def test_cycle_chain_rejects_the_wrong_length(weights):
    lifted, _ = lift_track(three_branch_example(), double_cover_from_signs(2, (1, 0, 0, 0)))
    assert len(lifted.branches) == 6
    with pytest.raises(DimensionMismatch, match=f"expected 6 weights, got {len(weights)}"):
        lifted.cycle_chain(weights)


def test_lift_rejects_wrong_base():
    track = three_branch_example()
    with pytest.raises(BaseMismatch):
        lift_track(track, trivial_cover(3))


def test_carrying_validation():
    track = three_branch_example()
    with pytest.raises(ConeViolation):
        CarryingMatrix(track, track, ((1, 0, 0), (0, 1, 0), (0, 0, 0)))
    with pytest.raises(ConeViolation):
        CarryingMatrix(track, track, ((1, 0, 0), (0, -1, 0), (0, 0, 1)))
    eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    CarryingMatrix(track, track, eye)
    with pytest.raises(DimensionMismatch):
        CarryingMatrix(track, track, ((1, 0), (0, 1), (0, 0)))


def test_carrying_matrix_is_stored_as_int_tuples():
    track = three_branch_example()
    eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    listed = CarryingMatrix(track, track, [[1, 0, 0], [0, 1.0, 0], [0, 0, Fraction(1)]])
    assert listed.matrix == eye
    assert all(type(x) is int for row in listed.matrix for x in row)
    assert listed == identity_carrying(track)
    assert hash(listed) == hash(identity_carrying(track))


@pytest.mark.parametrize(
    "matrix, error, where",
    [
        (((1, 0, 0), (0, True, 0), (0, 0, 1)), NonIntegerWeights, r"matrix\[1\]\[1\]"),
        (((1, 0, 0), (0, 1, 0), (0, 0, None)), NonIntegerWeights, r"matrix\[2\]\[2\]"),
        (((float("nan"), 0, 0), (0, 1, 0), (0, 0, 1)), NonIntegerWeights, r"matrix\[0\]\[0\]"),
        (((1, 0, 0), (0, 1, float("inf")), (0, 0, 1)), NonIntegerWeights, r"matrix\[1\]\[2\]"),
        (((1, 0, 0), (0, 1.5, 0), (0, 0, 1)), NonIntegerWeights, r"matrix\[1\]\[1\]"),
        (((1, 0, 0), (0, 1, 0), ("1", 0, 1)), NonIntegerWeights, r"matrix\[2\]\[0\]"),
        (5, DimensionMismatch, "matrix"),
        (((1, 0, 0), 7, (0, 0, 1)), DimensionMismatch, "matrix"),
        (((1, 0, 0), (0, 1, 0)), DimensionMismatch, "matrix"),
    ],
)
def test_carrying_matrix_rejects_bad_entries(matrix, error, where):
    track = three_branch_example()
    with pytest.raises(error, match=where):
        CarryingMatrix(track, track, matrix)


@pytest.mark.parametrize(
    "weights, where",
    [
        ((2, None, 1), r"weights\[1\]"),
        (("a", 1, 1), r"weights\[0\]"),
        ((2, 1, float("nan")), r"weights\[2\]"),
        ((2, True, 1), r"weights\[1\]"),
        (None, "weights"),
        (5, "weights"),
    ],
)
def test_weights_that_are_not_numbers_are_named(weights, where):
    track = three_branch_example()
    for check in (track.validate_weights, identity_carrying(track).apply):
        with pytest.raises(CovertowerError, match=where):
            check(weights)
    if isinstance(weights, tuple):
        with pytest.raises(CovertowerError, match=where):
            track_element(track, trivial_cover(2), weights)


def test_identity_carrying():
    track = three_branch_example()
    ident = identity_carrying(track)
    assert ident.apply((5, 2, 3)) == [5, 2, 3]


def test_apply_validates_source_weights():
    # mat_vec zips, so a short weight vector used to be truncated silently
    _, matrix = lift_track(three_branch_example(), double_cover_from_signs(2, (1, 0, 0, 0)))
    assert matrix.apply((2, 1, 1)) == [2, 2, 1, 1, 1, 1]
    assert matrix.apply(iter((2, 1, 1))) == [2, 2, 1, 1, 1, 1]  # validated and applied once
    with pytest.raises(DimensionMismatch):
        matrix.apply((2, 1))
    with pytest.raises(DimensionMismatch):
        matrix.apply((2, 1, 1, 0))
    with pytest.raises(NegativeWeight):
        matrix.apply((0, 1, -1))
    with pytest.raises(SwitchViolation):
        matrix.apply((1, 1, 1))


# -- the cone check against the extreme-ray oracle


def _ray_check_accepts(target, matrix, rays) -> bool:
    """True iff every extreme ray of the source maps into the target cone."""
    rows = target.switch_matrix()
    return all(not any(mat_vec(rows, mat_vec(matrix, ray))) for ray in rays)


def _cone_check_accepts(source, target, matrix) -> bool:
    try:
        CarryingMatrix(source, target, matrix)
    except ConeViolation:
        return False
    return True


def _ray_support(rays) -> frozenset[int]:
    return frozenset(b for ray in rays for b, x in enumerate(ray) if x)


def _bumped(rng, matrix):
    """matrix with one seeded entry raised by one."""
    rows = [list(row) for row in matrix]
    rows[rng.randrange(len(rows))][rng.randrange(len(rows[0]))] += 1
    return tuple(tuple(row) for row in rows)


def test_cone_check_agrees_with_rays_on_arrow_steps():
    track = three_branch_example()
    rng = random.Random(29)
    low = [c for d in (1, 2) for c in enumerate_covers(2, d)]
    partners = low + rng.sample(enumerate_covers(2, 3), 40)
    outcomes = []
    for a in low:
        lifted, _ = lift_track(track, a)
        source = lifted.track
        rays = extreme_rays(source.switch_matrix(), source.n_branches)
        assert source.carried_branches() == _ray_support(rays)
        for b in partners:
            step = arrow_step_matrix(lifted, fiber_product(a, b).to_first)
            assert step.source == source
            for matrix in (step.matrix, _bumped(rng, step.matrix)):
                want = _ray_check_accepts(step.target, matrix, rays)
                assert _cone_check_accepts(source, step.target, matrix) == want
                outcomes.append(want)
    # every unperturbed step is accepted, and some perturbations are rejected
    assert all(outcomes[::2]) and not all(outcomes[1::2])


def _random_track(rng, genus=2) -> TrainTrack:
    """A small random track; its cone is often not of full support."""
    n = rng.randint(1, 5)
    halves = [(b, end) for b in range(n) for end in (0, 1)]
    rng.shuffle(halves)
    sides = [[] for _ in range(2 * rng.randint(1, 3))]
    for half in halves:
        rng.choice(sides).append(half)
    switches = tuple(
        Switch(tuple(sides[k]), tuple(sides[k + 1])) for k in range(0, len(sides), 2)
    )
    words = tuple(() for _ in range(n))
    return TrainTrack(genus=genus, switches=switches, branch_words=words)


def _random_matrix(rng, source, target, rays):
    n, m = source.n_branches, target.n_branches
    kind = rng.randrange(3)
    if kind == 0 and source == target:
        # identity plus noise on branches that no weight can use: accepted
        idle = [b for b in range(n) if b not in _ray_support(rays)]
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for j in idle:
            rows[rng.randrange(n)][j] += rng.randint(1, 2)
        return tuple(tuple(row) for row in rows)
    density = rng.choice((0.0, 0.2, 0.5))
    return tuple(tuple(int(rng.random() < density) for _ in range(n)) for _ in range(m))


def test_cone_check_agrees_with_rays_on_random_tracks():
    rng = random.Random(31)
    outcomes = set()
    non_recurrent = 0
    for _ in range(300):
        source = _random_track(rng)
        rays = extreme_rays(source.switch_matrix(), source.n_branches)
        support = _ray_support(rays)
        assert source.carried_branches() == support
        non_recurrent += len(support) < source.n_branches
        for target in (source, _random_track(rng)):
            matrix = _random_matrix(rng, source, target, rays)
            want = _ray_check_accepts(target, matrix, rays)
            assert _cone_check_accepts(source, target, matrix) == want
            outcomes.add((want, len(support) < source.n_branches))
    assert non_recurrent > 50
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_cone_check_on_a_source_whose_cone_does_not_span_ker_s():
    # branches 3 and 4 have all four ends on side a of switch 0, so the
    # switch conditions force w3 + w4 = 0 and no weight can use them
    s0 = Switch(side_a=((0, 0), (3, 0), (3, 1), (4, 0), (4, 1)), side_b=((1, 0), (2, 0)))
    s1 = Switch(side_a=((0, 1),), side_b=((1, 1), (2, 1)))
    source = TrainTrack(genus=2, switches=(s0, s1), branch_words=((1,), (1,), (), (), ()))
    target = three_branch_example()
    assert source.carried_branches() == {0, 1, 2}
    rays = extreme_rays(source.switch_matrix(), source.n_branches)
    assert rays == [[1, 0, 1, 0, 0], [1, 1, 0, 0, 0]]
    matrix = ((1, 0, 0, 1, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0))
    assert _ray_check_accepts(target, matrix, rays)
    CarryingMatrix(source, target, matrix)
    # a check on all of ker S would reject it: (0, 0, 0, 1, -1) lies there
    kernel_image = mat_vec(matrix, [0, 0, 0, 1, -1])
    assert any(mat_vec(target.switch_matrix(), kernel_image))
    with pytest.raises(ConeViolation):
        CarryingMatrix(source, target, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 1, 1, 0, 0)))


def test_arrow_step_out_of_the_degree16_lift():
    # the ray search exceeded its budget on this 48-branch source
    track = three_branch_example()
    mod2 = mod2_homology_cover(2)
    fp = fiber_product(mod2, enumerate_covers(2, 3)[5])
    lifted, base_to_mod2 = lift_track(track, mod2)
    step = arrow_step_matrix(lifted, fp.to_first)
    composed = carrying_compose(base_to_mod2, step)
    _, direct = lift_track(track, fp.cover)
    assert (step.source.n_branches, step.target.n_branches) == (48, 144)
    assert composed.matrix == direct.matrix
    assert composed.source == direct.source
    assert composed.target == direct.target


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
    assert composed.source == direct.source
    assert composed.target == direct.target


def test_carrying_compose_rejects_mismatch():
    track = three_branch_example()
    a = double_cover_from_signs(2, (1, 0, 0, 0))
    _, base_to_a = lift_track(track, a)
    with pytest.raises(DimensionMismatch):
        carrying_compose(base_to_a, identity_carrying(track))


def test_carrying_compose_through_a_track_with_no_branches():
    track = three_branch_example()
    empty = TrainTrack(genus=2, switches=(), branch_words=())
    to_empty = CarryingMatrix(track, empty, ())
    from_empty = CarryingMatrix(empty, track, ((), (), ()))
    zero = carrying_compose(to_empty, from_empty)
    assert zero.matrix == ((0, 0, 0),) * 3
    assert public_carrying(zero) == zero
    assert carrying_compose(from_empty, to_empty).matrix == ()


def test_arrow_step_requires_matching_cover():
    track = three_branch_example()
    a = double_cover_from_signs(2, (1, 0, 0, 0))
    b = double_cover_from_signs(2, (0, 1, 0, 0))
    lifted_a, _ = lift_track(track, a)
    fp = fiber_product(b, b)
    with pytest.raises(BaseMismatch):
        arrow_step_matrix(lifted_a, fp.to_first)


# -- package-built carrying matrices against the public constructor
#
# lift_track, arrow_step_matrix, identity_carrying and carrying_compose skip
# the cone check.  These oracles rebuild what they make through the public
# constructor, whose cone check the extreme-ray tests above keep honest.


def public_carrying(m) -> CarryingMatrix:
    return CarryingMatrix(m.source, m.target, m.matrix)


def test_lifts_pass_the_public_constructor():
    track = three_branch_example()
    covers = [c for d in (1, 2, 3) for c in enumerate_covers(2, d)]
    for cover in covers + [mod2_homology_cover(2)]:
        lifted, matrix = lift_track(track, cover)
        assert public_carrying(matrix) == matrix
        assert public_carrying(identity_carrying(lifted.track)) == identity_carrying(lifted.track)
    assert public_carrying(identity_carrying(track)) == identity_carrying(track)


def test_arrow_steps_and_composites_pass_the_public_constructor():
    track = three_branch_example()
    rng = random.Random(37)
    low = [c for d in (1, 2) for c in enumerate_covers(2, d)]
    pairs = [(a, rng.choice(enumerate_covers(2, 3))) for a in low]
    pairs.append((mod2_homology_cover(2), enumerate_covers(2, 3)[5]))
    for a, b in pairs:
        lifted, base_to_a = lift_track(track, a)
        step = arrow_step_matrix(lifted, fiber_product(a, b).to_first)
        composed = carrying_compose(base_to_a, step)
        assert public_carrying(step) == step
        assert public_carrying(composed) == composed
        assert composed == lift_track(track, fiber_product(a, b).cover)[1]


def test_carrying_builders_skip_the_cone_check(monkeypatch):
    calls = []
    checks = CarryingMatrix.__post_init__

    def post_init(self):
        calls.append(self)
        checks(self)

    monkeypatch.setattr(CarryingMatrix, "__post_init__", post_init)
    track = three_branch_example()
    public_carrying(identity_carrying(track))
    assert len(calls) == 1  # the counter sees the public constructor
    calls.clear()
    covers = [c for d in (1, 2, 3) for c in enumerate_covers(2, d)]
    for k, cover in enumerate(covers + [mod2_homology_cover(2)]):
        lifted, base_to_cover = lift_track(track, cover)
        identity_carrying(lifted.track)
        fp = fiber_product(cover, covers[k % 16])
        step = arrow_step_matrix(lifted, fp.to_first)
        carrying_compose(base_to_cover, step)
    assert calls == []


# -- the lifted track against the inverse-word rule
#
# LiftedTrack.track reads one sheet permutation per branch word and skips the
# TrainTrack checks.  The oracle walks the inverse branch word from each
# lifted switch, sheet by sheet, and rebuilds each lift through the public
# constructor.


def inverse_word_switches(lifted: LiftedTrack) -> tuple[Switch, ...]:
    """Lifted switch (k, s): an end-1 half-branch (b, 1) goes to the lift of b
    that starts where the inverse of b's word sends s."""
    cover, words, d = lifted.cover, lifted.base.branch_words, lifted.cover.degree

    def side(halves, s):
        return tuple(
            (b * d + (cover.act(inverse_word(words[b]), s) if end else s), end)
            for b, end in halves
        )

    return tuple(
        Switch(side(sw.side_a, s), side(sw.side_b, s))
        for sw in lifted.base.switches
        for s in range(d)
    )


def test_lift_matches_the_inverse_word_rule(monkeypatch):
    wordy = TrainTrack(
        genus=2,
        switches=(
            Switch(side_a=((0, 0),), side_b=((1, 0), (2, 0))),
            Switch(side_a=((0, 1), (3, 0)), side_b=((1, 1), (2, 1), (3, 1))),
        ),
        branch_words=((1, 2, -1), (-3, 4), (), (2,)),
    )
    covers = [c for d in (1, 2, 3) for c in enumerate_covers(2, d)] + [mod2_homology_cover(2)]
    cases = [(track, cover) for track in (three_branch_example(), wordy) for cover in covers]
    calls = []
    checks = TrainTrack.__post_init__

    def post_init(self):
        calls.append(self)
        checks(self)

    monkeypatch.setattr(TrainTrack, "__post_init__", post_init)
    lifts = [lift_track(track, cover)[0] for track, cover in cases]
    assert calls == [] and len(lifts) == 2 * 237
    for lifted in lifts:
        track, d = lifted.track, lifted.cover.degree
        assert track.switches == inverse_word_switches(lifted)
        assert track.branch_words == tuple(w for w in lifted.base.branch_words for _ in range(d))
        assert TrainTrack(track.genus, track.switches, track.branch_words) == track
    assert len(calls) == len(lifts)  # the counter sees the public constructor
