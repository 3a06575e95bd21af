import itertools
import random
from fractions import Fraction

import pytest

from covertower.characteristic import shipped_automorphisms
from covertower.covers import (
    CoverArrow,
    SurfaceCover,
    arrow_to_trivial,
    enumerate_covers,
    factors_through,
    fiber_product,
    pull_back,
    trivial_cover,
)
from covertower.errors import (
    BaseMismatch,
    IncompatibleTower,
    KindMismatch,
    NonIntegerWeights,
    SwitchViolation,
)
from covertower.homology import surface_complex
from covertower.limits import (
    LimitElement,
    base_class_element,
    common_refinement,
    cycle_element,
    homology_shadow,
    lift_element,
    limit_equal,
    normalized_pairing,
    pairing_table,
    track_element,
)
from covertower.traintrack import (
    LiftedTrack,
    TrainTrack,
    arrow_step_matrix,
    lift_track,
    three_branch_example,
)
from covertower.vauts import restrict_vaut, vaut_act
from conftest import double_cover_from_signs
from test_homology import random_loop_cycle, strand_intersection
from test_traintrack import homology_class


def transfer_element(cover, class_vector):
    return cycle_element(cover, surface_complex(cover).transfer(class_vector))


def test_constructors_and_validation():
    e = base_class_element(2, (1, 0, 0, 0))
    assert e.kind == "cycle"
    assert e.cover.degree == 1
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    with pytest.raises(KindMismatch):
        cycle_element(cover, (1,) * 4)  # wrong length
    open_path = cover.chain([((1,), 0, 1)])
    with pytest.raises(KindMismatch):
        cycle_element(cover, open_path)
    with pytest.raises(SwitchViolation):
        track_element(three_branch_example(), trivial_cover(2), (1, 1, 1))


@pytest.mark.parametrize(
    "vector, k",
    [((1.5, 0, 0, 0.7), 0), ((True, 2, 0, 0), 0), ((1, "2", 0, 0), 1), ((0, 0, 0, None), 3)],
)
def test_cycle_payloads_are_read_as_integers_only(vector, k):
    with pytest.raises(NonIntegerWeights, match=rf"payload\[{k}\]"):
        base_class_element(2, vector)
    with pytest.raises(NonIntegerWeights, match=rf"payload\[{k}\]"):
        cycle_element(trivial_cover(2), vector)


@pytest.mark.parametrize("kind, payload", [
    ("cycle", 5),
    ("track", 5),
    ("track", (1, 2, 3)),
    ("track", (5, (1, 1, 1))),
])
def test_payloads_of_the_wrong_shape_are_named(kind, payload):
    with pytest.raises(KindMismatch, match="payload"):
        LimitElement(kind, trivial_cover(2), payload)


def test_cycle_payloads_take_integral_numbers_as_integers():
    e = cycle_element(trivial_cover(2), (Fraction(2), 2.0, 0, -1))
    assert e.payload == (2, 2, 0, -1)
    assert all(type(c) is int for c in e.payload)


def old_transfer_along_arrow(arrow, chain):
    """The chain gather of the removed transfer_along_arrow, before it moved
    into pull_back."""
    d = arrow.target.degree
    return [chain[i + t] for i in range(0, len(chain), d) for t in arrow.sheet_map]


def old_branches_under(lifted, arrow):
    """The removed LiftedTrack.branches_under: the branch of the lift under
    each branch of the lift to arrow.source."""
    d = lifted.cover.degree
    return [b * d + t for b in range(lifted.base.n_branches) for t in arrow.sheet_map]


def test_pull_back_matches_the_per_entry_gathers():
    rng = random.Random(41)
    covers = [c for d in (1, 2, 3) for c in enumerate_covers(2, d)]
    track = three_branch_example()
    for _ in range(40):
        fp = fiber_product(rng.choice(covers), rng.choice(covers))
        for arrow in (fp.to_first, fp.to_second):
            n = len(arrow.target.perms) * arrow.target.degree
            chain = [rng.randint(-5, 5) for _ in range(n)]
            assert pull_back(arrow, chain) == old_transfer_along_arrow(arrow, chain)
            lifted = LiftedTrack(track, arrow.target)
            under = old_branches_under(lifted, arrow)
            assert pull_back(arrow, range(len(lifted.branches))) == under
            rows = arrow_step_matrix(lifted, arrow).matrix
            assert [row.index(1) for row in rows] == under
            weights = [Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in lifted.branches]
            assert pull_back(arrow, weights) == [weights[k] for k in under]


def test_lift_element_is_transfer():
    v = (0, 1, 0, 0)
    base = base_class_element(2, v)
    for cover in enumerate_covers(2, 2)[:6]:
        arrow = factors_through(cover, trivial_cover(2))
        lifted = lift_element(base, arrow)
        assert lifted.payload == tuple(surface_complex(cover).transfer(v))


def test_lift_element_arrow_mismatch():
    base = base_class_element(2, (1, 0, 0, 0))
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    arrow = factors_through(cover, trivial_cover(2))
    with pytest.raises(IncompatibleTower):
        lift_element(transfer_element(cover, (1, 0, 0, 0)), arrow)


def test_defining_relation_base_equals_transfer():
    for v in ((1, 0, 0, 0), (0, 0, 1, -2)):
        base = base_class_element(2, v)
        for cover in enumerate_covers(2, 2):
            assert limit_equal(base, transfer_element(cover, v))
        for cover in enumerate_covers(2, 3)[:10]:
            assert limit_equal(base, transfer_element(cover, v))


def test_limit_equality_is_an_equivalence_exhaustively():
    # all representatives of a fixed base class over degree <= 2 covers,
    # plus the base representative itself
    covers = [trivial_cover(2)] + list(enumerate_covers(2, 2))
    vectors = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, -1, 2, 0)]
    pools = {
        v: [transfer_element(cover, v) for cover in covers] for v in vectors
    }
    for v, pool in pools.items():
        for e1, e2 in itertools.combinations(pool, 2):
            assert limit_equal(e1, e1)
            assert limit_equal(e1, e2)
            assert limit_equal(e2, e1)
    # distinct classes stay distinct at every level
    rng = random.Random(9)
    for v1, v2 in itertools.combinations(vectors, 2):
        for _ in range(4):
            e1 = rng.choice(pools[v1])
            e2 = rng.choice(pools[v2])
            assert not limit_equal(e1, e2)


def test_single_lift_differs_from_the_transfer():
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    cx = surface_complex(cover)
    one_lift = cycle_element(cover, cover.chain([((2,), 0, 1)]))
    assert not limit_equal(one_lift, base_class_element(2, (0, 1, 0, 0)))


def test_limit_equal_base_mismatch():
    with pytest.raises(BaseMismatch):
        limit_equal(base_class_element(2, (1, 0, 0, 0)), base_class_element(3, (1,) + (0,) * 5))
    with pytest.raises(KindMismatch):
        limit_equal(
            base_class_element(2, (1, 0, 0, 0)),
            track_element(three_branch_example(), trivial_cover(2), (2, 1, 1)),
        )


def test_normalized_pairing_base_values():
    u = base_class_element(2, (1, 0, 0, 0))
    v = base_class_element(2, (0, 1, 0, 0))
    w = base_class_element(2, (0, 0, 1, 0))
    assert normalized_pairing(u, v) == Fraction(1)
    assert normalized_pairing(v, u) == Fraction(-1)
    assert normalized_pairing(u, w) == Fraction(0)
    assert normalized_pairing(u, u) == Fraction(0)


def test_normalized_pairing_is_level_independent():
    u = (1, 0, 0, 0)
    v = (0, 1, 0, 0)
    base_val = normalized_pairing(base_class_element(2, u), base_class_element(2, v))
    covers = enumerate_covers(2, 2)
    rng = random.Random(21)
    for _ in range(8):
        a = rng.choice(covers)
        b = rng.choice(covers)
        val = normalized_pairing(transfer_element(a, u), transfer_element(b, v))
        assert val == base_val == Fraction(1)
        assert isinstance(val, Fraction)
    mixed = normalized_pairing(base_class_element(2, u), transfer_element(covers[3], v))
    assert mixed == base_val


def test_normalized_pairing_bilinear_scaling():
    u = base_class_element(2, (2, 0, 0, 0))
    v = base_class_element(2, (0, 3, 0, 0))
    assert normalized_pairing(u, v) == Fraction(6)


def test_normalized_pairing_errors():
    track = track_element(three_branch_example(), trivial_cover(2), (2, 1, 1))
    with pytest.raises(KindMismatch):
        normalized_pairing(track, track)
    with pytest.raises(IncompatibleTower):
        normalized_pairing(
            base_class_element(2, (1, 0, 0, 0)), base_class_element(3, (1,) + (0,) * 5)
        )


def test_track_elements_compare_by_weights():
    track = three_branch_example()
    base = track_element(track, trivial_cover(2), (2, 1, 1))
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    arrow = factors_through(cover, trivial_cover(2))
    lifted = lift_element(base, arrow)
    assert lifted.cover == cover
    assert limit_equal(base, lifted)
    assert limit_equal(lifted, base)
    other = track_element(track, trivial_cover(2), (3, 2, 1))
    assert not limit_equal(base, other)


def test_track_elements_need_a_common_base_track():
    track = three_branch_example()
    other = three_branch_example()
    # equal tracks compare fine even as distinct objects
    assert limit_equal(
        track_element(track, trivial_cover(2), (2, 1, 1)),
        track_element(other, trivial_cover(2), (2, 1, 1)),
    )
    from covertower.traintrack import Switch, TrainTrack

    s0 = Switch(side_a=((0, 0),), side_b=((0, 1),))
    loop = TrainTrack(genus=2, switches=(s0,), branch_words=((1,),))
    with pytest.raises(IncompatibleTower):
        limit_equal(
            track_element(track, trivial_cover(2), (2, 1, 1)),
            track_element(loop, trivial_cover(2), (1,)),
        )


def test_homology_shadow():
    track = three_branch_example()
    weights = (2, 1, 1)
    base = track_element(track, trivial_cover(2), weights)
    shadow = homology_shadow(base)
    assert shadow.kind == "cycle"
    assert limit_equal(shadow, base_class_element(2, homology_class(track, weights)))
    cover = double_cover_from_signs(2, (0, 1, 1, 0))
    _, matrix = lift_track(track, cover)
    up = track_element(track, cover, matrix.apply(weights))
    up_shadow = homology_shadow(up)
    assert limit_equal(up_shadow, shadow)


def test_homology_shadow_errors():
    track = three_branch_example()
    frac = track_element(
        track, trivial_cover(2), (Fraction(3, 2), Fraction(1, 2), 1)
    )
    with pytest.raises(NonIntegerWeights):
        homology_shadow(frac)
    with pytest.raises(KindMismatch):
        homology_shadow(base_class_element(2, (1, 0, 0, 0)))


def _random_cycles(cover, rng, count):
    cx = surface_complex(cover)
    return [cycle_element(cover, random_loop_cycle(cx, rng)) for _ in range(count)]


def _oracle_pairing(e1, e2):
    """The pairing on the fiber product, counted strand by strand."""
    fp = fiber_product(e1.cover, e2.cover)
    cx = surface_complex(fp.cover)
    lift1 = pull_back(fp.to_first, e1.payload)
    lift2 = pull_back(fp.to_second, e2.payload)
    return Fraction(strand_intersection(cx, lift1, lift2), fp.cover.total_genus - 1)


def test_pairing_table_matches_strand_oracle():
    rng = random.Random(71)
    covers = list(enumerate_covers(2, 2)) + rng.sample(enumerate_covers(2, 3), 12)
    base = [base_class_element(2, [rng.randint(-2, 2) for _ in range(4)]) for _ in range(3)]
    entries = nonzero = 0
    for k, cover in enumerate(covers):
        other = covers[(k + 5) % len(covers)]
        mixed = _random_cycles(cover, rng, 2) + _random_cycles(other, rng, 2)
        cases = (
            (_random_cycles(cover, rng, 3), _random_cycles(cover, rng, 3)),  # same cover
            (base, _random_cycles(cover, rng, 3)),  # base x cover
            (_random_cycles(cover, rng, 2), _random_cycles(other, rng, 3)),  # distinct covers
            (mixed, mixed[::-1] + base),  # several covers on each side
        )
        for rows, cols in cases:
            table = pairing_table(rows, cols)
            assert len(table) == len(rows)
            for row, out in zip(rows, table):
                assert len(out) == len(cols)
                for col, value in zip(cols, out):
                    assert value == _oracle_pairing(row, col)
                    assert value == normalized_pairing(row, col)
                    entries += 1
                    nonzero += value != 0
    assert entries > 1000
    assert nonzero > entries // 4


def test_pairing_table_checks_every_element():
    u = base_class_element(2, (1, 0, 0, 0))
    track = track_element(three_branch_example(), trivial_cover(2), (2, 1, 1))
    with pytest.raises(KindMismatch):
        pairing_table((u, u), (u, track))
    with pytest.raises(IncompatibleTower):
        pairing_table((u,), (u, base_class_element(3, (1,) + (0,) * 5)))
    assert pairing_table((), (u,)) == []
    assert pairing_table((u,), ()) == [[]]


def test_trusted_products_pass_the_public_checks():
    # lift_element and vaut_act build their results without the public
    # checks; rebuilding each one through LimitElement must succeed and
    # give the same element, payload types included.
    rng = random.Random(13)
    covers = list(enumerate_covers(2, 2)) + rng.sample(enumerate_covers(2, 3), 10)
    base, track = trivial_cover(2), three_branch_example()
    products = []
    for cover in covers:
        down = factors_through(cover, base)
        fp = fiber_product(cover, rng.choice(covers))
        vector = [rng.randint(-2, 2) for _ in range(4)]
        cycle = cycle_element(cover, random_loop_cycle(surface_complex(cover), rng))
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        weights = (Fraction(a + b, 2), Fraction(a, 2), Fraction(b, 2))
        lifted_track = lift_element(track_element(track, base, weights), down)
        products += [
            lift_element(base_class_element(2, vector), down),
            lift_element(cycle, fp.to_first),
            lifted_track,
            lift_element(lifted_track, fp.to_first),
        ]
    vauts = list(shipped_automorphisms(2))
    vauts.append(restrict_vaut(vauts[-1], covers[3]))
    for vaut in vauts:
        for cover in rng.sample(covers, 4) + [base]:
            cycle = random_loop_cycle(surface_complex(cover), rng)
            products.append(vaut_act(vaut, cycle_element(cover, cycle)))
    assert {p.kind for p in products} == {"cycle", "track"}
    for product in products:
        rebuilt = LimitElement(product.kind, product.cover, product.payload)
        assert rebuilt == product
        assert repr(rebuilt) == repr(product)


def _fiber_product_table(rows, cols):
    """pairing_table by definition: every pair of elements on their fiber product."""
    table = []
    for row in rows:
        out = []
        for col in cols:
            fp = fiber_product(row.cover, col.cover)
            a = lift_element(row, fp.to_first).payload
            b = lift_element(col, fp.to_second).payload
            cx = surface_complex(fp.cover)
            out.append(Fraction(cx.intersection(a, b), fp.cover.total_genus - 1))
        table.append(out)
    return table


def _fiber_product_equal(e1, e2):
    """limit_equal by definition: the two lifts to the fiber product agree."""
    fp = fiber_product(e1.cover, e2.cover)
    f1, f2 = lift_element(e1, fp.to_first), lift_element(e2, fp.to_second)
    if e1.kind == "cycle":
        cx = surface_complex(fp.cover)
        return cx.class_coordinates(f1.payload) == cx.class_coordinates(f2.payload)
    return f1.payload[1] == f2.payload[1]


def _elements_over(cover, rng):
    """Cycles over a cover: transfers of two fixed classes and two random loops."""
    cx = surface_complex(cover)
    transfers = [cycle_element(cover, cx.transfer(v)) for v in ((1, 0, 0, 0), (0, 1, 1, -1))]
    return transfers + _random_cycles(cover, rng, 2)


def _tracks_over(cover):
    """The lifts of two weightings of the three-branch track to a cover."""
    track = three_branch_example()
    _, matrix = lift_track(track, cover)
    return [track_element(track, cover, matrix.apply(w)) for w in ((2, 1, 1), (3, 2, 1))]


def _check_against_fiber_product(first, second, rng):
    rows, cols = _elements_over(first, rng), _elements_over(second, rng)
    table = pairing_table(rows, cols)
    assert table == _fiber_product_table(rows, cols)
    for e1, e2 in itertools.product(rows, cols):
        assert limit_equal(e1, e2) == _fiber_product_equal(e1, e2)
    for e1, e2 in itertools.product(_tracks_over(first), _tracks_over(second)):
        assert limit_equal(e1, e2) == _fiber_product_equal(e1, e2)
    return sum(map(limit_equal, rows, cols)), sum(x != 0 for row in table for x in row)


def test_common_refinement_shortcut_matches_fiber_product_on_small_covers():
    rng = random.Random(16)
    covers = [trivial_cover(2), *enumerate_covers(2, 2)]
    equal = nonzero = 0
    for first, second in itertools.product(covers, repeat=2):
        e, n = _check_against_fiber_product(first, second, rng)
        equal, nonzero = equal + e, nonzero + n
    # equal covers as distinct objects take the shortcut too
    for cover in covers:
        twin = SurfaceCover(cover.genus, cover.degree, cover.perms)
        assert twin is not cover
        _check_against_fiber_product(cover, twin, rng)
    assert equal >= 2 * len(covers) ** 2  # the two transfers agree at every pair
    assert nonzero > 0


def test_common_refinement_shortcut_matches_fiber_product_on_seeded_pairs():
    rng = random.Random(61)
    pool = [c for d in (1, 2, 3, 4) for c in enumerate_covers(2, d)]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(24)]
    deep = [c for c in pool if c.degree >= 3]
    pairs += [(c, c) for c in rng.sample(deep, 3)]
    pairs += [(trivial_cover(2), c) for c in rng.sample(deep, 3)]
    pairs += [(c, trivial_cover(2)) for c in rng.sample(deep, 3)]
    for first, second in pairs:
        _check_against_fiber_product(first, second, rng)


DOUBLE = double_cover_from_signs(2, (1, 0, 0, 0))


@pytest.mark.parametrize("build, args, name", [
    (lift_element, ((1, 0, 0, 0), arrow_to_trivial(DOUBLE)), "element"),
    (lift_element, (base_class_element(2, (1, 0, 0, 0)), DOUBLE), "arrow"),
    (common_refinement, (5, DOUBLE), "first"),
    (common_refinement, (DOUBLE, "cover"), "second"),
    (cycle_element, (5, (0, 0, 0, 0)), "cover"),
    (LimitElement, ("cycle", "cover", (0, 0, 0, 0)), "cover"),
    (track_element, (three_branch_example(), None, (2, 1, 1)), "cover"),
    (arrow_step_matrix, ("lifted", arrow_to_trivial(DOUBLE)), "lifted"),
    (arrow_step_matrix, (lift_track(three_branch_example(), DOUBLE)[0], DOUBLE), "arrow"),
])
def test_trusted_builders_name_a_bad_argument(build, args, name):
    with pytest.raises(IncompatibleTower, match=name):
        build(*args)


def test_common_refinement_cases():
    base = trivial_cover(2)
    cover, other = enumerate_covers(2, 3)[4], enumerate_covers(2, 2)[1]
    assert common_refinement(cover, cover) == (cover, None, None)
    assert common_refinement(base, base) == (base, None, None)
    down = CoverArrow(cover, base, (0,) * cover.degree)
    assert arrow_to_trivial(cover) == down
    assert common_refinement(base, cover) == (cover, down, None)
    assert common_refinement(cover, base) == (cover, None, down)
    fp = fiber_product(cover, other)
    assert common_refinement(cover, other) == (fp.cover, fp.to_first, fp.to_second)
    for first, second in ((trivial_cover(3), cover), (cover, trivial_cover(3))):
        with pytest.raises(BaseMismatch):
            common_refinement(first, second)


def test_pairings_with_the_cover_itself_or_the_base_take_no_fiber_product():
    cover = enumerate_covers(2, 3)[7]
    down = arrow_to_trivial(cover)
    base = [base_class_element(2, v) for v in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    lifted = [lift_element(e, down) for e in base]
    track = track_element(three_branch_example(), trivial_cover(2), (2, 1, 1))
    before = fiber_product.cache_info()
    assert pairing_table(lifted, lifted) == pairing_table(base, base)
    assert pairing_table(base, lifted) == pairing_table(base, base)
    assert all(map(limit_equal, base, lifted))
    assert limit_equal(track, lift_element(track, down))
    after = fiber_product.cache_info()
    assert after.hits + after.misses == before.hits + before.misses


@pytest.mark.parametrize("branch_words", [((5,), (5,), ()), ((1,), (1,), ())])
def test_track_element_over_a_cover_of_another_genus(branch_words):
    # letter 5 has no generator at genus 2; letter 1 has one, and a genus-3
    # track must not be read as a genus-2 track through it
    track = TrainTrack(3, three_branch_example().switches, branch_words)
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    with pytest.raises(BaseMismatch, match="track has genus 3, cover has base genus 2"):
        track_element(track, cover, (2, 2, 1, 1, 1, 1))
