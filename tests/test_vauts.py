import random
from fractions import Fraction

import pytest
import sympy

from covertower.characteristic import mod2_homology_cover, shipped_automorphisms
from covertower.covers import (
    enumerate_covers,
    factors_through,
    fiber_product,
    induced_cover,
    rewrite_in_schreier,
    schreier_loop,
    trivial_cover,
)
from covertower.errors import (
    BaseMismatch,
    DimensionMismatch,
    GenusMismatch,
    IncompatibleTower,
    InvalidAutomorphism,
    KindMismatch,
)
from covertower.homology import surface_complex
from covertower.limits import (
    base_class_element,
    cycle_element,
    limit_equal,
    normalized_pairing,
    track_element,
)
from covertower.surface import abelianized, free_reduce, inverse_word
from covertower.traintrack import three_branch_example
from covertower.vauts import (
    TwoArrowVaut,
    _restricts_to,
    apply_edge_word_map,
    certified_in_caut,
    identity_vaut,
    is_mapping_class_like,
    pairing_preserved,
    restrict_vaut,
    vaut_act,
    vaut_act_track,
    vaut_compose,
    vaut_from_automorphism,
    vaut_inverse,
)
from conftest import double_cover_from_signs


def by_name(name):
    for aut in shipped_automorphisms(2):
        if aut.name == name:
            return aut
    raise KeyError(name)


def transfer_element(cover, class_vector):
    return cycle_element(cover, surface_complex(cover).transfer(class_vector))


def element_pool():
    pool = [base_class_element(2, v) for v in ((1, 0, 0, 0), (0, 1, 0, 0), (1, -1, 0, 2))]
    for cover in enumerate_covers(2, 2)[:3]:
        pool.append(transfer_element(cover, (0, 0, 1, 0)))
    return pool


# ---------------------------------------------------------------------------
# construction and validation


def test_identity_vaut_shape():
    v = identity_vaut(2)
    assert v.left.degree == 1
    assert v.fwd == v.bwd
    assert len(v.fwd) == 4


def test_rejects_wrong_table_length():
    v = identity_vaut(2)
    with pytest.raises(DimensionMismatch):
        TwoArrowVaut(v.left, v.right, v.fwd[:3], v.bwd)


def test_rejects_nonstabilizing_words():
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    k = len(cover.schreier.nontree)
    with pytest.raises(InvalidAutomorphism):
        TwoArrowVaut(cover, cover, ((1,),) * k, ((1,),) * k)


def test_rejects_out_of_range_table_letters():
    v = identity_vaut(2)
    with pytest.raises(InvalidAutomorphism, match=r"fwd\[0\]"):
        TwoArrowVaut(v.left, v.right, ((9,),) + v.fwd[1:], v.bwd)
    with pytest.raises(InvalidAutomorphism, match=r"bwd\[2\]"):
        TwoArrowVaut(v.left, v.right, v.fwd, v.bwd[:2] + ((0, 1),) + v.bwd[3:])


def test_rejects_tables_that_are_not_integer_words():
    v = identity_vaut(2)
    with pytest.raises(InvalidAutomorphism, match=r"fwd\[0\]"):
        TwoArrowVaut(v.left, v.right, ((1.0,),) + v.fwd[1:], v.bwd)
    with pytest.raises(InvalidAutomorphism, match=r"fwd\[0\]"):
        TwoArrowVaut(v.left, v.right, ((True,),) + v.fwd[1:], v.bwd)
    with pytest.raises(InvalidAutomorphism, match=r"bwd\[3\]"):
        TwoArrowVaut(v.left, v.right, v.fwd, v.bwd[:3] + ((4, "1"),))
    for bad in (5, [5], None):
        with pytest.raises(InvalidAutomorphism, match="fwd"):
            TwoArrowVaut(v.left, v.right, bad, v.bwd)


@pytest.mark.parametrize("left, right, field", [
    (5, trivial_cover(2), "left"),
    (trivial_cover(2), None, "right"),
    ("cover", "cover", "left"),
])
def test_rejects_endpoints_that_are_not_covers(left, right, field):
    with pytest.raises(IncompatibleTower, match=field):
        TwoArrowVaut(left, right, (), ())


def test_rejects_homologically_singular_tables():
    cover = trivial_cover(2)
    squash = ((1,),) * 4
    ident = tuple(schreier_loop(cover, e) for e in cover.schreier.nontree)
    with pytest.raises(InvalidAutomorphism, match="not invertible on homology"):
        TwoArrowVaut(cover, cover, squash, ident)


def test_rejects_tables_without_a_linear_homology_map():
    # sending two Schreier loops to the same loop breaks a face relation
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    ident = tuple(schreier_loop(cover, e) for e in cover.schreier.nontree)
    fwd = (ident[0], ident[0]) + ident[2:]
    with pytest.raises(InvalidAutomorphism, match="does not induce a linear map"):
        TwoArrowVaut(cover, cover, fwd, ident)


def _sympy_loop_map(source, target, table):
    """Solve A @ X = F over the rationals with sympy; None when inconsistent.

    Row k of A holds the class of Schreier loop k of the source, row k of F
    the class of its table image on the target.
    """
    src, dst = surface_complex(source), surface_complex(target)
    a = sympy.Matrix([
        src.class_coordinates(source.chain([(schreier_loop(source, e), 0, 1)]))
        for e in source.schreier.nontree
    ])
    f = sympy.Matrix([dst.class_coordinates(target.chain([(w, 0, 1)])) for w in table])
    try:
        x, params = a.gauss_jordan_solve(f)
    except ValueError:
        return None
    assert params.shape[0] == 0  # the loop classes span homology: X is unique
    return x.tolist()


def test_loop_map_matches_sympy_solve():
    shipped = [vaut_from_automorphism(aut) for aut in shipped_automorphisms(2)]
    covers = enumerate_covers(2, 2)
    rng = random.Random(41)
    vauts = [restrict_vaut(v, rng.choice(covers)) for v in shipped for _ in range(2)]
    vauts += [vaut_compose(rng.choice(shipped), rng.choice(vauts)) for _ in range(6)]
    vauts += [vaut_compose(rng.choice(vauts), rng.choice(shipped)) for _ in range(6)]
    cases = []
    for v in vauts:
        assert max(v.left.degree, v.right.degree) <= 2
        cases += [(v.left, v.right, v.fwd), (v.right, v.left, v.bwd)]
    for _ in range(24):
        cover = rng.choice(covers)
        loops = [schreier_loop(cover, e) for e in cover.schreier.nontree]
        table = list(loops)
        for _ in range(rng.randint(1, 2)):
            table[rng.randrange(len(table))] = rng.choice(loops) + rng.choice(loops)
        cases.append((cover, cover, table))
    # larger covers: restrictions of shipped vauts, then perturbed tables
    larger = rng.sample(enumerate_covers(2, 3), 6) + [mod2_homology_cover(2)]
    for cover in larger:
        v = restrict_vaut(rng.choice(shipped), cover)
        cases += [(v.left, v.right, v.fwd), (v.right, v.left, v.bwd)]
        loops = list(cover.loops)
        for _ in range(2):
            table = list(loops)
            table[rng.randrange(len(table))] = rng.choice(loops) + rng.choice(loops)
            cases.append((cover, cover, table))
    found = set()
    for source, target, table in cases:
        dst = surface_complex(target)
        images = [dst.class_coordinates(target.chain([(w, 0, 1)])) for w in table]
        got = surface_complex(source).loop_map(images)
        want = _sympy_loop_map(source, target, table)
        assert got == want
        found.add(got is None)
    assert found == {True, False}


def test_rejects_mismatched_covers():
    with pytest.raises(BaseMismatch):
        TwoArrowVaut(trivial_cover(2), trivial_cover(3), (), ())
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    with pytest.raises(GenusMismatch):
        TwoArrowVaut(trivial_cover(2), cover, (), ())


def old_apply_edge_word_map(cover, table, word):
    """apply_edge_word_map's extend-then-reduce body before it became one
    substitute."""
    out = []
    for symbol in rewrite_in_schreier(cover, word):
        piece = table[abs(symbol) - 1]
        if symbol < 0:
            piece = inverse_word(piece)
        out.extend(piece)
    return free_reduce(out)


def test_apply_edge_word_map_matches_the_extend_then_reduce_oracle():
    rng = random.Random(43)
    letters = (1, 2, 3, 4, -1, -2, -3, -4)
    for cover in (c for d in (1, 2, 3) for c in enumerate_covers(2, d)):
        # unreduced table words, so the reduction across pieces is exercised
        table = [tuple(rng.choices(letters, k=rng.randint(0, 4))) for _ in cover.loops]
        for _ in range(3):
            word = tuple(rng.choices(letters, k=rng.randint(0, 8)))
            word += inverse_word(cover.schreier.words[cover.act(word, 0)])
            assert apply_edge_word_map(cover, table, word) == old_apply_edge_word_map(
                cover, table, word
            )


def test_apply_edge_word_map_identity():
    cover = double_cover_from_signs(2, (0, 1, 0, 0))
    table = tuple(schreier_loop(cover, e) for e in cover.schreier.nontree)
    for e in cover.schreier.nontree:
        loop = schreier_loop(cover, e)
        assert apply_edge_word_map(cover, table, loop) == loop


# ---------------------------------------------------------------------------
# the action


def test_identity_acts_trivially():
    ident = identity_vaut(2)
    for e in element_pool():
        assert limit_equal(vaut_act(ident, e), e)


def test_automorphism_vaut_matches_abelianization():
    for aut in shipped_automorphisms(2):
        v = vaut_from_automorphism(aut)
        for gen in range(4):
            src = [0, 0, 0, 0]
            src[gen] = 1
            moved = vaut_act(v, base_class_element(2, src))
            expected = base_class_element(2, abelianized(aut.images[gen], 2))
            assert limit_equal(moved, expected)


def test_action_is_linear_on_classes():
    v = vaut_from_automorphism(by_name("twist_b1_along_a1"))
    a = vaut_act(v, base_class_element(2, (1, 2, 0, 0)))
    parts = [
        vaut_act(v, base_class_element(2, (1, 0, 0, 0))),
        vaut_act(v, base_class_element(2, (0, 2, 0, 0))),
    ]
    cx = surface_complex(trivial_cover(2))
    summed = base_class_element(
        2,
        [
            x + y
            for x, y in zip(
                cx.class_coordinates(parts[0].payload),
                cx.class_coordinates(parts[1].payload),
            )
        ],
    )
    assert limit_equal(a, summed)


def test_inverse_law():
    rng = random.Random(2)
    pool = element_pool()
    for aut in shipped_automorphisms(2)[:4]:
        v = vaut_from_automorphism(aut)
        w = vaut_inverse(v)
        e = rng.choice(pool)
        assert limit_equal(vaut_act(w, vaut_act(v, e)), e)
        assert limit_equal(vaut_act(v, vaut_act(w, e)), e)
    assert vaut_inverse(vaut_inverse(identity_vaut(2))) == identity_vaut(2)


def test_composition_law():
    rng = random.Random(7)
    vauts = [vaut_from_automorphism(a) for a in shipped_automorphisms(2)]
    pool = element_pool()
    for _ in range(6):
        outer = rng.choice(vauts)
        inner = rng.choice(vauts)
        e = rng.choice(pool)
        direct = vaut_act(outer, vaut_act(inner, e))
        composed = vaut_act(vaut_compose(outer, inner), e)
        assert limit_equal(direct, composed)


def test_composition_associative_in_action():
    rng = random.Random(15)
    vauts = [vaut_from_automorphism(a) for a in shipped_automorphisms(2)[:5]]
    pool = element_pool()
    for _ in range(4):
        v1, v2, v3 = (rng.choice(vauts) for _ in range(3))
        e = rng.choice(pool)
        left = vaut_act(vaut_compose(vaut_compose(v1, v2), v3), e)
        right = vaut_act(vaut_compose(v1, vaut_compose(v2, v3)), e)
        assert limit_equal(left, right)


def test_restriction_acts_identically():
    twist = vaut_from_automorphism(by_name("twist_a1_along_b1"))
    cover = double_cover_from_signs(2, (0, 0, 1, 1))
    restricted = restrict_vaut(twist, cover)
    assert restricted.left == cover
    for e in element_pool():
        assert limit_equal(vaut_act(restricted, e), vaut_act(twist, e))


def test_restriction_requires_factoring():
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    other = double_cover_from_signs(2, (0, 1, 0, 0))
    restricted = restrict_vaut(identity_vaut(2), cover)
    with pytest.raises(IncompatibleTower):
        restrict_vaut(restricted, other)


def test_act_rejects_wrong_kinds():
    track = track_element(three_branch_example(), trivial_cover(2), (2, 1, 1))
    with pytest.raises(KindMismatch):
        vaut_act(identity_vaut(2), track)
    with pytest.raises(BaseMismatch):
        vaut_act(identity_vaut(2), base_class_element(3, (1,) + (0,) * 5))


def test_track_action_through_the_shadow():
    v = vaut_from_automorphism(by_name("handle_swap"))
    track = track_element(three_branch_example(), trivial_cover(2), (2, 1, 1))
    moved = vaut_act_track(v, track)
    assert moved.kind == "cycle"
    assert all(isinstance(c, int) for c in moved.payload)
    # the example track carries 3 a1, and the swap sends a1 to a2
    assert limit_equal(moved, base_class_element(2, (0, 0, 3, 0)))


# ---------------------------------------------------------------------------
# classification helpers


def test_mapping_class_like():
    assert is_mapping_class_like(identity_vaut(2))
    for aut in shipped_automorphisms(2):
        assert is_mapping_class_like(vaut_from_automorphism(aut))
    swap = vaut_from_automorphism(by_name("handle_swap"))
    restricted = restrict_vaut(swap, double_cover_from_signs(2, (1, 0, 0, 0)))
    # the restricted representative swaps the handles, so its two arrows are
    # genuinely different covers and this witness cannot certify it
    assert restricted.right.canonical() == double_cover_from_signs(
        2, (0, 0, 1, 0)
    ).canonical()
    assert not is_mapping_class_like(restricted)
    # restriction along a symmetric cover keeps both arrows equal
    sym = restrict_vaut(swap, double_cover_from_signs(2, (1, 0, 1, 0)))
    assert is_mapping_class_like(sym)


def test_pairing_preserved():
    u = base_class_element(2, (1, 0, 0, 0))
    v = base_class_element(2, (0, 1, 0, 0))
    for aut in shipped_automorphisms(2):
        vt = vaut_from_automorphism(aut)
        if aut.is_orientation_preserving():
            assert pairing_preserved(vt, u, v)
        else:
            # the flip reverses orientation and negates the pairing
            assert not pairing_preserved(vt, u, v)
            before = normalized_pairing(u, v)
            after = normalized_pairing(vaut_act(vt, u), vaut_act(vt, v))
            assert after == -before == Fraction(-1)


def checked_restriction(vaut, finer):
    """restrict_vaut's body, built through the public constructor."""
    if factors_through(finer, vaut.left) is None:
        raise IncompatibleTower("cover does not factor through the vaut's left arrow")
    new_right = induced_cover(vaut.right, vaut.bwd, finer)
    fwd = tuple(map(vaut.forward_word, finer.loops))
    bwd = tuple(map(vaut.backward_word, new_right.cover.loops))
    return TwoArrowVaut(finer, new_right.cover, fwd, bwd)


def checked_inverse(vaut):
    return TwoArrowVaut(vaut.right, vaut.left, vaut.bwd, vaut.fwd)


def oracle_restricts_to(vaut, characteristic):
    """The certificate's step as a full checked restriction."""
    refined = fiber_product(vaut.left, characteristic).cover
    restricted = checked_restriction(vaut, refined)
    return factors_through(restricted.right, characteristic) is not None


def oracle_certified_in_caut(vaut, depth):
    candidates = [trivial_cover(2)] + [mod2_homology_cover(2)] * (depth >= 1)
    return all(
        oracle_restricts_to(vaut, cover) and oracle_restricts_to(checked_inverse(vaut), cover)
        for cover in candidates
    )


def test_trusted_restrictions_and_inverses_pass_the_public_checks():
    covers = [c for d in (1, 2, 3) for c in enumerate_covers(2, d)]
    count = 0
    for aut in shipped_automorphisms(2):
        v = vaut_from_automorphism(aut)
        assert vaut_inverse(v) == checked_inverse(v)
        for cover in covers:
            restricted = restrict_vaut(v, cover)
            assert restricted == checked_restriction(v, cover)
            assert vaut_inverse(restricted) == checked_inverse(restricted)
            count += 1
    assert count == 1416


def test_trusted_vaut_builders_skip_the_check(monkeypatch):
    calls = []
    checks = TwoArrowVaut.__post_init__

    def post_init(self):
        calls.append(self)
        checks(self)

    monkeypatch.setattr(TwoArrowVaut, "__post_init__", post_init)
    shipped = [vaut_from_automorphism(aut) for aut in shipped_automorphisms(2)]
    assert len(calls) == 6  # the counter sees the public constructor
    calls.clear()
    covers = enumerate_covers(2, 2)
    for k, v in enumerate(shipped):
        restricted = restrict_vaut(v, covers[k])
        vaut_inverse(restricted)
        assert certified_in_caut(restricted, depth=k % 2)
    assert calls == []


def test_certificate_matches_the_checked_restriction_oracle():
    rng = random.Random(53)
    shipped = [vaut_from_automorphism(aut) for aut in shipped_automorphisms(2)]
    covers = enumerate_covers(2, 2)
    restricted = [restrict_vaut(v, rng.choice(covers)) for v in shipped]
    composites = [vaut_compose(rng.choice(shipped), rng.choice(restricted)) for _ in range(3)]
    pool = [identity_vaut(2)] + shipped + restricted + composites
    for v in pool:
        for depth in (0, 1):
            assert certified_in_caut(v, depth) == oracle_certified_in_caut(v, depth)
    # each step on its own, with covers that are not characteristic, so that
    # the restriction fails to descend for some of them
    found = set()
    for v in rng.sample(pool, 8):
        for cover in covers:
            got = _restricts_to(v.left, v.right, v.bwd, cover)
            assert got == oracle_restricts_to(v, cover)
            back = _restricts_to(v.right, v.left, v.fwd, cover)
            assert back == oracle_restricts_to(checked_inverse(v), cover)
            found |= {got, back}
    assert found == {True, False}


@pytest.mark.parametrize("build, args, name", [
    (vaut_inverse, (5,), "vaut"),
    (restrict_vaut, ("vaut", trivial_cover(2)), "vaut"),
    (restrict_vaut, (identity_vaut(2), "x"), "finer"),
    (certified_in_caut, (5,), "vaut"),
    (certified_in_caut, (identity_vaut(2), True), "depth"),
    (certified_in_caut, (identity_vaut(2), "a"), "depth"),
    (certified_in_caut, (identity_vaut(2), 1.0), "depth"),
    (certified_in_caut, (identity_vaut(2), -1), "depth"),
    (vaut_act, (5, base_class_element(2, (1, 0, 0, 0))), "vaut"),
    (vaut_act, (identity_vaut(2), (1, 0, 0, 0)), "element"),
    (vaut_act_track, ("vaut", base_class_element(2, (1, 0, 0, 0))), "vaut"),
    (vaut_act_track, (identity_vaut(2), None), "element"),
    (vaut_compose, (5, identity_vaut(2)), "outer"),
    (vaut_compose, (identity_vaut(2), "inner"), "inner"),
])
def test_trusted_vaut_builders_name_a_bad_argument(build, args, name):
    with pytest.raises(IncompatibleTower, match=name):
        build(*args)


def test_caut_certification():
    assert certified_in_caut(identity_vaut(2), depth=0)
    for aut in shipped_automorphisms(2):
        v = vaut_from_automorphism(aut)
        assert certified_in_caut(v, depth=1)
    restricted = restrict_vaut(
        vaut_from_automorphism(by_name("handle_swap")),
        double_cover_from_signs(2, (1, 0, 0, 0)),
    )
    assert certified_in_caut(restricted, depth=1)
