"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single pass or fail line (visible with pytest -s and in
failure reports).  All comparisons are exact: integers and Fractions, no
floating point tolerances anywhere except the orbit radius threshold, which
is a frozen experiment bound, not a numerical tolerance.
"""

import functools
import itertools
import random
from fractions import Fraction

from covertower.characteristic import (
    characteristic_refinement,
    is_characteristic,
    shipped_automorphisms,
)
from covertower.covers import (
    SurfaceCover,
    enumerate_covers,
    factors_through,
    fiber_product,
    mod2_homology_cover,
    trivial_cover,
)
from covertower.homology import surface_complex
from covertower.limits import (
    base_class_element,
    cycle_element,
    limit_equal,
    normalized_pairing,
)
from covertower.orbit import OrbitConfig, orbit_density_experiment
from covertower.surface import standard_symplectic
from covertower.traintrack import (
    arrow_step_matrix,
    carrying_compose,
    lift_track,
    three_branch_example,
)
from covertower.vauts import (
    identity_vaut,
    restrict_vaut,
    vaut_act,
    vaut_compose,
    vaut_inverse,
)
from conftest import double_cover_from_signs

GENUS = 2
BASIS = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
J = standard_symplectic(GENUS)


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            print(f"criterion {number} ({label}): PASS")

        return run

    return wrap


def all_covers(max_degree):
    out = []
    for d in range(1, max_degree + 1):
        out.extend(enumerate_covers(GENUS, d))
    return out


def transfer_element(cover, vec):
    return cycle_element(cover, surface_complex(cover).transfer(vec))


@criterion(1, "riemann-hurwitz")
def test_criterion_1_riemann_hurwitz_exact():
    checked = 0
    for cover in all_covers(4):
        cx = surface_complex(cover)
        assert cx.genus == cover.degree * (GENUS - 1) + 1
        assert cx.genus == cover.total_genus
        checked += 1
    assert checked == 1 + 15 + 220 + 5275


@criterion(2, "degree-2 enumeration")
def test_criterion_2_degree2_count_matches_oracle():
    # independent oracle: a degree-2 pointed cover is a homomorphism to S_2,
    # i.e. a sign vector; the relator is a product of commutators and S_2 is
    # abelian, so only transitivity cuts the 16 candidates down
    flip = (1, 0)
    ident = (0, 1)
    oracle = set()
    for signs in itertools.product((0, 1), repeat=4):
        perms = tuple(flip if s else ident for s in signs)
        reached = {0}
        for p in perms:
            reached |= {p[x] for x in reached}
        if reached != {0, 1}:
            continue
        oracle.add(SurfaceCover(GENUS, 2, perms))
    enumerated = set(enumerate_covers(GENUS, 2))
    assert len(enumerated) == 15
    assert enumerated == oracle


@criterion(3, "transfer scaling")
def test_criterion_3_transfer_scaling_laws():
    for cover in all_covers(3):
        d = cover.degree
        cx = surface_complex(cover)
        lifts = [cx.transfer(u) for u in BASIS]
        for u, t in zip(BASIS, lifts):
            assert tuple(cx.pushforward(t)) == tuple(d * x for x in u)
        for i, j in itertools.product(range(4), repeat=2):
            assert cx.intersection(lifts[i], lifts[j]) == d * J[i][j]


@criterion(4, "normalized pairing invariance")
def test_criterion_4_normalized_pairing_invariance():
    base = [base_class_element(GENUS, u) for u in BASIS]
    for i, j in itertools.product(range(4), repeat=2):
        assert normalized_pairing(base[i], base[j]) == Fraction(J[i][j])

    # lifting one or both arguments to any common cover changes nothing
    for cover in enumerate_covers(GENUS, 2):
        lifted = [transfer_element(cover, u) for u in BASIS]
        for i, j in itertools.product(range(4), repeat=2):
            want = Fraction(J[i][j])
            assert normalized_pairing(lifted[i], lifted[j]) == want
            assert normalized_pairing(lifted[i], base[j]) == want
    for cover in enumerate_covers(GENUS, 3)[:5]:
        e1 = transfer_element(cover, BASIS[0])
        e2 = transfer_element(cover, BASIS[1])
        assert normalized_pairing(e1, e2) == Fraction(1)
        assert normalized_pairing(e1, base[2]) == Fraction(0)

    # every tested orientation-preserving vaut preserves the pairing
    vauts = [identity_vaut(GENUS)]
    vauts += [a for a in shipped_automorphisms(GENUS) if a.name != "ab_flip"]
    vauts.append(
        restrict_vaut(vauts[1], double_cover_from_signs(GENUS, (0, 0, 1, 1)))
    )
    for vaut in vauts:
        moved = [vaut_act(vaut, e) for e in base]
        for i, j in itertools.product(range(4), repeat=2):
            assert normalized_pairing(moved[i], moved[j]) == Fraction(J[i][j])


@criterion(5, "track lifting")
def test_criterion_5_track_lifting():
    track = three_branch_example()
    weight_vectors = ((1, 0, 1), (1, 1, 0), (2, 1, 1), (3, 1, 2))
    covers = [trivial_cover(GENUS)] + list(enumerate_covers(GENUS, 2))
    for cover in covers:
        lifted, cm = lift_track(track, cover)
        d = cover.degree
        rows = cm.matrix
        assert len(rows) == track.n_branches * d
        assert all(entry in (0, 1) for row in rows for entry in row)
        for j in range(track.n_branches):
            assert sum(row[j] for row in rows) == d
        for w in weight_vectors:
            lw = tuple(sum(row[j] * w[j] for j in range(len(w))) for row in rows)
            assert all(isinstance(x, int) for x in lw)
            lifted.track.validate_weights(lw)

    # lifting through a two-step tower equals lifting once to the top
    rng = random.Random(5)
    degree2 = enumerate_covers(GENUS, 2)
    for _ in range(10):
        a, b = rng.sample(degree2, 2)
        fp = fiber_product(a, b)
        lifted_a, base_to_a = lift_track(track, a)
        staged = carrying_compose(base_to_a, arrow_step_matrix(lifted_a, fp.to_first))
        _, direct = lift_track(track, fp.cover)
        assert staged.matrix == direct.matrix
        assert staged.source == direct.source
        assert staged.target == direct.target


@criterion(6, "limit equivalence and vaut laws")
def test_criterion_6_limit_equivalence_and_vaut_laws():
    covers = [trivial_cover(GENUS)] + list(enumerate_covers(GENUS, 2))
    vectors = ((1, 0, 0, 0), (0, 1, -1, 2))
    classes = []
    for vec in vectors:
        reps = [base_class_element(GENUS, vec)]
        reps += [transfer_element(cover, vec) for cover in covers]
        classes.append(reps)

    for reps in classes:
        for x in reps:
            assert limit_equal(x, x)
        for x, y in itertools.combinations(reps, 2):
            assert limit_equal(x, y)
            assert limit_equal(y, x)
    for x in classes[0]:
        for y in classes[1]:
            assert not limit_equal(x, y)

    # acting through any representative of the class gives the same class
    pool = [
        identity_vaut(GENUS),
        shipped_automorphisms(GENUS)[0],
        shipped_automorphisms(GENUS)[4],
    ]
    for vaut in pool:
        for reps in classes:
            images = [vaut_act(vaut, x) for x in reps]
            for img in images[1:]:
                assert limit_equal(images[0], img)

    # group laws on seeded triples, up to limit equality of the action
    named = list(shipped_automorphisms(GENUS))
    rng = random.Random(6)
    probes = [base_class_element(GENUS, (1, 0, 0, 0)), classes[1][0]]
    e = identity_vaut(GENUS)
    for x in probes:
        assert limit_equal(vaut_act(e, x), x)
    for _ in range(20):
        u, v, w = (rng.choice(named) for _ in range(3))
        x = rng.choice(probes)
        assert limit_equal(vaut_act(vaut_compose(e, u), x), vaut_act(u, x))
        assert limit_equal(vaut_act(vaut_compose(vaut_inverse(u), u), x), x)
        left = vaut_compose(vaut_compose(u, v), w)
        right = vaut_compose(u, vaut_compose(v, w))
        assert limit_equal(vaut_act(left, x), vaut_act(right, x))


@criterion(7, "characteristic refinement")
def test_criterion_7_characteristic_refinement():
    target = mod2_homology_cover(GENUS)
    auts = shipped_automorphisms(GENUS)
    assert target.degree == 16
    assert is_characteristic(target, auts)
    for cover in enumerate_covers(GENUS, 2):
        refined = characteristic_refinement(cover)
        assert refined == target
        assert factors_through(refined, cover) is not None
        assert is_characteristic(refined, auts)


@criterion(8, "orbit density")
def test_criterion_8_orbit_density():
    result = orbit_density_experiment(OrbitConfig(steps=100_000, targets=256, seed=0))
    radii = [radius for _, _, radius in result.checkpoints]
    sizes = [size for _, size, _ in result.checkpoints]
    assert result.checkpoints[-1][0] == 100_000
    assert all(b <= a for a, b in zip(radii, radii[1:]))
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    assert radii[-1] < 0.4
