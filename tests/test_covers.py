import itertools
import math
import random

import numpy as np
import pytest

from covertower.characteristic import (
    characteristic_refinement,
    is_characteristic,
    shipped_automorphisms,
)
from covertower.covers import (
    CoverArrow,
    SurfaceCover,
    _canonical_columns,
    _canonical_tuples,
    _enumerate_cached,
    _fiber_product,
    _read_table,
    _schreier_walk,
    compose_covers,
    enumerate_covers,
    factors_through,
    fiber_product,
    induced_cover,
    perm_inverse,
    perm_mul,
    rewrite_in_schreier,
    schreier_loop,
    search_budget,
    trivial_cover,
)
from covertower.errors import (
    BadDegree,
    CovertowerError,
    GenusMismatch,
    IncompatibleTower,
    InvalidIdentification,
    NotTransitive,
    RelatorNotTrivial,
    SearchBudgetExceeded,
)
from covertower.homology import surface_complex
from covertower.surface import free_reduce, inverse_word, substitute
from conftest import double_cover_from_signs


# ---------------------------------------------------------------------------
# independent counting oracle
#
# Subgroup counts for the genus-g surface group via the homomorphism-count
# recursion: h_n homomorphisms to S_n split over the orbit of the basepoint,
# giving h_n = sum_k C(n-1, k-1) t_k h_{n-k} with t_k the transitive count,
# and the number of index-n subgroups is t_n / (n-1)!.


def _commutator_distribution(n):
    perms = list(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}

    def mul(p, q):
        return tuple(p[q[i]] for i in range(n))

    def inv(p):
        out = [0] * n
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    counts = [0] * len(perms)
    for p in perms:
        for q in perms:
            z = mul(mul(p, q), mul(inv(p), inv(q)))
            counts[index[z]] += 1
    return perms, index, counts


def _hom_counts(genus, max_n):
    """h_n = number of homomorphisms of the genus-g surface group to S_n."""
    out = [1]  # h_0
    for n in range(1, max_n + 1):
        perms, index, counts = _commutator_distribution(n)

        def mul(p, q):
            return tuple(p[q[i]] for i in range(n))

        def inv(p):
            o = [0] * n
            for i, v in enumerate(p):
                o[v] = i
            return tuple(o)

        # distribution of a product of g commutators, by convolution
        dist = counts
        for _ in range(genus - 1):
            nxt = [0] * len(perms)
            for k, p in enumerate(perms):
                if dist[k] == 0:
                    continue
                for j, q in enumerate(perms):
                    if counts[j]:
                        nxt[index[mul(p, q)]] += dist[k] * counts[j]
            dist = nxt
        out.append(dist[index[tuple(range(n))]])
    return out


def subgroup_counts(genus, max_n):
    h = _hom_counts(genus, max_n)
    t = [0] * (max_n + 1)
    a = [0] * (max_n + 1)
    for n in range(1, max_n + 1):
        total = h[n]
        for k in range(1, n):
            total -= math.comb(n - 1, k - 1) * t[k] * h[n - k]
        t[n] = total
        a[n] = t[n] // math.factorial(n - 1)
        assert t[n] % math.factorial(n - 1) == 0
    return a


# ---------------------------------------------------------------------------
# permutations and cover construction


def test_perm_ops():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert perm_mul(p, q) == tuple(q[p[x]] for x in range(3))
    assert perm_mul(p, perm_inverse(p)) == tuple(range(3))
    assert perm_inverse(tuple(range(4))) == tuple(range(4))


def test_right_action_convention():
    cover = double_cover_from_signs(2, (1, 1, 0, 0))
    u = (1, 2)
    v = (2, -1)
    for s in range(cover.degree):
        assert cover.act(u + v, s) == cover.act(v, cover.act(u, s))


def test_cover_validation():
    with pytest.raises(BadDegree):
        SurfaceCover(2, 0, ())
    with pytest.raises(BadDegree):
        SurfaceCover(1, 2, ((0, 1),) * 2)
    ident = (0, 1)
    with pytest.raises(NotTransitive):
        SurfaceCover(2, 2, (ident, ident, ident, ident))
    # 3-cycle against a transposition: their commutator is a nontrivial 3-cycle
    ident3 = (0, 1, 2)
    with pytest.raises(RelatorNotTrivial):
        SurfaceCover(2, 3, ((1, 2, 0), (0, 2, 1), ident3, ident3))


def test_cover_perms_are_stored_as_int_tuples():
    listed = SurfaceCover(2, 2, [[1, 0], [0, 1], [0, 1], [0, 1]])
    twin = double_cover_from_signs(2, (1, 0, 0, 0))
    assert listed.perms == twin.perms == ((1, 0), (0, 1), (0, 1), (0, 1))
    assert listed == twin and hash(listed) == hash(twin)
    assert fiber_product(listed, twin).cover.degree == 2
    from covertower.homology import surface_complex

    assert surface_complex(listed).genus == 3


@pytest.mark.parametrize(
    "genus, degree, perms, field",
    [
        (2.0, 1, ((0,),) * 4, "genus"),
        (True, 1, ((0,),) * 4, "genus"),
        (2, True, ((0,),) * 4, "degree"),
        (2, 2.0, ((1, 0), (0, 1), (0, 1), (0, 1)), "degree"),
        (2, 2, ((True, False), (0, 1), (0, 1), (0, 1)), "perms"),
        (2, 2, ((1.0, 0), (0, 1), (0, 1), (0, 1)), "perms"),
        (2, 2, ("10", (0, 1), (0, 1), (0, 1)), "perms"),
        (2, 1, 5, "perms"),
    ],
)
def test_cover_rejects_non_integer_fields(genus, degree, perms, field):
    with pytest.raises(BadDegree, match=field):
        SurfaceCover(genus, degree, perms)


def test_trivial_cover():
    c = trivial_cover(2)
    assert c.degree == 1
    assert c.total_genus == 2
    assert c.canonical() is c


def test_double_cover_total_genus():
    c = double_cover_from_signs(2, (1, 0, 0, 0))
    assert c.degree == 2
    assert c.total_genus == 3
    assert c.perms[0] == (1, 0)
    assert c.perms[1] == (0, 1)


# ---------------------------------------------------------------------------
# enumeration against the oracles


def test_degree2_brute_force():
    # every degree-2 assignment satisfies the relator; transitivity means
    # at least one generator swaps the sheets
    swap = (1, 0)
    ident = (0, 1)
    found = set()
    for signs in itertools.product((0, 1), repeat=4):
        if not any(signs):
            continue
        perms = tuple(swap if e else ident for e in signs)
        found.add(SurfaceCover(2, 2, perms).canonical())
    assert len(found) == 15
    assert found == set(enumerate_covers(2, 2))


def test_counts_match_subgroup_recursion():
    oracle = subgroup_counts(2, 5)
    assert oracle[1:6] == [1, 15, 220, 5275, 151086]
    for d in (1, 2, 3, 4):
        assert len(enumerate_covers(2, d)) == oracle[d]
    # uncached, so the degree-5 covers are freed after the test
    covers = _enumerate_cached.__wrapped__(2, 5)
    assert len(set(covers)) == len(covers) == oracle[5]


def discovery_is_identity(perms, inv, degree):
    """True iff breadth-first discovery visits sheets exactly in order
    0, 1, 2, ...: the canonical walk, one candidate at a time, aborting at the
    first out-of-order discovery.  inv holds the inverses of perms."""
    seen = [False] * degree
    seen[0] = True
    count = 1
    head = 0
    while head < count:
        s = head
        head += 1
        for p in (*perms, *inv):
            t = p[s]
            if not seen[t]:
                if t != count:
                    return False
                seen[t] = True
                count += 1
    return count == degree


def unpruned_canonical_tuples(genus, degree):
    """The commutator-table search with no pruning: every completion of
    every head is walked."""
    all_perms = list(itertools.permutations(range(degree)))
    inv = {p: perm_inverse(p) for p in all_perms}
    pair_comm = []
    comm_to_pairs = {}
    for p in all_perms:
        pi = inv[p]
        for q in all_perms:
            qi = inv[q]
            c = tuple(qi[pi[q[p[x]]]] for x in range(degree))
            pair_comm.append((p, q, c))
            comm_to_pairs.setdefault(c, []).append((p, q))

    found = []
    for p1, q1, c1 in pair_comm:
        for rest in itertools.product(pair_comm, repeat=genus - 2):
            running = c1
            for _, _, c in rest:
                running = perm_mul(running, c)
            target = perm_inverse(running)
            for plast, qlast in comm_to_pairs.get(target, ()):
                pairs = [(p1, q1)] + [(p, q) for p, q, _ in rest] + [(plast, qlast)]
                perms = [p for pair in pairs for p in pair]
                if discovery_is_identity(perms, [inv[p] for p in perms], degree):
                    found.append(tuple(perms))
    return found


@pytest.mark.parametrize("genus, degree", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
def test_pruned_search_matches_the_unpruned_search(genus, degree):
    covers = enumerate_covers(genus, degree)
    assert [c.perms for c in covers] == sorted(unpruned_canonical_tuples(genus, degree))


@pytest.mark.parametrize("genus, degree", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_search_emits_tuples_in_census_order(genus, degree):
    tuples = _canonical_tuples(genus, degree)
    assert tuples == sorted(tuples)


@pytest.mark.parametrize("genus, degree", [(2, 4), (3, 3)])
def test_search_is_the_same_across_block_boundaries(monkeypatch, genus, degree):
    whole = _canonical_tuples(genus, degree)
    monkeypatch.setattr("covertower.covers.SEARCH_BLOCK", 7)
    assert _canonical_tuples(genus, degree) == whole


def test_read_filter_is_exact_past_one_byte():
    # degree 300 needs reads wider than a byte; a count that wrapped at 256
    # would misjudge the sheets past it
    d = 300
    shift = tuple((s + 1) % d for s in range(d))
    ident = tuple(range(d))
    cover = SurfaceCover(2, d, (shift, ident, ident, ident)).canonical()
    moved = cover.relabel((0, 2, 1, *range(3, d)))
    assert moved.canonical() == cover and moved != cover
    table = _read_table(cover.perms + moved.perms, d)
    assert np.iinfo(table.dtype).max >= d
    columns = np.array([[0, 4], [1, 5], [2, 6], [3, 7]])
    assert _canonical_columns(table, columns, d).tolist() == [True, False]


def test_genus3_counts():
    oracle = subgroup_counts(3, 3)
    assert len(enumerate_covers(3, 2)) == oracle[2] == 63
    assert len(enumerate_covers(3, 3)) == oracle[3]


def test_enumerated_covers_are_canonical_and_distinct():
    for d in (2, 3):
        covers = enumerate_covers(2, d)
        assert len(set(covers)) == len(covers)
        for cover in covers:
            assert cover.canonical() is cover


def test_canonical_collapses_basepoint_fixing_relabelings():
    rng = random.Random(5)
    covers = enumerate_covers(2, 3)
    for cover in rng.sample(covers, 12):
        rest = list(range(1, cover.degree))
        rng.shuffle(rest)
        new_of_old = (0, *rest)
        moved = cover.relabel(new_of_old)
        assert moved.canonical() == cover
        if new_of_old != tuple(range(cover.degree)):
            # pointed covers admit no nontrivial pointed symmetry
            assert moved.canonical() is not moved


@pytest.mark.parametrize(
    "genus, degree, message",
    [
        (1, 2, "genus must be an integer at least 2, got 1"),
        (2, 0, "degree must be an integer at least 1, got 0"),
        (2, -1, "degree must be an integer at least 1, got -1"),
        (2, True, "degree must be an integer at least 1, got True"),
        (2.0, 2, r"genus must be an integer at least 2, got 2\.0"),
        ("2", 2, "genus must be an integer at least 2, got '2'"),
    ],
)
def test_enumeration_rejects_bad_genus_and_degree(genus, degree, message):
    with pytest.raises(BadDegree, match=message):
        enumerate_covers(genus, degree)


def test_search_budget(monkeypatch):
    assert search_budget(123) == 123
    monkeypatch.setenv("COVERTOWER_BUDGET", "77")
    assert search_budget() == 77
    for bad in ("abc", "1.5", "0", "-5"):
        monkeypatch.setenv("COVERTOWER_BUDGET", bad)
        with pytest.raises(CovertowerError, match="COVERTOWER_BUDGET") as exc:
            search_budget()
        assert not isinstance(exc.value, SearchBudgetExceeded)
    monkeypatch.delenv("COVERTOWER_BUDGET")
    with pytest.raises(SearchBudgetExceeded):
        enumerate_covers(3, 5)
    with pytest.raises(SearchBudgetExceeded):
        enumerate_covers(2, 3, budget=10)


@pytest.mark.parametrize("genus, degree", [(2, 800), (2, 1000), (3, 500)])
def test_budget_gate_on_huge_degrees(monkeypatch, genus, degree):
    # d!^(2(g-1)) has thousands of digits here; the gate must not print it
    monkeypatch.delenv("COVERTOWER_BUDGET", raising=False)
    with pytest.raises(SearchBudgetExceeded) as exc:
        enumerate_covers(genus, degree)
    assert str(exc.value) == (
        "enumeration would examine more than 1000000 candidate assignments; "
        "raise COVERTOWER_BUDGET to override"
    )


def test_budget_gate_counts_unpruned_candidates():
    # 3!^2 = 36 candidate assignments at genus 2, degree 3
    assert len(enumerate_covers(2, 3, budget=36)) == 220
    with pytest.raises(SearchBudgetExceeded, match="more than 35 candidate"):
        enumerate_covers(2, 3, budget=35)
    assert len(enumerate_covers(2, 1, budget=1)) == 1


@pytest.mark.parametrize("bad", [-5, 0, True, False, 1.5, "10"])
def test_explicit_budget_is_range_checked(bad):
    with pytest.raises(CovertowerError, match="budget") as exc:
        search_budget(bad)
    assert not isinstance(exc.value, SearchBudgetExceeded)


def test_enumeration_rejects_a_negative_budget():
    with pytest.raises(CovertowerError, match="budget must be an integer") as exc:
        enumerate_covers(2, 2, budget=-5)
    assert not isinstance(exc.value, SearchBudgetExceeded)


def test_budget_gates_the_search_but_does_not_key_the_cache():
    _enumerate_cached.cache_clear()
    census = enumerate_covers(2, 3)
    assert enumerate_covers(2, 3, budget=10**7) is census
    info = _enumerate_cached.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    with pytest.raises(SearchBudgetExceeded):
        enumerate_covers(2, 3, budget=10)


# ---------------------------------------------------------------------------
# Schreier structure


def test_nontree_edge_count():
    for d in (1, 2, 3):
        for cover in enumerate_covers(2, d)[:20]:
            walk = cover.schreier
            order, tree, _ = _schreier_walk(cover)
            assert order == list(range(d))
            assert len(tree) == d - 1
            assert len(walk.nontree) == 4 * d - d + 1
            for k, edge in enumerate(walk.nontree):
                assert walk.index[edge] == k
            for s, w in enumerate(walk.words):
                assert cover.act(w, 0) == s


def test_validation_stores_no_walk():
    # the enumeration cache keeps every cover it finds, so a walk stored
    # with a cover would stay alive for each of them
    _enumerate_cached.cache_clear()
    fresh = [SurfaceCover(2, 2, ((1, 0), (0, 1), (0, 1), (0, 1)))]
    for cover in fresh + list(enumerate_covers(2, 3)):
        assert "schreier" not in vars(cover)


def test_loops_are_the_schreier_loops_in_nontree_order():
    for cover in (c for d in (1, 2, 3) for c in enumerate_covers(2, d)):
        nontree = cover.schreier.nontree
        assert len(cover.loops) == len(nontree)
        for k, loop in enumerate(cover.loops):
            assert loop == schreier_loop(cover, nontree[k])


def test_schreier_loops_stabilize():
    for cover in enumerate_covers(2, 3)[:30]:
        for edge in cover.schreier.nontree:
            assert cover.stabilizes_basepoint(schreier_loop(cover, edge))


def test_rewrite_is_exact_in_the_free_group():
    rng = random.Random(17)
    covers = [c for d in (2, 3) for c in enumerate_covers(2, d)]
    for cover in rng.sample(covers, 10):
        words = cover.schreier.words
        loops = [schreier_loop(cover, e) for e in cover.schreier.nontree]
        for _ in range(5):
            raw = tuple(
                rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(rng.randint(0, 10))
            )
            closed = free_reduce(raw + inverse_word(words[cover.act(raw, 0)]))
            rewritten = rewrite_in_schreier(cover, closed)
            assert free_reduce(substitute(rewritten, loops)) == free_reduce(closed)


def reference_walk(cover, word, sheet):
    """Lift a word letter by letter.  Letter i+1 leaves sheet s along the edge
    (i, s); letter -(i+1) arrives at s backward along (i, t), t the sheet
    that generator i sends to s, found by search rather than inverse_perms."""
    edges = []
    for letter in word:
        i = abs(letter) - 1
        if letter > 0:
            edges.append((i, sheet, 1))
            sheet = cover.perms[i][sheet]
        else:
            sheet = cover.perms[i].index(sheet)
            edges.append((i, sheet, -1))
    return edges, sheet


def test_walk_matches_the_per_letter_reference():
    rng = random.Random(71)
    covers = [c for d in (1, 2, 3) for c in enumerate_covers(2, d)]
    assert len(covers) == 236
    for cover in covers:
        for _ in range(4):
            word = tuple(
                rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(rng.randint(0, 12))
            )
            sheet = rng.randrange(cover.degree)
            edges, end = cover.walk(word, sheet)
            assert (edges, end) == reference_walk(cover, word, sheet)
            assert end == cover.act(word, sheet)
            assert len(edges) == len(word)
        relator = (1, 2, -1, -2, 3, 4, -3, -4)
        for sheet in range(cover.degree):
            assert cover.walk(relator, sheet) == reference_walk(cover, relator, sheet)
            assert cover.walk(relator, sheet)[1] == sheet


def test_rewrite_rejects_nonstabilizing_word():
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        rewrite_in_schreier(cover, (1,))


# ---------------------------------------------------------------------------
# arrows and fiber products


def test_identity_arrow_and_validation():
    cover = double_cover_from_signs(2, (0, 1, 1, 0))
    arrow = CoverArrow(cover, cover, (0, 1))
    assert arrow.target == arrow.source == cover
    from covertower.errors import IncompatibleTower

    with pytest.raises(IncompatibleTower):
        CoverArrow(cover, cover, (1, 0))
    with pytest.raises(IncompatibleTower):
        CoverArrow(cover, trivial_cover(2), (0, 1))


@pytest.mark.parametrize(
    "source, target, field",
    [
        ("x", double_cover_from_signs(2, (1, 0, 0, 0)), "source"),
        (double_cover_from_signs(2, (1, 0, 0, 0)), None, "target"),
        (None, None, "source"),
        ((2, 2, ((1, 0), (0, 1), (0, 1), (0, 1))), trivial_cover(2), "source"),
    ],
)
def test_arrow_rejects_endpoints_that_are_not_covers(source, target, field):
    from covertower.errors import IncompatibleTower

    with pytest.raises(IncompatibleTower, match=f"{field} must be a SurfaceCover"):
        CoverArrow(source, target, (0, 0))


@pytest.mark.parametrize("sheet_map", [(0.0, 0), (0, 1.0), (False, 0), (0, True), ("0", 0), 0])
def test_arrow_rejects_non_integer_sheets(sheet_map):
    from covertower.errors import IncompatibleTower

    with pytest.raises(IncompatibleTower, match="sheet_map"):
        CoverArrow(double_cover_from_signs(2, (1, 0, 0, 0)), trivial_cover(2), sheet_map)


def test_arrow_sheet_map_is_stored_as_a_tuple():
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    arrow = CoverArrow(cover, trivial_cover(2), [0, 0])
    assert arrow == factors_through(cover, trivial_cover(2))
    assert hash(arrow) == hash(factors_through(cover, trivial_cover(2)))


def test_everything_factors_through_trivial():
    base = trivial_cover(2)
    for cover in enumerate_covers(2, 3)[:25]:
        arrow = factors_through(cover, base)
        assert arrow is not None
        assert arrow.sheet_map == (0,) * cover.degree


def test_factoring_respects_stabilizers():
    rng = random.Random(29)
    covers = list(enumerate_covers(2, 2)) + list(rng.sample(enumerate_covers(2, 3), 10))
    for fine in rng.sample(covers, 8):
        for coarse in rng.sample(covers, 8):
            arrow = factors_through(fine, coarse)
            if arrow is None:
                continue
            for _ in range(30):
                w = tuple(
                    rng.choice((1, -1)) * rng.randint(1, 4)
                    for _ in range(rng.randint(0, 8))
                )
                if fine.stabilizes_basepoint(w):
                    assert coarse.stabilizes_basepoint(w)


def test_factoring_arrows_compose():
    fp = fiber_product(
        double_cover_from_signs(2, (1, 0, 0, 0)),
        double_cover_from_signs(2, (0, 1, 0, 0)),
    )
    fine = fp.cover
    mid = fp.to_first.target
    a1 = factors_through(fine, mid)
    a2 = factors_through(mid, trivial_cover(2))
    a3 = factors_through(fine, trivial_cover(2))
    assert a1 is not None and a2 is not None and a3 is not None
    assert tuple(a2.sheet_map[s] for s in a1.sheet_map) == a3.sheet_map


@pytest.mark.parametrize("build, args, name", [
    (fiber_product, (5, trivial_cover(2)), "first"),
    (fiber_product, (trivial_cover(2), "x"), "second"),
    (factors_through, ("cover", trivial_cover(2)), "fine"),
    (factors_through, (trivial_cover(2), (1, 2)), "coarse"),
    (induced_cover, (5, (), trivial_cover(2)), "outer"),
    (induced_cover, (trivial_cover(2), (), None), "target"),
    (compose_covers, ("cover", trivial_cover(2), {}), "top"),
    (compose_covers, (trivial_cover(3), 5, {}), "bottom"),
    (is_characteristic, (5, ()), "cover"),
    (is_characteristic, (trivial_cover(2), 5), "automorphisms"),
    (is_characteristic, (trivial_cover(2), (shipped_automorphisms(2)[0], "aut")),
     r"automorphisms\[1\]"),
    (characteristic_refinement, ("cover",), "cover"),
    (induced_cover, (trivial_cover(2), 5, trivial_cover(2)), "table must be a sequence"),
    (induced_cover, (trivial_cover(2), ((1,),) * 3, trivial_cover(2)), "expected 4 table, got 3"),
    (induced_cover, (trivial_cover(2), ((1,), (2,), (3,), (5,)), trivial_cover(2)),
     r"table\[3\] must be a word"),
    (induced_cover, (trivial_cover(2), ((1,), (0,), (3,), (4,)), trivial_cover(2)),
     r"table\[1\] must be a word"),
])
def test_cover_builders_name_an_argument_that_is_not_a_cover(build, args, name):
    from covertower.errors import IncompatibleTower

    with pytest.raises(IncompatibleTower, match=name):
        build(*args)


@pytest.mark.parametrize("build, args, name", [
    (fiber_product, ([1], trivial_cover(2)), "first"),
    (fiber_product, (trivial_cover(2), [1]), "second"),
    (surface_complex, ([1],), "cover"),
    (surface_complex, ("x",), "cover"),
])
def test_cached_builders_check_arguments_before_the_cache(build, args, name):
    """An unhashable or wrong argument is named, not hashed or half-built."""
    before = build.cache_info()
    with pytest.raises(IncompatibleTower, match=f"{name} must be a SurfaceCover"):
        build(*args)
    assert build.cache_info() == before


def test_fiber_product_is_the_stabilizer_intersection():
    rng = random.Random(31)
    covers = enumerate_covers(2, 2)
    for _ in range(6):
        first = rng.choice(covers)
        second = rng.choice(covers)
        fp = fiber_product(first, second)
        assert fp.to_first.source is fp.cover
        assert fp.cover.degree % first.degree == 0
        for _ in range(40):
            w = tuple(
                rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(rng.randint(0, 9))
            )
            both = first.stabilizes_basepoint(w) and second.stabilizes_basepoint(w)
            assert fp.cover.stabilizes_basepoint(w) == both


def test_fiber_product_degenerate_cases():
    a = double_cover_from_signs(2, (1, 1, 0, 0))
    assert fiber_product(a, a).cover.canonical() == a
    assert fiber_product(a, trivial_cover(2)).cover.canonical() == a
    b = double_cover_from_signs(2, (0, 0, 1, 0))
    ab = fiber_product(a, b).cover.canonical()
    ba = fiber_product(b, a).cover.canonical()
    assert ab == ba
    assert ab.degree == 4


def test_fiber_product_is_the_meet():
    a = double_cover_from_signs(2, (1, 0, 0, 0))
    b = double_cover_from_signs(2, (0, 1, 0, 0))
    fp = fiber_product(a, b).cover
    from covertower.characteristic import mod2_homology_cover

    k = mod2_homology_cover(2)
    # k refines both factors, so it must refine their fiber product
    assert factors_through(k, a) is not None
    assert factors_through(k, b) is not None
    assert factors_through(k, fp) is not None


# ---------------------------------------------------------------------------
# composing covers through a marking of the covering surface

# Standard marking of the a1-swap double cover at genus 2.  The covering
# surface has genus 3; letters 1..6 below are its standard generators.  Each
# Schreier edge of the bottom cover is sent to the word it spells upstairs.
A1_SWAP_MARKING = {
    (0, 0): (),
    (0, 1): (1,),
    (1, 0): (2,),
    (1, 1): (4, 3, -4, -3, 2),
    (2, 0): (3,),
    (2, 1): (5,),
    (3, 0): (4,),
    (3, 1): (6,),
}


def test_compose_with_trivial_top_reproduces_bottom():
    bottom = double_cover_from_signs(2, (1, 0, 0, 0))
    comp = compose_covers(trivial_cover(3), bottom, A1_SWAP_MARKING)
    assert comp.cover.canonical() == bottom.canonical()


def test_compose_degree2_tops():
    bottom = double_cover_from_signs(2, (1, 0, 0, 0))
    seen = set()
    for top in enumerate_covers(3, 2):
        comp = compose_covers(top, bottom, A1_SWAP_MARKING)
        assert comp.cover.degree == 4
        assert comp.cover.total_genus == 5
        assert comp.to_bottom.source is comp.cover
        assert comp.to_bottom.target is bottom
        assert factors_through(comp.cover, bottom) is not None
        seen.add(comp.cover.canonical())
    # distinct index-2 subgroups upstairs give distinct composites
    assert len(seen) == 63


def test_compose_rejects_bad_marking():
    bottom = double_cover_from_signs(2, (1, 0, 0, 0))
    # replacing the long b1-word with a bare generator turns the relator lift
    # at sheet 0 into the commutator [a2~, b2~], which acts nontrivially on a
    # nonabelian top; degree-2 tops cannot see the sabotage, so use degree 3
    cyc = (1, 2, 0)
    swp = (0, 2, 1)
    ident3 = (0, 1, 2)
    top = SurfaceCover(3, 3, (swp, cyc, cyc, swp, ident3, ident3))
    assert compose_covers(top, bottom, A1_SWAP_MARKING).cover.degree == 6
    broken = dict(A1_SWAP_MARKING)
    broken[(1, 1)] = (2,)
    with pytest.raises(InvalidIdentification):
        compose_covers(top, bottom, broken)
    missing = dict(A1_SWAP_MARKING)
    del missing[(3, 1)]
    with pytest.raises(InvalidIdentification):
        compose_covers(top, bottom, missing)
    # every word a1~: the exponent vectors span one line of Z^6
    collapsed = {edge: (1,) for edge in A1_SWAP_MARKING}
    with pytest.raises(InvalidIdentification, match="do not span"):
        compose_covers(top, bottom, collapsed)
    with pytest.raises(GenusMismatch):
        compose_covers(trivial_cover(2), bottom, A1_SWAP_MARKING)


# ---------------------------------------------------------------------------
# package-built covers and arrows against the public constructors
#
# The enumeration, fiber products, factoring arrows and the projections of
# induced and composed covers skip the constructors' checks.  These oracles
# rebuild what they make through the public constructors.


def public_cover(cover) -> SurfaceCover:
    return SurfaceCover(cover.genus, cover.degree, cover.perms)


def public_arrow(arrow) -> CoverArrow:
    return CoverArrow(arrow.source, arrow.target, arrow.sheet_map)


def test_enumerated_covers_pass_the_public_constructor():
    for d in range(1, 5):
        for cover in enumerate_covers(2, d):
            assert public_cover(cover) == cover


def test_fiber_products_and_factoring_arrows_pass_the_public_constructors():
    rng = random.Random(59)
    covers = [c for d in (1, 2, 3) for c in enumerate_covers(2, d)]
    checked = 0
    for _ in range(60):
        first, second = rng.choice(covers), rng.choice(covers)
        fp = fiber_product(first, second)
        assert public_cover(fp.cover) == fp.cover
        arrows = [fp.to_first, fp.to_second, factors_through(fp.cover, first)]
        arrows += [factors_through(first, second), factors_through(first, trivial_cover(2))]
        for arrow in arrows:
            if arrow is not None:
                assert public_arrow(arrow) == arrow
                checked += 1
    assert checked >= 240


def test_induced_and_composed_projections_pass_the_public_constructor():
    from covertower.characteristic import shipped_automorphisms
    from covertower.vauts import restrict_vaut, vaut_from_automorphism

    rng = random.Random(61)
    doubles = enumerate_covers(2, 2)
    for aut in shipped_automorphisms(2):
        vaut = restrict_vaut(vaut_from_automorphism(aut), rng.choice(doubles))
        for target in rng.sample(doubles, 3):
            induced = induced_cover(vaut.right, vaut.bwd, target)
            assert public_arrow(induced.to_outer) == induced.to_outer
    bottom = double_cover_from_signs(2, (1, 0, 0, 0))
    for top in enumerate_covers(3, 2)[:20]:
        composed = compose_covers(top, bottom, A1_SWAP_MARKING)
        assert public_arrow(composed.to_bottom) == composed.to_bottom


def test_enumeration_and_fiber_products_skip_the_constructor_checks(monkeypatch):
    calls = []

    def counted(cls):
        checks = cls.__post_init__

        def post_init(self):
            calls.append(cls.__name__)
            checks(self)

        return post_init

    for cls in (SurfaceCover, CoverArrow):
        monkeypatch.setattr(cls, "__post_init__", counted(cls))
    public_arrow(factors_through(trivial_cover(2), trivial_cover(2)))
    assert calls == ["CoverArrow"]  # the counter sees the public constructor
    calls.clear()
    _enumerate_cached.cache_clear()
    covers = [c for d in range(1, 5) for c in enumerate_covers(2, d)]
    rng = random.Random(67)
    for _ in range(20):
        _fiber_product.__wrapped__(rng.choice(covers), rng.choice(covers))
    assert calls == []
