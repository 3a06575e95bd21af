import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

import covertower
from covertower.characteristic import shipped_automorphisms
from covertower.covers import (
    enumerate_covers,
    fiber_product,
    induced_cover,
    mod2_homology_cover,
    pull_back,
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
from covertower.surface import abelianized, free_reduce, inverse_word, substitute
from covertower.traintrack import three_branch_example
from covertower.vauts import (
    TwoArrowVaut,
    _restricts_to,
    _push_word,
    certified_in_caut,
    identity_vaut,
    pairing_preserved,
    restrict_vaut,
    vaut_act,
    vaut_act_track,
    vaut_compose,
    vaut_inverse,
)
from covertower.documents import parse_vaut, vaut_document
from covertower.verify import _law_pool
from conftest import double_cover_from_signs
from test_covers import oracle_factors_through


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
    # a homomorphism onto <a1>: it kills the relator, and bwd cannot undo it
    cover = trivial_cover(2)
    squash = ((1,),) * 4
    ident = tuple(schreier_loop(cover, e) for e in cover.schreier.nontree)
    with pytest.raises(InvalidAutomorphism, match=r"^bwd does not undo fwd\[1\]$"):
        TwoArrowVaut(cover, cover, squash, ident)


def test_rejects_tables_without_a_linear_homology_map():
    # sending two Schreier loops to the same loop breaks a face relation
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    ident = tuple(schreier_loop(cover, e) for e in cover.schreier.nontree)
    fwd = (ident[0], ident[0]) + ident[2:]
    with pytest.raises(
        InvalidAutomorphism, match=r"^fwd does not kill the relator lifted at sheet \d$"
    ):
        TwoArrowVaut(cover, cover, fwd, ident)
    with pytest.raises(
        InvalidAutomorphism, match=r"^bwd does not kill the relator lifted at sheet \d$"
    ):
        TwoArrowVaut(cover, cover, ident, fwd)


def test_names_the_sheet_of_the_live_relator():
    """a1 -> a1.[a1, b1] on the edge leaving sheet 1 keeps every word's
    action and breaks only the face lifted at sheet 1, which is named."""
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    marks = {(i, s): (i + 1,) for i in range(4) for s in range(2)}
    marks[0, 1] = (1, 1, 2, -1, -2)
    fwd = tuple(
        free_reduce([x for i, s, sign in cover.walk(loop, 0)[0]
                     for x in (marks[i, s] if sign > 0 else inverse_word(marks[i, s]))])
        for loop in cover.loops
    )
    with pytest.raises(InvalidAutomorphism, match="^fwd does not kill the relator lifted at sheet 1$"):
        TwoArrowVaut(cover, cover, fwd, cover.loops)
    with pytest.raises(InvalidAutomorphism, match="^bwd does not kill the relator lifted at sheet 1$"):
        TwoArrowVaut(cover, cover, cover.loops, fwd)


def test_one_isomorphism_check():
    """In the package one helper, covers._first_live_relator, lifts the
    relator and decides the lifted faces exactly, for _check_isomorphism and
    compose_covers; is_trivial is called there and in _check_isomorphism's
    undo loop alone, and _check_isomorphism, with the table reader beside it
    in vauts.py, has one caller: the one constructor of isomorphisms."""
    package = Path(covertower.__file__).resolve().parent
    users, calls, defined = {}, {}, {}
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.Import, ast.ImportFrom)):
                continue
            name = getattr(top, "name", None)
            defined.setdefault(name, []).append(path.name)
            members = top.body if isinstance(top, ast.ClassDef) else [top]
            for member in members:
                owner = name if member is top else f"{name}.{getattr(member, 'name', None)}"
                for node in ast.walk(member):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        users.setdefault(node.id, set()).add(owner)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                        calls.setdefault((owner, node.func.id), []).append(node)
    # _check_relator reads the relator's permutation on the base and
    # _dehn_steps builds Dehn's rules from it; only the helper lifts it
    assert users["surface_relator"] == {"_check_relator", "_dehn_steps", "_first_live_relator"}
    assert users["_first_live_relator"] == {"_check_isomorphism", "compose_covers"}
    assert users["is_trivial"] == {"_first_live_relator", "_check_isomorphism"}
    undo = calls["_check_isomorphism", "is_trivial"]
    assert [ast.unparse(call.args[0]) for call in undo] == ["undone + inverse_word(loop)"]
    assert defined["_check_isomorphism"] == defined["_word_table"] == ["vauts.py"]
    assert users["_check_isomorphism"] == users["_word_table"] == {"TwoArrowVaut.__post_init__"}
    assert len(calls["TwoArrowVaut.__post_init__", "_check_isomorphism"]) == 1


# ---------------------------------------------------------------------------
# the homology oracle: the map a table induces on homology, solved on the
# loop classes, and the test X.Y = I that its two directions are inverse


def loop_map(cx, images):
    """Matrix of the homology map that sends each Schreier loop to a class.

    images[k] holds the class coordinates, on the target surface, of the
    image of the loop through nontree edge k.  A cycle is fixed by its
    nontree coordinates and the faces span the boundaries, so the images
    define a map on homology iff they cancel around every face.  Returns
    None when they do not, else X: the class edges' rows of images, as
    their loops are the basis.
    """
    edges = (cx.edge_index(i, s) for (i, s) in cx.cover.schreier.nontree)
    image_of = dict(zip(edges, images))
    for face in cx.faces:
        signed = [[-c for c in image_of[d >> 1]] if d & 1 else image_of[d >> 1]
                  for d in face if d >> 1 in image_of]
        if any(map(sum, zip(*signed))):
            return None
    return [list(image_of[e]) for e in cx._homology_data()["class_edges"]]


def homology_map(source, target, table):
    """Map a table of Schreier-generator images induces on homology, or None."""
    cx = surface_complex(target)
    images = [cx.class_coordinates(target.chain([(w, 0, 1)])) for w in table]
    return loop_map(surface_complex(source), images)


def homology_invertible(left, right, fwd, bwd):
    """Whether both tables induce maps on homology, inverse to each other."""
    x = homology_map(left, right, fwd)
    y = homology_map(right, left, bwd)
    if x is None or y is None:
        return False
    # square matrices: a one-sided inverse is two-sided
    n = len(x)
    return all(sum(x[i][k] * y[k][j] for k in range(n)) == int(i == j)
               for i in range(n) for j in range(n))


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
    shipped = list(shipped_automorphisms(2))
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
        got = loop_map(surface_complex(source), images)
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
    """The extend-then-reduce body of apply_edge_word_map, now the private
    vauts._push_word, before it became one substitute."""
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
            assert _push_word(cover, table, word) == old_apply_edge_word_map(
                cover, table, word
            )


def test_apply_edge_word_map_identity():
    cover = double_cover_from_signs(2, (0, 1, 0, 0))
    table = tuple(schreier_loop(cover, e) for e in cover.schreier.nontree)
    for e in cover.schreier.nontree:
        loop = schreier_loop(cover, e)
        assert _push_word(cover, table, loop) == loop


# ---------------------------------------------------------------------------
# the action


def test_identity_acts_trivially():
    ident = identity_vaut(2)
    for e in element_pool():
        assert limit_equal(vaut_act(ident, e), e)


def test_automorphism_vaut_matches_abelianization():
    for v in shipped_automorphisms(2):
        for gen in range(4):
            src = [0, 0, 0, 0]
            src[gen] = 1
            moved = vaut_act(v, base_class_element(2, src))
            expected = base_class_element(2, abelianized(v.fwd[gen], 2))
            assert limit_equal(moved, expected)


def test_action_is_linear_on_classes():
    v = by_name("twist_b1_along_a1")
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
    for v in shipped_automorphisms(2)[:4]:
        w = vaut_inverse(v)
        e = rng.choice(pool)
        assert limit_equal(vaut_act(w, vaut_act(v, e)), e)
        assert limit_equal(vaut_act(v, vaut_act(w, e)), e)
    assert vaut_inverse(vaut_inverse(identity_vaut(2))) == identity_vaut(2)


def test_composition_law():
    rng = random.Random(7)
    vauts = list(shipped_automorphisms(2))
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
    vauts = list(shipped_automorphisms(2)[:5])
    pool = element_pool()
    for _ in range(4):
        v1, v2, v3 = (rng.choice(vauts) for _ in range(3))
        e = rng.choice(pool)
        left = vaut_act(vaut_compose(vaut_compose(v1, v2), v3), e)
        right = vaut_act(vaut_compose(v1, vaut_compose(v2, v3)), e)
        assert limit_equal(left, right)


def test_restriction_acts_identically():
    twist = by_name("twist_a1_along_b1")
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
    v = by_name("handle_swap")
    track = track_element(three_branch_example(), trivial_cover(2), (2, 1, 1))
    moved = vaut_act_track(v, track)
    assert moved.kind == "cycle"
    assert all(isinstance(c, int) for c in moved.payload)
    # the example track carries 3 a1, and the swap sends a1 to a2
    assert limit_equal(moved, base_class_element(2, (0, 0, 3, 0)))


def oracle_vaut_act(vaut, element):
    """The action by Schreier loops: read the lifted cycle on the nontree
    edges of the refinement W, push each of W's Schreier loops through the
    forward table, and lift the pushed words from sheet 0 of the induced
    cover.  Returns the image cover and payload."""
    w = fiber_product(element.cover, vaut.left)
    chain = pull_back(w.to_first, element.payload)
    image = induced_cover(vaut.right, vaut.bwd, w.cover).cover
    d = w.cover.degree
    coeffs = (chain[i * d + s] for i, s in w.cover.schreier.nontree)
    kept = ((c, loop) for c, loop in zip(coeffs, w.cover.loops) if c)
    terms = [(_push_word(vaut.left, vaut.fwd, loop), 0, c) for c, loop in kept]
    return image, tuple(image.chain(terms))


def oracle_corpus():
    """Vauts of degree 1, their restrictions, composites and genus-3
    restrictions, and elements over every cover of degree at most 3, a
    sample at degree 4 and the mod-2 cover, each paired with a seeded
    sample of the other side."""
    rng = random.Random(38)
    auts = shipped_automorphisms(2)
    mod2 = mod2_homology_cover(2)
    vauts = list(auts) + [vaut_inverse(a) for a in auts]
    vauts += [restrict_vaut(a, c) for a in auts for c in enumerate_covers(2, 2) + (mod2,)]
    for seed in range(3):
        vauts += [vaut_compose(a, b) for a, b, _ in _law_pool(2, 2, seed)["composition"]]
    vauts += [restrict_vaut(identity_vaut(3), c) for c in enumerate_covers(3, 2)[:3]]
    covers = {2: [c for d in (1, 2, 3) for c in enumerate_covers(2, d)], 3: []}
    covers[2] += rng.sample(enumerate_covers(2, 4), 12) + [mod2, mod2]
    covers[3] += enumerate_covers(3, 1) + enumerate_covers(3, 2)[:6]
    elements = {2: [], 3: []}
    for genus, pool in covers.items():
        for k, cover in enumerate(pool):
            cx = surface_complex(cover)
            if k % 2:
                chain = cx.transfer([rng.randint(-2, 2) for _ in range(2 * genus)])
            else:
                chain = [0] * cx.n_edges
                for basis_chain in cx.homology_basis():
                    x = rng.randint(-2, 2)
                    chain = [a + x * b for a, b in zip(chain, basis_chain)]
            elements[genus].append(cycle_element(cover, chain))
    pairs = []
    for genus, pool in elements.items():
        on_base = [v for v in vauts if v.base_genus == genus]
        pairs += [(on_base[k % len(on_base)], e) for k, e in enumerate(pool)]
        pairs += [(v, e) for v in on_base for e in rng.sample(pool, 6)]
    return pairs


def test_action_matches_the_schreier_loop_oracle():
    pairs = oracle_corpus()
    assert len(pairs) > 1000
    for vaut, element in pairs:
        moved = vaut_act(vaut, element)
        assert (moved.cover, moved.payload) == oracle_vaut_act(vaut, element)


def test_action_builds_no_transversal_on_the_refinement():
    restricted = restrict_vaut(by_name("handle_swap"), double_cover_from_signs(2, (1, 0, 0, 0)))
    for cover in (double_cover_from_signs(2, (0, 1, 0, 0)), mod2_homology_cover(2)):
        fiber_product.cache_clear()
        vaut_act(restricted, transfer_element(cover, (1, 0, 1, 0)))
        refinement = fiber_product(cover, restricted.left).cover
        assert "schreier" not in vars(refinement) and "loops" not in vars(refinement)


# ---------------------------------------------------------------------------
# classification helpers


def test_mapping_class_like():
    """A representative with pointed-equal arrows, after canonical relabeling."""
    def same_arrows(v):
        return v.left.canonical() == v.right.canonical()

    assert same_arrows(identity_vaut(2))
    for aut in shipped_automorphisms(2):
        assert same_arrows(aut)
    swap = by_name("handle_swap")
    restricted = restrict_vaut(swap, double_cover_from_signs(2, (1, 0, 0, 0)))
    # the restricted representative swaps the handles, so its two arrows are
    # genuinely different covers and this witness cannot certify it
    assert restricted.right.canonical() == double_cover_from_signs(
        2, (0, 0, 1, 0)
    ).canonical()
    assert not same_arrows(restricted)
    # restriction along a symmetric cover keeps both arrows equal
    sym = restrict_vaut(swap, double_cover_from_signs(2, (1, 0, 1, 0)))
    assert same_arrows(sym)


def test_pairing_preserved():
    u = base_class_element(2, (1, 0, 0, 0))
    v = base_class_element(2, (0, 1, 0, 0))
    for vt in shipped_automorphisms(2):
        if vt.is_orientation_preserving():
            assert pairing_preserved(vt, u, v)
        else:
            # the flip reverses orientation and negates the pairing
            assert not pairing_preserved(vt, u, v)
            before = normalized_pairing(u, v)
            after = normalized_pairing(vaut_act(vt, u), vaut_act(vt, v))
            assert after == -before == Fraction(-1)


def checked_restriction(vaut, finer):
    """restrict_vaut's body, built through the public constructors."""
    if oracle_factors_through(finer, vaut.left) is None:
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
    return oracle_factors_through(restricted.right, characteristic) is not None


def oracle_certified_in_caut(vaut, depth):
    candidates = [trivial_cover(2)] + [mod2_homology_cover(2)] * (depth >= 1)
    return all(
        oracle_restricts_to(vaut, cover) and oracle_restricts_to(checked_inverse(vaut), cover)
        for cover in candidates
    )


def test_automorphism_vauts_pass_the_public_checks():
    """A shipped automorphism is the vaut whose tables send the trivial
    cover's loops, the generators, to their images."""
    cover = trivial_cover(2)
    for v in shipped_automorphisms(2):
        fwd, bwd = (tuple(substitute(w, t) for w in cover.loops) for t in (v.fwd, v.bwd))
        assert v == TwoArrowVaut(cover, cover, fwd, bwd)
        assert (v.left, v.right) == (cover, cover)


def test_trusted_restrictions_and_inverses_pass_the_public_checks():
    covers = [c for d in (1, 2, 3) for c in enumerate_covers(2, d)]
    count = 0
    for v in shipped_automorphisms(2):
        assert vaut_inverse(v) == checked_inverse(v)
        for cover in covers:
            restricted = restrict_vaut(v, cover)
            assert restricted == checked_restriction(v, cover)
            assert vaut_inverse(restricted) == checked_inverse(restricted)
            count += 1
    assert count == 1416


def test_trusted_composites_pass_the_public_checks():
    """Every composite of the seeded vaut-laws triples, and of each shipped
    vaut with its restriction to each degree-2 cover, rebuilt through the
    constructor."""
    pairs = [
        (v1, v2)
        for seed in (0, 1, 2)
        for v1, v2, _ in _law_pool(2, 2, seed)["composition"]
    ]
    pairs += [
        (v, restrict_vaut(v, cover))
        for v in shipped_automorphisms(2)
        for cover in enumerate_covers(2, 2)
    ]
    for outer, inner in pairs:
        composite = vaut_compose(outer, inner)
        public = TwoArrowVaut(composite.left, composite.right, composite.fwd, composite.bwd)
        assert public == composite
    assert len(pairs) == 150


def test_unchecked_vauts_come_from_the_three_derived_builders():
    """Vauts skip the constructor only as inverses, restrictions and
    composites, the three builders the tests rebuild through it."""
    package = Path(covertower.__file__).resolve().parent
    trusted = set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "_trusted"
                    and getattr(node.args[0], "id", None) == "TwoArrowVaut"
                ):
                    trusted.add((path.name, getattr(top, "name", None)))
    assert trusted == {
        ("vauts.py", "vaut_inverse"),
        ("vauts.py", "restrict_vaut"),
        ("vauts.py", "vaut_compose"),
    }


def test_trusted_vaut_builders_skip_the_check(monkeypatch):
    calls = []
    checks = TwoArrowVaut.__post_init__

    def post_init(self):
        calls.append(self)
        checks(self)

    monkeypatch.setattr(TwoArrowVaut, "__post_init__", post_init)
    checked_inverse(identity_vaut(2))
    assert len(calls) == 1  # the counter sees the public constructor
    calls.clear()
    shipped = list(shipped_automorphisms(2))
    covers = enumerate_covers(2, 2)
    for k, v in enumerate(shipped):
        restricted = restrict_vaut(v, covers[k])
        vaut_inverse(restricted)
        vaut_compose(v, restricted)
        vaut_compose(restricted, shipped[k - 1])
        assert certified_in_caut(restricted, depth=k % 2)
    assert calls == []


def test_certificate_matches_the_checked_restriction_oracle():
    rng = random.Random(53)
    shipped = list(shipped_automorphisms(2))
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
    (certified_in_caut, (identity_vaut(2), 2), "^depth must be 0 or 1, got 2$"),
    (certified_in_caut, (identity_vaut(2), 10**6), "^depth must be 0 or 1, got 1000000$"),
])
def test_trusted_vaut_builders_name_a_bad_argument(build, args, name):
    with pytest.raises(IncompatibleTower, match=name):
        build(*args)


def test_caut_certification():
    assert certified_in_caut(identity_vaut(2), depth=0)
    for v in shipped_automorphisms(2):
        assert certified_in_caut(v, depth=1)
    restricted = restrict_vaut(
        by_name("handle_swap"),
        double_cover_from_signs(2, (1, 0, 0, 0)),
    )
    assert certified_in_caut(restricted, depth=1)


def test_depth_zero_certificate_builds_no_cover():
    """Every cover factors through the trivial one, so depth 0 holds
    without a fiber product, here on a restricted vaut that no cache holds."""
    restricted = restrict_vaut(
        by_name("twist_b1_along_a1"), enumerate_covers(2, 3)[5]
    )
    before = fiber_product.cache_info()
    assert certified_in_caut(restricted, depth=0)
    assert fiber_product.cache_info() == before
    # the step it skips holds in both directions, as the oracle still checks
    assert oracle_restricts_to(restricted, trivial_cover(2))
    assert oracle_restricts_to(checked_inverse(restricted), trivial_cover(2))


def perturbed_twist_restriction():
    """A restriction of twist_b1_along_a1 and its fwd table with fwd[0]
    changed by a commutator: the same map on homology, but no homomorphism."""
    twist = by_name("twist_b1_along_a1")
    v = restrict_vaut(twist, enumerate_covers(2, 2)[0])
    w0, w1 = v.fwd[0], v.fwd[1]
    bad = free_reduce(w0 + w1 + inverse_word(w0) + inverse_word(w1) + w0)
    return v, (bad,) + v.fwd[1:]


def test_relator_check_rejects_a_table_that_is_not_a_homomorphism():
    """The perturbed table passes the homology oracle, and the constructor
    rejects it, on either side, by the lifted relator."""
    v, fwd = perturbed_twist_restriction()
    assert homology_invertible(v.left, v.right, fwd, v.bwd)
    with pytest.raises(
        InvalidAutomorphism, match=r"^fwd does not kill the relator lifted at sheet 0$"
    ):
        TwoArrowVaut(v.left, v.right, fwd, v.bwd)
    with pytest.raises(
        InvalidAutomorphism, match=r"^bwd does not kill the relator lifted at sheet 0$"
    ):
        TwoArrowVaut(v.right, v.left, v.bwd, fwd)
    doc = vaut_document(v)
    doc["identification"]["fwd"][0] = list(fwd[0])
    with pytest.raises(InvalidAutomorphism, match="^fwd does not kill"):
        parse_vaut(doc)


def test_the_homology_oracle_agrees_with_the_constructor():
    """Every shipped, restricted, inverted and composed vaut built here is
    invertible on homology; a perturbed table that the oracle rejects, the
    constructor rejects too."""
    rng = random.Random(59)
    shipped = [identity_vaut(2)] + list(shipped_automorphisms(2))
    covers = [c for d in (1, 2) for c in enumerate_covers(2, d)]
    covers += rng.sample(enumerate_covers(2, 3), 8) + [mod2_homology_cover(2)]
    restricted = [restrict_vaut(rng.choice(shipped), c) for c in covers]
    inverted = [vaut_inverse(v) for v in shipped + restricted]
    composed = [vaut_compose(rng.choice(shipped), rng.choice(restricted)) for _ in range(6)]
    composed += [vaut_compose(rng.choice(inverted), rng.choice(composed)) for _ in range(4)]
    pool = shipped + restricted + inverted + composed
    for v in pool:
        assert homology_invertible(v.left, v.right, v.fwd, v.bwd)
    found = set()
    for v in pool + [perturbed_twist_restriction()[0]]:
        if max(v.left.degree, v.right.degree) > 4:
            continue
        for _ in range(3):
            fwd = list(v.fwd)
            k, j = rng.randrange(len(fwd)), rng.randrange(len(fwd))
            fwd[k] = rng.choice((fwd[k] + fwd[j], fwd[j], inverse_word(fwd[k]),
                                 fwd[k] + fwd[j] + inverse_word(fwd[k]) + inverse_word(fwd[j])))
            oracle = homology_invertible(v.left, v.right, fwd, v.bwd)
            try:
                TwoArrowVaut(v.left, v.right, fwd, v.bwd)
                accepted = True
            except InvalidAutomorphism:
                accepted = False
            assert oracle or not accepted
            found.add((oracle, accepted))
    assert (False, False) in found and (True, False) in found
