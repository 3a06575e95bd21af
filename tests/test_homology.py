import random
from fractions import Fraction

import pytest
import sympy

from covertower.covers import (
    enumerate_covers,
    factors_through,
    fiber_product,
    mod2_homology_cover,
    pull_back,
    schreier_loop,
    trivial_cover,
)
from covertower.errors import ComplexMismatch, DimensionMismatch, NonIntegerWeights
from covertower.homology import CoverComplex, surface_complex
from covertower.surface import standard_symplectic, surface_relator
from conftest import double_cover_from_signs, face_boundary_chain


def boundary_matrices(cx):
    """Independent chain-complex boundaries for the oracle: d2 then d1."""
    d1 = []
    for e in range(cx.n_edges):
        gen, tail = cx.edge_of_index(e)
        head = cx.cover.perms[gen][tail]
        row = [0] * cx.cover.degree
        row[head] += 1
        row[tail] -= 1
        d1.append(row)
    d2 = [list(face_boundary_chain(cx, face)) for face in cx.faces]
    return sympy.Matrix(d2), sympy.Matrix(d1)


def face_word(cx, face) -> tuple[int, ...]:
    out = []
    for dart in face:
        e, rev = divmod(dart, 2)
        i, _ = cx.edge_of_index(e)
        out.append(-(i + 1) if rev else i + 1)
    return tuple(out)


def lifted_faces(cx):
    """The relator read from each sheet, in darts, started at its smallest
    dart and sorted by it: the oracle for the faces traced from the rotation."""
    relator, d = surface_relator(cx.cover.genus), cx.cover.degree
    faces = []
    for sheet in range(d):
        edges, _ = cx.cover.walk(relator, sheet)
        face = [2 * (i * d + s) + (sign < 0) for i, s, sign in edges]
        k = face.index(min(face))
        faces.append(tuple(face[k:] + face[:k]))
    return sorted(faces)


def check_complex(cx):
    """Oracle for the traced faces: they are the lifted relator faces, in
    the same order, and each spells the relator and crosses a1 once."""
    d, g = cx.cover.degree, cx.cover.genus
    if cx.faces != lifted_faces(cx):
        raise ComplexMismatch("traced faces differ from the lifted relator faces")
    if len(cx.faces) != d:
        raise ComplexMismatch(f"expected {d} faces, traced {len(cx.faces)}")
    if cx.euler_characteristic != d * (2 - 2 * g):
        raise ComplexMismatch("Euler characteristic disagrees with the degree")
    relator = surface_relator(g)
    marks = set()
    for face in cx.faces:
        if len(face) != 4 * g:
            raise ComplexMismatch("face boundary has wrong length")
        word = face_word(cx, face)
        doubled = word + word
        if not any(doubled[k : k + len(relator)] == relator for k in range(len(word))):
            raise ComplexMismatch("face boundary does not spell the relator")
        # the relator uses the letter a1 exactly once, so each face holds
        # exactly one forward a1-dart; those darts separate the faces
        first_gen = [dart for dart, letter in zip(face, word) if letter == 1]
        if len(first_gen) != 1:
            raise ComplexMismatch("face does not cross a1 exactly once")
        marks.add(cx.edge_of_index(first_gen[0] // 2)[1])
    if len(marks) != d:
        raise ComplexMismatch("faces are not separated by their a1 edges")


def random_cycle(cx, rng):
    chain = list(cx.zero_chain())
    for _ in range(3):
        face = cx.faces[rng.randrange(len(cx.faces))]
        b = face_boundary_chain(cx, face)
        c = rng.randint(-2, 2)
        chain = [x + c * y for x, y in zip(chain, b)]
    for gen in range(4):
        cls = [0, 0, 0, 0]
        cls[gen] = rng.randint(-2, 2)
        chain = [x + y for x, y in zip(chain, cx.transfer(cls))]
    return chain


def vertex_strands(cx, chain, v, offset):
    """Strands of a cycle through vertex v as (arrive, depart) positions.

    Ends sit at 4*position in the rotation; offset 1 shifts departures +1/4
    and arrivals -1/4 slot, producing the parallel copy.
    """
    arrive = []
    depart = []
    for pos, dart in enumerate(cx.rotation[v]):
        e, rev = divmod(dart, 2)
        coeff = chain[e]
        # traversals leave v along a forward dart at its tail, and arrive
        # along the reverse dart at the head
        leaving, arriving = max(coeff, 0), max(-coeff, 0)
        if rev:
            leaving, arriving = arriving, leaving
        depart += [4 * pos + offset] * leaving
        arrive += [4 * pos - offset] * arriving
    assert len(arrive) == len(depart), "cycle has unbalanced ends at a vertex"
    return list(zip(sorted(arrive), sorted(depart)))


def strand_intersection(cx, chain1, chain2):
    """Oracle for CoverComplex.intersection: count chord crossings directly.

    Both cycles are split into strands through each vertex, arriving ends
    matched to departing ends in rotation order; the second cycle is the
    pushed-off copy.  Each strand of the second cycle that enters a chord
    of the first counts +1 and each that leaves it counts -1.
    """
    assert cx.is_cycle(chain1) and cx.is_cycle(chain2)
    total = 0
    m = 4 * len(cx.rotation[0])
    for v in range(cx.n_vertices):
        for x1, x2 in vertex_strands(cx, chain1, v, 0):
            arc = (x2 - x1) % m
            for y1, y2 in vertex_strands(cx, chain2, v, 1):
                total += ((y2 - x1) % m < arc) - ((y1 - x1) % m < arc)
    return total


def random_loop_cycle(cx, rng):
    """Schreier loops, lifted generators and face boundaries, random weights."""
    cover = cx.cover
    chain = list(cx.zero_chain())
    loops = cover.schreier.nontree
    parts = [cover.chain([(schreier_loop(cover, e), 0, 1)]) for e in rng.sample(loops, 2)]
    parts += [face_boundary_chain(cx, f) for f in rng.sample(cx.faces, min(2, len(cx.faces)))]
    parts.append(cx.transfer([rng.randint(-1, 1) for _ in range(cx.n_generators)]))
    for part in parts:
        c = rng.randint(-2, 2)
        chain = [x + c * y for x, y in zip(chain, part)]
    return chain


def test_complex_counts():
    for cover in enumerate_covers(2, 2):
        cx = CoverComplex(cover)
        d = cover.degree
        assert cx.n_edges == 4 * d
        assert len(cx.faces) == d
        assert cx.euler_characteristic == d - 4 * d + d
        check_complex(cx)


def test_lifted_faces_match_the_traced_faces():
    covers = [c for d in range(1, 5) for c in enumerate_covers(2, d)]
    covers += [c for d in (1, 2) for c in enumerate_covers(3, d)]
    assert sum(c.genus == 3 for c in covers) == 64
    for cover in covers + [mod2_homology_cover(2)]:
        check_complex(CoverComplex(cover))


def test_faces_are_built_on_first_read_and_kept():
    cx = CoverComplex(mod2_homology_cover(2))
    assert cx.genus == 17
    assert cx._faces is None
    faces = cx.faces
    assert faces == lifted_faces(cx)
    assert cx.faces is faces


def test_complex_oracle_rejects_wrong_faces():
    cx = CoverComplex(double_cover_from_signs(2, (1, 0, 0, 0)))
    face = cx.faces[1]
    cx._faces = [cx.faces[0], face[1:] + face[:1]]
    with pytest.raises(ComplexMismatch, match="traced"):
        check_complex(cx)


def test_edge_indexing_round_trip():
    cx = CoverComplex(double_cover_from_signs(2, (1, 1, 0, 0)))
    for e in range(cx.n_edges):
        gen, sheet = cx.edge_of_index(e)
        assert cx.edge_index(gen, sheet) == e


def test_face_words_spell_the_relator():
    relator = surface_relator(2)
    for cover in enumerate_covers(2, 3)[:40]:
        cx = CoverComplex(cover)
        for face in cx.faces:
            word = face_word(cx, face)
            doubled = word + word
            assert any(
                doubled[k : k + len(relator)] == relator for k in range(len(word))
            )


def test_genus_matches_degree_formula():
    for d in (1, 2, 3):
        for cover in enumerate_covers(2, d):
            assert CoverComplex(cover).genus == cover.total_genus


def test_homology_rank():
    for cover in enumerate_covers(2, 2):
        cx = CoverComplex(cover)
        assert len(cx.homology_basis()) == 2 * cx.genus == 6


def test_rank_against_sympy_boundaries():
    rng = random.Random(13)
    covers = list(enumerate_covers(2, 1)) + list(enumerate_covers(2, 2))
    covers += rng.sample(enumerate_covers(2, 3), 6)
    covers.append(mod2_homology_cover(2))
    for cover in covers:
        cx = CoverComplex(cover)
        d2, d1 = boundary_matrices(cx)
        cycles = cx.n_edges - d1.rank()
        basis = cx.homology_basis()
        assert len(basis) == cycles - d2.rank() == 2 * cover.total_genus
        # closed orientable surface homology is torsion free
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        divisors = [e for e in sympy_snf(d2).diagonal() if e != 0]
        assert all(abs(e) == 1 for e in divisors)
        # with the rank, these make class_coordinates an isomorphism
        # H_1 -> Z^(2g'): onto, as it sends the basis to the unit vectors,
        # and well defined, as every face boundary goes to zero
        n = len(basis)
        assert [list(cx.class_coordinates(b)) for b in basis] == [
            [int(i == j) for j in range(n)] for i in range(n)
        ]
        for face in cx.faces:
            assert not any(cx.class_coordinates(face_boundary_chain(cx, face)))


def pairing_matrix(cx):
    basis = cx.homology_basis()
    return [[cx.intersection(b1, b2) for b2 in basis] for b1 in basis]


def test_base_pairing_is_standard_symplectic():
    cx = CoverComplex(trivial_cover(2))
    assert pairing_matrix(cx) == standard_symplectic(2)


def test_pairing_calibration_a1_b1():
    cx = CoverComplex(trivial_cover(2))
    a1 = cx.cover.chain([((1,), 0, 1)])
    b1 = cx.cover.chain([((2,), 0, 1)])
    a2 = cx.cover.chain([((3,), 0, 1)])
    assert cx.intersection(a1, b1) == 1
    assert cx.intersection(b1, a1) == -1
    assert cx.intersection(a1, a2) == 0
    assert cx.intersection(a1, a1) == 0


def test_pairing_matrix_unimodular_and_skew():
    for cover in enumerate_covers(2, 2)[:6]:
        cx = CoverComplex(cover)
        mat = pairing_matrix(cx)
        assert abs(sympy.Matrix(mat).det()) == 1
        n = len(mat)
        for i in range(n):
            for j in range(n):
                assert mat[i][j] == -mat[j][i]


def test_cycles_and_boundaries():
    cx = CoverComplex(double_cover_from_signs(2, (1, 0, 0, 0)))
    for face in cx.faces:
        b = face_boundary_chain(cx, face)
        assert cx.is_cycle(b)
        assert all(c == 0 for c in cx.class_coordinates(b))
    path = cx.cover.chain([((1,), 0, 1)])  # runs to the other sheet, stays open
    assert not cx.is_cycle(path)
    loop = cx.cover.chain([((1, 1), 0, 1)])
    assert cx.is_cycle(loop)
    for length in (0, 7, 9):  # never truncated to the 8 edges and read as a cycle
        with pytest.raises(ComplexMismatch, match="^chain has wrong length$"):
            cx.is_cycle([0] * length)


def test_word_path_pushforward():
    cover = double_cover_from_signs(2, (0, 1, 1, 0))
    cx = CoverComplex(cover)
    base = CoverComplex(trivial_cover(2))
    w = (1, -2, 3, 4)
    for sheet in range(cover.degree):
        pushed = cx.pushforward(cx.cover.chain([(w, sheet, 1)]))
        assert list(pushed) == list(base.cover.chain([(w, 0, 1)]))


def _chain_covers():
    rng = random.Random(5)
    return list(enumerate_covers(2, 2)) + rng.sample(enumerate_covers(2, 3), 8)


def test_chain_sums_its_terms():
    rng = random.Random(13)
    for cover in _chain_covers():
        terms = []
        for _ in range(4):
            word = tuple(rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(rng.randint(0, 6)))
            terms.append((word, rng.randrange(cover.degree), rng.randint(-3, 3)))
        total = [0] * (4 * cover.degree)
        for word, sheet, coeff in terms:
            single = cover.chain([(word, sheet, 1)])
            total = [x + coeff * y for x, y in zip(total, single)]
        assert cover.chain(terms) == total
        assert cover.chain(iter(terms)) == total  # terms are read once


def test_chain_of_no_terms_is_zero():
    for cover in [trivial_cover(2), *_chain_covers(), mod2_homology_cover(2)]:
        assert cover.chain([]) == [0] * (2 * cover.genus * cover.degree)
    assert trivial_cover(3).chain(()) == [0] * 6


def test_closed_lift_is_a_cycle():
    closes = set()
    for cover in _chain_covers():
        cx = CoverComplex(cover)
        for sheet in range(cover.degree):
            for w in ((1, 2, -1, -2), surface_relator(2), (3,) * 6):
                closed = cover.act(w, sheet) == sheet
                assert cx.is_cycle(cover.chain([(w, sheet, 1)])) == closed
                closes.add(closed)
        for loop in cover.loops:
            assert cx.is_cycle(cover.chain([(loop, 0, 2)]))
    assert closes == {True, False}


def test_chain_of_every_sheet_is_the_transfer():
    for cover in [trivial_cover(2), *_chain_covers(), mod2_homology_cover(2)]:
        cx = CoverComplex(cover)
        for i in range(cx.n_generators):
            unit = [int(i == j) for j in range(cx.n_generators)]
            lifts = cover.chain([((i + 1,), s, 1) for s in range(cover.degree)])
            assert lifts == cx.transfer(unit)


def test_transfer_laws():
    for d in (1, 2):
        for cover in enumerate_covers(2, d):
            cx = CoverComplex(cover)
            for gen in range(4):
                cls = [0, 0, 0, 0]
                cls[gen] = 1
                lifted = cx.transfer(cls)
                assert cx.is_cycle(lifted)
                pushed = cx.pushforward(lifted)
                base = CoverComplex(trivial_cover(2))
                back = base.class_coordinates(pushed)
                assert list(back) == [d * x for x in cls]


@pytest.mark.parametrize("base_class, message", [
    ((1.5, 0, 0, 0), r"base_class\[0\] must be an integer, got 1\.5"),
    (("a", 0, 0, 0), r"base_class\[0\] must be a number, got 'a'"),
    ((0, 0, 0, True), r"base_class\[3\] must be a number, got True"),
    ((0, Fraction(1, 2), 0, 0), r"base_class\[1\] must be an integer, got Fraction\(1, 2\)"),
], ids=["float", "str", "bool", "fraction"])
def test_transfer_names_a_coefficient_that_is_not_an_integer(base_class, message):
    cx = CoverComplex(double_cover_from_signs(2, (1, 0, 0, 0)))
    with pytest.raises(NonIntegerWeights, match=f"^{message}$"):
        cx.transfer(base_class)
    with pytest.raises(DimensionMismatch, match="^base_class must be a sequence, got 5$"):
        cx.transfer(5)
    lifted = cx.transfer((2.0, Fraction(-1), 0, 0))
    assert lifted == [2, 2, -1, -1, 0, 0, 0, 0]
    assert set(map(type, lifted)) == {int}


def test_transfer_pairing_scales_by_degree():
    j = standard_symplectic(2)
    for cover in enumerate_covers(2, 2):
        cx = CoverComplex(cover)
        lifted = [cx.transfer([1 if k == g else 0 for k in range(4)]) for g in range(4)]
        for i in range(4):
            for k in range(4):
                assert cx.intersection(lifted[i], lifted[k]) == 2 * j[i][k]


def test_transfer_example_value_is_two():
    # the shipped double cover of the first handle: lifted a1 meets lifted b1
    # twice, once on each sheet
    cover = double_cover_from_signs(2, (1, 0, 0, 0))
    cx = CoverComplex(cover)
    a1 = cx.transfer([1, 0, 0, 0])
    b1 = cx.transfer([0, 1, 0, 0])
    assert cx.intersection(a1, b1) == 2


def test_transfer_functorial_along_towers():
    a = double_cover_from_signs(2, (1, 0, 0, 0))
    b = double_cover_from_signs(2, (0, 0, 1, 0))
    fp = fiber_product(a, b)
    arrow = fp.to_first
    cx_a = CoverComplex(a)
    cx_w = CoverComplex(fp.cover)
    for gen in range(4):
        cls = [1 if k == gen else 0 for k in range(4)]
        direct = cx_w.transfer(cls)
        staged = pull_back(arrow, cx_a.transfer(cls))
        assert list(direct) == list(staged)


def test_intersection_invariance_under_boundaries():
    rng = random.Random(41)
    covers = list(enumerate_covers(2, 2)) + rng.sample(enumerate_covers(2, 3), 4)
    for cover in covers:
        cx = CoverComplex(cover)
        c1 = random_cycle(cx, rng)
        c2 = random_cycle(cx, rng)
        base = cx.intersection(c1, c2)
        coords = list(cx.class_coordinates(c1))
        for face in cx.faces:
            b = face_boundary_chain(cx, face)
            bumped = [x + 2 * y for x, y in zip(c1, b)]
            assert cx.intersection(bumped, c2) == base
            assert list(cx.class_coordinates(bumped)) == coords


def test_intersection_antisymmetric_and_bilinear():
    rng = random.Random(43)
    cx = CoverComplex(double_cover_from_signs(2, (1, 1, 1, 0)))
    for _ in range(10):
        c1 = random_cycle(cx, rng)
        c2 = random_cycle(cx, rng)
        c3 = random_cycle(cx, rng)
        assert cx.intersection(c1, c2) == -cx.intersection(c2, c1)
        summed = [x + y for x, y in zip(c2, c3)]
        assert cx.intersection(c1, summed) == cx.intersection(c1, c2) + cx.intersection(
            c1, c3
        )


def test_intersection_matches_strand_oracle():
    rng = random.Random(47)
    covers = [cover for d in (1, 2) for cover in enumerate_covers(2, d)]
    covers += rng.sample(enumerate_covers(2, 3), 40)
    covers += rng.sample(enumerate_covers(2, 4), 30)
    plan = [(cover, 12) for cover in covers] + [(mod2_homology_cover(2), 24)]
    pairs = nonzero = 0
    for cover, count in plan:
        cx = surface_complex(cover)
        for _ in range(count):
            c1 = random_loop_cycle(cx, rng)
            c2 = random_loop_cycle(cx, rng)
            value = cx.intersection(c1, c2)
            assert value == strand_intersection(cx, c1, c2)
            pairs += 1
            nonzero += value != 0
    assert pairs >= 1000
    assert nonzero > pairs // 4


def test_surface_complex_cache_and_validation():
    from covertower.errors import DimensionMismatch

    cover = double_cover_from_signs(2, (0, 1, 0, 0))
    assert surface_complex(cover) is surface_complex(cover)
    cx = CoverComplex(cover)
    with pytest.raises(DimensionMismatch):
        cx.transfer([1, 0, 0])
    with pytest.raises(ComplexMismatch):
        cx.intersection(cx.zero_chain(), [0] * (cx.n_edges + 1))
    with pytest.raises(ComplexMismatch):
        # open paths are not cycles, so they have no intersection number
        cx.intersection(cx.cover.chain([((2,), 0, 1)]), cx.zero_chain())
