import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from covertower.exact_linalg import (
    generates_integer_lattice,
    rational_nullspace,
)

from test_traintrack import extreme_rays


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


# Matrices with no rows or no columns, as (matrix, rows, cols).
EMPTY_MATRICES = [([], 0, 0), ([], 0, 3), ([[], [], []], 3, 0)]


def _sympy_generates(mat, rows, cols) -> bool:
    """The rows generate Z^cols iff the Smith form has cols unit divisors."""
    divisors = []
    if rows and cols:
        divisors = [e for e in sympy_snf(sympy.Matrix(mat)).diagonal() if e != 0]
    return len(divisors) == cols and all(abs(e) == 1 for e in divisors)


def test_lattice_check_matches_sympy_smith():
    rng = random.Random(11)
    cases = list(EMPTY_MATRICES)
    for trial in range(120):
        rows, cols = rng.randint(1, 6), rng.randint(1, 5)
        mat = random_matrix(rng, rows, cols, -3, 3)
        kind = trial % 4
        if kind == 1:  # a column of even entries: index divisible by 2 at full rank
            for row in mat:
                row[0] *= 2
        elif kind == 2:  # a repeated column: rank-deficient
            for row in mat:
                row[-1] = row[0]
        elif kind == 3:  # unit rows appended: always generates
            mat += [[int(i == j) for j in range(cols)] for i in range(cols)]
            rows += cols
        cases.append((mat, rows, cols))
    outcomes = []
    for mat, rows, cols in cases:
        want = _sympy_generates(mat, rows, cols)
        assert generates_integer_lattice(mat, cols) == want, mat
        full_rank = bool(rows and cols) and sympy.Matrix(mat).rank() == cols
        outcomes.append((want, full_rank))
    # both answers occur, and some full-rank matrices have index > 1
    assert {want for want, _ in outcomes} == {True, False}
    assert (False, True) in outcomes


def _sympy_nullspace(mat, rows, cols):
    """sympy's nullspace basis, free coordinate 1 and the others 0, as Fractions."""
    basis = sympy.Matrix(rows, cols, [x for row in mat for x in row]).nullspace()
    return [[Fraction(int(x.p), int(x.q)) for x in vec] for vec in basis]


def test_nullspace_matches_sympy_basis():
    from covertower.covers import enumerate_covers, mod2_homology_cover
    from covertower.traintrack import lift_track, three_branch_example

    cases = list(EMPTY_MATRICES)
    for seed, trials, top in ((19, 15, 5), (7, 25, 6)):
        rng = random.Random(seed)
        for _ in range(trials):
            rows, cols = rng.randint(1, top), rng.randint(1, top)
            cases.append((random_matrix(rng, rows, cols), rows, cols))
    rng = random.Random(23)
    for _ in range(30):  # Fraction entries, some rank-deficient
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(cols)]
               for _ in range(rows)]
        if cols > 1:
            for row in mat:
                row[-1] = row[0] / 3 - row[1]
        cases.append((mat, rows, cols))
    track = three_branch_example()
    covers = [c for d in (1, 2, 3) for c in enumerate_covers(2, d)] + [mod2_homology_cover(2)]
    for cover in covers:
        mat = lift_track(track, cover)[0].track.switch_matrix()
        cases.append((mat, len(mat), len(mat[0])))
    assert len(covers) == 237
    for mat, rows, cols in cases:
        basis = rational_nullspace(mat, cols)
        assert basis == _sympy_nullspace(mat, rows, cols), mat
        assert all(type(x) is Fraction for vec in basis for x in vec)
    for mat, rows, cols in EMPTY_MATRICES:
        # with no equations the nullspace is the whole space, in unit vectors
        basis = rational_nullspace(mat, cols)
        assert basis == [[Fraction(int(i == j)) for j in range(cols)] for i in range(cols)]
    # the lifted switch conditions leave a cone of positive dimension
    assert all(rational_nullspace(mat, cols) for mat, _, cols in cases[-237:])


def test_extreme_rays_quadrant():
    # single balance equation x0 + x1 = x2 in R^3: rays (1,0,1) and (0,1,1)
    rays = extreme_rays([[1, 1, -1]], 3)
    assert sorted(tuple(r) for r in rays) == [(0, 1, 1), (1, 0, 1)]


def test_extreme_rays_budget():
    from covertower.errors import SearchBudgetExceeded

    with pytest.raises(SearchBudgetExceeded):
        extreme_rays([[1] * 40], 40, budget=10)
