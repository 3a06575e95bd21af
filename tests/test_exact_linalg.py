import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from covertower.exact_linalg import (
    extreme_rays,
    mat_mul,
    mat_vec,
    rational_nullspace,
    rational_rank,
    smith_normal_form,
)


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


# Matrices with no rows or no columns, as (matrix, rows, cols).
EMPTY_MATRICES = [([], 0, 0), ([], 0, 3), ([[], [], []], 3, 0)]


def test_smith_divisors_match_sympy():
    rng = random.Random(11)
    for trial in range(25):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = random_matrix(rng, rows, cols)
        divisors, v, vinv = smith_normal_form(mat)
        sym = sympy.Matrix(mat)
        expected = [int(e) for e in sympy_snf(sym).diagonal() if e != 0]
        assert list(divisors) == [abs(e) for e in expected]


def test_smith_transform_contract():
    # y = x*V has support exactly on the first rank coordinates for rows x,
    # and V*Vinv is the identity
    rng = random.Random(3)
    for trial in range(10):
        mat = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        divisors, v, vinv = smith_normal_form(mat)
        n = len(v)
        prod = mat_mul(v, vinv)
        assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        rank = len(divisors)
        for row in mat:
            y = mat_vec([[v[i][j] for i in range(n)] for j in range(n)], row)
            # row*V lies in the span of the first rank coordinates scaled by divisors
            y2 = [sum(row[i] * v[i][j] for i in range(n)) for j in range(n)]
            assert all(y2[j] % divisors[j] == 0 for j in range(rank))
            assert all(y2[j] == 0 for j in range(rank, n))


def test_rational_rank_matches_sympy():
    rng = random.Random(7)
    for trial in range(25):
        mat = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rational_rank(mat) == sympy.Matrix(mat).rank()
    for mat, rows, cols in EMPTY_MATRICES:
        assert rational_rank(mat) == sympy.zeros(rows, cols).rank() == 0


def test_nullspace_matches_sympy_dimension():
    rng = random.Random(19)
    for trial in range(15):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = random_matrix(rng, rows, cols)
        basis = rational_nullspace(mat, cols)
        assert len(basis) == cols - sympy.Matrix(mat).rank()
        for vec in basis:
            image = [sum(Fraction(a) * x for a, x in zip(row, vec)) for row in mat]
            assert all(entry == 0 for entry in image)
    for mat, rows, cols in EMPTY_MATRICES:
        basis = rational_nullspace(mat, cols)
        assert len(basis) == cols - sympy.zeros(rows, cols).rank()
        # with no equations the nullspace is the whole space, in unit vectors
        assert basis == [[Fraction(int(i == j)) for j in range(cols)] for i in range(cols)]


def test_extreme_rays_quadrant():
    # single balance equation x0 + x1 = x2 in R^3: rays (1,0,1) and (0,1,1)
    rays = extreme_rays([[1, 1, -1]], 3)
    assert sorted(tuple(r) for r in rays) == [(0, 1, 1), (1, 0, 1)]


def test_extreme_rays_budget():
    from covertower.errors import SearchBudgetExceeded

    with pytest.raises(SearchBudgetExceeded):
        extreme_rays([[1] * 40], 40, budget=10)
