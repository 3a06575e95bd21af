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


def test_nullspace_matches_sympy_dimension():
    cases = []
    for seed, trials, top in ((19, 15, 5), (7, 25, 6)):
        rng = random.Random(seed)
        for _ in range(trials):
            cases.append(random_matrix(rng, rng.randint(1, top), rng.randint(1, top)))
    for mat in cases:
        cols = len(mat[0])
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
