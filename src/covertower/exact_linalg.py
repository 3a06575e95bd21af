"""Exact integer and rational linear algebra used by homology and tracks.

Conventions are row-vector based throughout: a lattice is the row space of
its matrix, and basis changes act by right multiplication.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .errors import SearchBudgetExceeded


def smith_normal_form(mat):
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns (divisors, V, Vinv) where divisors are the positive elementary
    divisors d1 | d2 | ... and V, Vinv are mutually inverse unimodular n x n
    integer matrices recording the column operations: for a row vector x of
    length n, the coordinates of x in the diagonalized basis are x @ V, and
    the original coordinates of a diagonal-basis unit vector j are row j of
    Vinv.  Row operations are discarded.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [list(row) for row in mat]
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_col(i, j, k):
        # column j += k * column i
        for row in a:
            row[j] += k * row[i]
        for row in v:
            row[j] += k * row[i]
        vinv[i] = [x - k * y for x, y in zip(vinv[i], vinv[j])]

    def negate_col(i):
        for row in a:
            row[i] = -row[i]
        for row in v:
            row[i] = -row[i]
        vinv[i] = [-x for x in vinv[i]]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def add_row(i, j, k):
        a[j] = [x + k * y for x, y in zip(a[j], a[i])]

    divisors = []
    t = 0
    while t < m and t < n:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        while True:
            # Reduce column t below the pivot, then row t right of the pivot.
            done = True
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        if a[t][t] < 0:
            negate_col(t)
        # Enforce divisibility of later entries by the pivot.
        stray = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    stray = i
                    break
            if stray is not None:
                break
        if stray is not None:
            add_row(stray, t, 1)
            continue
        divisors.append(a[t][t])
        t += 1
    return divisors, v, vinv


def _rref(rows, n: int) -> list[int]:
    """Gauss-Jordan elimination in place on rows of Fractions.

    Pivots are taken in the first n columns.  Returns the pivot column of
    each leading row, in order.
    """
    pivots: list[int] = []
    for col in range(n):
        rank = len(pivots)
        if rank == len(rows):
            break
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        lead = rows[rank] = [x * inv for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col] != 0:
                f = row[col]
                rows[i] = [x - f * y for x, y in zip(row, lead)]
        pivots.append(col)
    return pivots


def rational_rank(mat) -> int:
    n = len(mat[0]) if mat else 0
    return len(_rref([[Fraction(x) for x in row] for row in mat], n))


def rational_nullspace(mat, n_cols: int | None = None):
    """Basis of the right nullspace {x : mat @ x = 0}, as Fraction columns."""
    n = n_cols if n_cols is not None else (len(mat[0]) if mat else 0)
    a = [[Fraction(x) for x in row] for row in mat]
    pivots = _rref(a, n)
    basis = []
    for c in range(n):
        if c in pivots:
            continue
        vec = [Fraction(0)] * n
        vec[c] = Fraction(1)
        for row, pc in zip(a, pivots):
            vec[pc] = -row[c]
        basis.append(vec)
    return basis


def mat_mul(a, b):
    if not a:
        return []
    inner = len(a[0])
    if len(b) != inner:
        raise ValueError("inner dimensions do not match")
    cols = len(b[0]) if b else 0
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for row in a
    ]


def mat_vec(a, x):
    return [sum(r * v for r, v in zip(row, x)) for row in a]


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
    max_size = rational_rank(eq_matrix) + 1 if eq_matrix else 1
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

