"""Exact integer and rational linear algebra used by homology and tracks.

Conventions are row-vector based throughout: a lattice is the row space of
its matrix, and basis changes act by right multiplication.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .errors import SearchBudgetExceeded


def generates_integer_lattice(rows, n: int) -> bool:
    """True iff the integer rows of length n generate all of Z^n.

    Euclid's algorithm on each column in turn leaves one row with the gcd
    of that column; the rows generate Z^n iff every such gcd is +-1.
    """
    rows = [list(row) for row in rows]
    for j in range(n):
        live = [row for row in rows if row[j]]
        while len(live) > 1:
            pivot = min(live, key=lambda row: abs(row[j]))
            for row in live:
                if row is not pivot:
                    q = row[j] // pivot[j]
                    row[:] = [a - q * b for a, b in zip(row, pivot)]
            live = [row for row in live if row[j]]
        if not live or abs(live[0][j]) != 1:
            return False
        rows = [row for row in rows if row is not live[0]]
    return True


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

