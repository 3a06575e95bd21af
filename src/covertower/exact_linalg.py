"""Exact integer and rational linear algebra used by covers, tracks and vauts.

Conventions are row-vector based throughout: a lattice is the row space of
its matrix, and basis changes act by right multiplication.
"""

from __future__ import annotations

from fractions import Fraction


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


def mat_vec(a, x):
    return [sum(r * v for r, v in zip(row, x)) for row in a]

