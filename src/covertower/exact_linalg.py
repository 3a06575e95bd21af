"""Exact integer and rational linear algebra used by covers, tracks and vauts.

Conventions are row-vector based throughout: a lattice is the row space of
its matrix, and basis changes act by right multiplication.
"""

from __future__ import annotations

from fractions import Fraction


def _echelon(rows, n: int) -> list[tuple[int, list]]:
    """Echelon form of integer or Fraction rows in their first n columns
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4).

    Euclid's algorithm on each column in turn, among the rows not yet
    pivots, leaves one row with the gcd of that column.  Returns the
    (column, pivot row) pairs in column order; a pivot row is zero left of
    its column.
    """
    rows = [list(row) for row in rows]
    pivots = []
    for j in range(n):
        live = [row for row in rows if row[j]]
        while len(live) > 1:
            pivot = min(live, key=lambda row: abs(row[j]))
            for row in live:
                if row is not pivot:
                    q = row[j] // pivot[j]
                    row[:] = [a - q * b for a, b in zip(row, pivot)]
            live = [row for row in live if row[j]]
        if live:
            pivots.append((j, live[0]))
            rows = [row for row in rows if row is not live[0]]
    return pivots


def generates_integer_lattice(rows, n: int) -> bool:
    """True iff the integer rows of length n generate all of Z^n: iff the
    echelon form has a pivot in every column, each +-1."""
    pivots = _echelon(rows, n)
    return len(pivots) == n and all(abs(row[j]) == 1 for j, row in pivots)


def rational_nullspace(mat, n_cols: int | None = None):
    """Basis of the right nullspace {x : mat @ x = 0}, as Fraction columns:
    per free column c, x_c = 1, the other free x 0, and the pivot x
    back-substituted, last first.  This is the reduced echelon basis."""
    n = n_cols if n_cols is not None else (len(mat[0]) if mat else 0)
    pivots = _echelon(mat, n)
    steps = [  # (pivot column, its entry, the nonzero entries right of it)
        (j, Fraction(row[j]), [(k, row[k]) for k in range(j + 1, n) if row[k]])
        for j, row in reversed(pivots)
    ]
    basis = []
    for c in sorted(set(range(n)) - {j for j, _ in pivots}):
        vec = [Fraction(0)] * n
        vec[c] = Fraction(1)
        for j, lead, right in steps:
            vec[j] = -sum(a * vec[k] for k, a in right) / lead
        basis.append(vec)
    return basis


def mat_vec(a, x):
    return [sum(r * v for r, v in zip(row, x)) for row in a]
