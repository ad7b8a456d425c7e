"""Exact integer linear algebra kernel.

Entries are plain Python ``int`` (arbitrary precision) and elimination
is fraction-free, so every operation here is exact by construction and
a rational result comes back as integer numerators over one common
positive denominator D.  Matrices are small and dense: lists of rows.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DegenerateGeometry, DimensionMismatch

Row = Sequence[int]


def _eliminate(m: list[list[int]], n: int) -> int:
    """Bareiss forward pass over the first n columns of the n-row matrix m.

    Works in place on rows of any width >= n.  After step k every entry of
    rows k+1.. is a (k+2)-by-(k+2) minor of the input (Sylvester's
    identity), so each division by the previous pivot is exact.  Returns
    the sign of the row permutation used, or 0 when one of the first n-1
    columns has no pivot (the leading n-by-n block is singular).
    """
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        rk = m[k]
        pivot = rk[k]
        width = len(rk)
        for i in range(k + 1, n):
            ri = m[i]
            mik = ri[k]
            for j in range(k + 1, width):
                ri[j] = (ri[j] * pivot - mik * rk[j]) // prev
            ri[k] = 0
        prev = pivot
    return sign


def det_int(m: list[list[int]]) -> int:
    """Bareiss determinant of a square integer matrix. Destroys m."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatch("determinant requires a square matrix")
    if n == 0:
        return 1
    return _eliminate(m, n) * m[-1][-1]


def _solve_int(m: list[list[int]], n: int) -> tuple[list[tuple[int, ...]], int]:
    """Solve the integer system [A | B] (n rows, A square) fraction-free.

    Destroys m.  Returns (Y, D) with D the last Bareiss pivot, which is
    +-det A, and Y = D * A^-1 B.  By Cramer's rule every entry of D * A^-1 B
    is +-det of A with one column replaced by a column of B, an integer, so
    the back substitution u_ii y_i = D b'_i - sum_{j>i} u_ij y_j on the
    eliminated triangular system has an integral quotient and each ``//``
    is exact.  Raises DegenerateGeometry when A is singular.
    """
    if _eliminate(m, n) == 0 or m[n - 1][n - 1] == 0:
        raise DegenerateGeometry("singular linear system")
    d = m[n - 1][n - 1]
    y: list[tuple[int, ...]] = [()] * n
    for i in range(n - 1, -1, -1):
        ri = m[i]
        y[i] = tuple(
            [
                (d * ri[c] - sum(ri[j] * y[j][c - n] for j in range(i + 1, n)))
                // ri[i]
                for c in range(n, len(ri))
            ]
        )
    return y, d


def rank(rows: Sequence[Row]) -> int:
    """Rank of a rectangular integer matrix (fraction-free row elimination)."""
    if not rows:
        return 0
    m = [list(row) for row in rows]
    nrows, ncols = len(m), len(m[0])
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pr = m[r]
        for i in range(r + 1, nrows):
            if m[i][col] != 0:
                a, b = pr[col], m[i][col]
                m[i] = [a * x - b * y for x, y in zip(m[i], pr)]
        r += 1
        if r == nrows:
            break
    return r


def integer_solve(rows: Sequence[Row], rhs: Row) -> tuple[list[int], int]:
    """Solve a square integer linear system A x = b as integers over D > 0.

    Returns (y, D) with y = D * x for the solution x.  Bareiss elimination
    of [A | b] stays in the integers (every ``//`` in the forward pass
    divides a minor by a minor it is a multiple of), and back substitution
    computes y = D x with D = +-det A, which Cramer's rule makes integral
    (see _solve_int).  Negating y and D together makes D > 0.

    Raises DegenerateGeometry if the matrix is singular.
    """
    n = len(rows)
    if len(rhs) != n or any(len(r) != n for r in rows):
        raise DimensionMismatch("solve requires a square system")
    if n == 0:
        return [], 1
    y, d = _solve_int([[*row, b] for row, b in zip(rows, rhs)], n)
    if d < 0:
        return [-yi for (yi,) in y], -d
    return [yi for (yi,) in y], d


def integer_inverse(rows: Sequence[Row]) -> tuple[list[tuple[int, ...]], int]:
    """Inverse of a square integer matrix as an integer matrix over D > 0.

    Returns (Y, D) with rows * Y = D * I: D is |det| and Y is the adjugate
    up to the sign of det, the solution of [A | I] scaled by D (_solve_int).
    Raises DegenerateGeometry if the matrix is singular.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("inverse requires a square matrix")
    if n == 0:
        return [], 1
    m = [[*row, *(int(j == i) for j in range(n))] for i, row in enumerate(rows)]
    y, d = _solve_int(m, n)
    if d < 0:
        y, d = [tuple([-x for x in row]) for row in y], -d
    return y, d


def affine_rank(points: Sequence[Row]) -> int:
    """Dimension of the affine hull of a nonempty point list (0 for one point)."""
    if not points:
        raise DimensionMismatch("affine_rank of an empty point list")
    dim = len(points[0])
    if any(len(p) != dim for p in points):
        raise DimensionMismatch("points of mixed dimension")
    base = points[0]
    return rank([[x - y for x, y in zip(p, base)] for p in points[1:]])
