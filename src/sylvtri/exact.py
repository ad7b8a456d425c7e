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


def _eliminate(m: list[list[int]], ncols: int) -> tuple[int, int]:
    """Bareiss reduction of m, in place, to row echelon form on its first
    ncols columns (rows may be wider); returns (rank, sign of the row
    permutation).  A column with no nonzero entry at or below the current
    row is skipped.  Every ``//`` is exact: with pivot columns K on rows
    0..r-1, each entry of a later row i and column j is the minor of the
    permuted input on rows 0..r-1, i and columns K + j, and the last pivot
    the minor on rows 0..r-1 and columns K.  Skipped columns enter no
    update, so these are plain Bareiss steps on columns K + j, whose new
    entries Sylvester's identity makes minors of the next order.
    """
    last = len(m) - 1
    sign = 1
    prev = 1
    r = 0
    for k in range(ncols):
        if m[r][k] == 0:
            for i in range(r + 1, last + 1):
                if m[i][k] != 0:
                    m[r], m[i] = m[i], m[r]
                    sign = -sign
                    break
            else:
                continue
        if r == last:  # a pivot in the last row: nothing below it
            return r + 1, sign
        rr = m[r]
        pivot = rr[k]
        width = len(rr)
        for i in range(r + 1, last + 1):
            ri = m[i]
            mik = ri[k]
            for j in range(k + 1, width):
                ri[j] = (ri[j] * pivot - mik * rr[j]) // prev
            ri[k] = 0
        prev = pivot
        r += 1
    return r, sign


def det_int(m: list[list[int]]) -> int:
    """Bareiss determinant of a square integer matrix. Destroys m."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatch("determinant requires a square matrix")
    if n == 0:
        return 1
    r, sign = _eliminate(m, n)
    return sign * m[-1][-1] if r == n else 0


def _solve_int(m: list[list[int]], n: int) -> tuple[list[tuple[int, ...]], int]:
    """Solve the integer system [A | B] (n rows, A square) fraction-free.

    Destroys m.  Returns (Y, D) with D the last Bareiss pivot, which is
    +-det A, and Y = D * A^-1 B.  By Cramer's rule every entry of D * A^-1 B
    is +-det of A with one column replaced by a column of B, an integer, so
    the back substitution u_ii y_i = D b'_i - sum_{j>i} u_ij y_j on the
    eliminated triangular system has an integral quotient and each ``//``
    is exact.  Raises DegenerateGeometry when A's n columns have rank < n.
    """
    if _eliminate(m, n)[0] < n:
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
    """Rank of a rectangular integer matrix: _eliminate's pivot count."""
    if not rows:
        return 0
    return _eliminate([list(row) for row in rows], len(rows[0]))[0]


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
