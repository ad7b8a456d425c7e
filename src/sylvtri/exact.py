"""Exact integer linear algebra kernel.

Entries are plain Python ``int`` (arbitrary precision) and elimination
is fraction-free, so every operation here is exact by construction and
a rational result comes back as integer numerators over one common
positive denominator D.  Matrices are small and dense: lists of rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DegenerateGeometry, DimensionMismatch

Row = Sequence[int]


def _eliminate(m: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Bareiss reduction of m, in place, to row echelon form on its first
    ncols columns (rows may be wider); returns (pivot columns, sign of the
    row permutation).  A column with no nonzero entry at or below the
    current row is skipped.  Every ``//`` is exact: with pivot columns K
    on rows 0..r-1, each entry of a later row i and column j is the minor
    of the permuted input on rows 0..r-1, i and columns K + j, and the
    last pivot the minor on rows 0..r-1 and columns K.  Skipped columns
    enter no update, so these are plain Bareiss steps on columns K + j,
    whose new entries Sylvester's identity makes minors of the next order.
    """
    last = len(m) - 1
    sign = 1
    prev = 1
    pivots: list[int] = []
    for k in range(ncols):
        r = len(pivots)
        if m[r][k] == 0:
            for i in range(r + 1, last + 1):
                if m[i][k] != 0:
                    m[r], m[i] = m[i], m[r]
                    sign = -sign
                    break
            else:
                continue
        pivots.append(k)
        if r == last:  # a pivot in the last row: nothing below it
            return pivots, sign
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
    return pivots, sign


def det_int(m: list[list[int]]) -> int:
    """Bareiss determinant of a square integer matrix. Destroys m."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatch("determinant requires a square matrix")
    if n == 0:
        return 1
    pivots, sign = _eliminate(m, n)
    return sign * m[-1][-1] if len(pivots) == n else 0


def pivot_columns(rows: Sequence[Row]) -> list[int]:
    """Pivot columns of a rectangular integer matrix (_eliminate's): the
    columns outside the span of those before them, as row operations keep
    the linear relations among columns."""
    if not rows:
        return []
    return _eliminate([list(row) for row in rows], len(rows[0]))[0]


def rank(rows: Sequence[Row]) -> int:
    """Rank of a rectangular integer matrix: its pivot column count."""
    return len(pivot_columns(rows))


def integer_inverse(rows: Sequence[Row]) -> tuple[list[tuple[int, ...]], int]:
    """Inverse of a square integer matrix as an integer matrix over D > 0.

    Returns (Y, D) with rows * Y = D * I: D is |det| and Y is the adjugate
    up to the sign of det.  One Bareiss run of [A | I] (_eliminate) leaves
    P = +-det A as its last pivot, and back substitution gives P A^-1,
    integral by Cramer's rule, so each ``//`` is exact.  Raises
    DegenerateGeometry if the matrix is singular.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("inverse requires a square matrix")
    m = [[*row, *(int(j == i) for j in range(n))] for i, row in enumerate(rows)]
    if len(_eliminate(m, n)[0]) < n:
        raise DegenerateGeometry("singular linear system")
    d = m[-1][n - 1] if n else 1
    y: list[tuple[int, ...]] = [()] * n
    for i in range(n - 1, -1, -1):
        ri = m[i]
        y[i] = tuple(
            (d * ri[c] - sum(ri[j] * y[j][c - n] for j in range(i + 1, n))) // ri[i]
            for c in range(n, 2 * n)
        )
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


def number_str(x: int | Fraction | None) -> str:
    """str(x) for a message, or, when the number's str would pass Python's
    digit limit for int-to-str conversion, its sign and the bit lengths
    of its numerator and denominator, as in -<14001 bits>/<4652 bits>."""
    try:
        return str(x)
    except ValueError:
        num, den = x.as_integer_ratio()
        out = f"{'-' if num < 0 else ''}<{abs(num).bit_length()} bits>"
        return out if den == 1 else f"{out}/<{den.bit_length()} bits>"
