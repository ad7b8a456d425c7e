"""Exact integer linear algebra kernel.

Entries are plain Python ``int`` (arbitrary precision) and no step
divides inexactly, so every operation here is exact by construction and
a rational result comes back as integer numerators over one common
positive denominator D.  Matrices are small and dense: lists of rows.

Two routes.  A d-simplex's determinant and interpolant (det_int,
polytope.signed_nvol, polytope.volume_form) run straight-line Python
generated once per dimension d (_kernel): Laplace expansion of the
differences v_k - v_0 along the first row, each minor of the lower rows
written once and shared, so no step divides and every intermediate is an
integer minor.  Rank, pivot columns and the inverse run Bareiss
elimination (_eliminate), as do simplices above _KERNEL_MAX_DIM, where the
expansion's size, exponential in d against Bareiss's d^3 / 3 updates,
stops paying.

Rows of d + 1 integers, facet rows and interpolants (polytope.Form), have
straight-line kernels of their own, generated once per d with no cap
(_row_kernel), as their size is linear in d: a row's value at a point
(at, behind polytope.row_at), the gcd-reduced combination of two rows
(comb, the row through a point and a ridge) and the form drop a - eps *
lam in lowest terms (drop).  The pulling sweep, hull, facet_table,
verify's wall test and family.DualityMap.apply fetch them once and call
them; nothing else computes these.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd
from typing import Callable, Sequence

from .errors import DegenerateGeometry, DimensionMismatch

Row = Sequence[int]

# the largest simplex dimension with a generated kernel (the library's
# artifacts reach d = 5): at d = 6 an interpolant's 434 products run
# about as fast as Bareiss, at d = 7 its 1,008 take 1.5 times as long
_KERNEL_MAX_DIM = 6


def _kernel_source(d: int) -> str:
    """Source of det(v) and cramer(v, h) for d + 1 points v in Z^d.

    Row r < d of the difference matrix is x{r}_j = v{r+1}_j - v0_j, with
    x{r}_d = h{r+1} - h0 for cramer's height column.  m{S} is the minor on
    the bottom |S| rows and the columns in the bit set S, expanded along
    its first row r = d - |S|: the sum over the columns j of S, in order,
    of (-1)^t x{r}_j m{S - j}, t the position of j in S (Laplace), with a
    one-column minor the bottom row's entry itself.  Each minor is one
    assignment, written once and read by every larger minor that needs
    it: C(w, k) minors of k products on w columns for 2 <= k <= d, so
    d 2^(d-1) - d products for det (w = d) and (d + 1)(2^d - 2) for
    cramer (w = d + 1).

    det returns m{0..d-1}, the determinant of the differences.  cramer
    returns it and the d Cramer numerators of [v_k - v_0 | h_k - h_0]:
    the determinant with column j replaced by the height column is the
    minor that omits column j, times (-1)^(d-1-j) for moving the height
    column from last to position j.  The text depends on d alone.
    """

    def name(s: int) -> str:
        # a one-column minor is the bottom row's entry
        return f"x{d - 1}_{s.bit_length() - 1}" if s & (s - 1) == 0 else f"m{s}"

    pts = ", ".join(
        "[" + ", ".join(f"v{k}_{j}" for j in range(d)) + "]" for k in range(d + 1)
    )
    det = name((1 << d) - 1) if d else "1"
    out = []
    for width in (d, d + 1):
        body = [f"[{pts}] = v"]
        if width > d:
            body.append("[" + ", ".join(f"h{k}" for k in range(d + 1)) + "] = h")
        body += [
            f"x{r}_{j} = " + (f"v{r + 1}_{j} - v0_{j}" if j < d else f"h{r + 1} - h0")
            for r in range(d)
            for j in range(width)
        ]
        for k in range(2, d + 1):
            for cols in combinations(range(width), k):
                s = sum(1 << j for j in cols)
                terms = " ".join(
                    f"{'-' if t % 2 else '+'} x{d - k}_{j} * {name(s & ~(1 << j))}"
                    for t, j in enumerate(cols)
                )
                body.append(f"m{s} = {terms.removeprefix('+ ')}")
        if width == d:
            out.append("\n    ".join(["def det(v):", *body, f"return {det}"]))
        else:
            full = (1 << width) - 1
            nums = ", ".join(
                f"{'-' if (d - 1 - j) % 2 else ''}{name(full & ~(1 << j))}"
                for j in range(d)
            )
            body.append(f"return {det}, [{nums}]")
            out.append("\n    ".join(["def cramer(v, h):", *body]))
    return "\n\n".join(out) + "\n"


@cache
def _kernel(d: int) -> tuple[Callable, Callable]:
    """(det, cramer) for d-simplices, _kernel_source(d) compiled once."""
    namespace: dict = {}
    exec(compile(_kernel_source(d), f"<exact._kernel({d})>", "exec"), namespace)
    return namespace["det"], namespace["cramer"]


def _row_kernel_source(d: int) -> str:
    """Source of at, comb and drop for integer rows of d + 1 entries, the
    last a constant term.

    at(r, p) is r[:d] . p + r[d], the row's value at a point p in Z^d.
    comb(a, x, b, y) is the row a y - b x over the gcd of its entries, a
    tuple; with every entry 0 it raises ZeroDivisionError.  With a and b
    the values of facet rows x and y at a point, it vanishes there and on
    the ridge of the two facets, and where a > 0 >= b it is >= 0 on the
    polytope.  drop(x, xd, y, yd, n, q) is the form x / xd - (n / q) (y /
    yd), xd, yd, q > 0, in lowest terms: with s = q yd and t = n xd the
    row x s - y t over the denominator xd s, both divided by their gcd.
    Each entry is one line: d products for at, 2 (d + 1) for comb and
    2 (d + 1) + 3 for drop.
    """
    ids = range(d + 1)
    cs = ", ".join(f"c{j}" for j in ids)
    quotients = ", ".join(f"c{j} // g" for j in ids)
    terms = [*(f"r[{j}] * p[{j}]" for j in range(d)), f"r[{d}]"]
    lines = [
        "def at(r, p):",
        "    return " + " + ".join(terms),
        "",
        "def comb(a, x, b, y):",
        *(f"    c{j} = a * y[{j}] - b * x[{j}]" for j in ids),
        f"    g = gcd({cs})",
        f"    return ({quotients},)",
        "",
        "def drop(x, xd, y, yd, n, q):",
        "    s = q * yd",
        "    t = n * xd",
        *(f"    c{j} = x[{j}] * s - y[{j}] * t" for j in ids),
        "    den = xd * s",
        f"    g = gcd(den, {cs})",
        f"    return ({quotients},), den // g",
    ]
    return "\n".join(lines) + "\n"


@cache
def _row_kernel(d: int) -> tuple[Callable, Callable, Callable]:
    """(at, comb, drop) for rows of d + 1 integers, _row_kernel_source(d)
    compiled once."""
    namespace: dict = {"gcd": gcd}
    exec(compile(_row_kernel_source(d), f"<exact._row_kernel({d})>", "exec"), namespace)
    return namespace["at"], namespace["comb"], namespace["drop"]


def _simplex_det(verts: Sequence[Row]) -> int:
    """det of the d x d differences v_k - v_0 of d + 1 points in Z^d: the
    generated kernel, or above _KERNEL_MAX_DIM one Bareiss run, the sign
    of its row permutation times its last pivot (0 without a full rank)."""
    d = len(verts) - 1
    if d <= _KERNEL_MAX_DIM:
        return _kernel(d)[0](verts)
    v0 = verts[0]
    m = [[x - y for x, y in zip(v, v0)] for v in verts[1:]]
    pivots, sign = _eliminate(m, d)
    return sign * m[-1][-1] if len(pivots) == d else 0


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


def det_int(m: Sequence[Row]) -> int:
    """Determinant of a square integer matrix; m is left as it is.

    The rows of m are the differences of the points 0, m_1, ..., m_n, so
    this is _simplex_det of those points: the generated Laplace expansion
    up to _KERNEL_MAX_DIM, Bareiss above it.
    """
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatch("determinant requires a square matrix")
    return _simplex_det(((0,) * n, *m))


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
