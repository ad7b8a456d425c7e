"""Brute-force oracles the tests check the library against.

Each oracle follows its textbook definition as literally as possible and
is slow on purpose: membership and faces by supporting-hyperplane scans
in affine coordinates, with Fraction affine functionals, membership by
Caratheodory subsets or by an exact phase-one simplex (the hull LP, and
through it the extreme points of a point set), lattice points by a
bounding-box scan, pulling by coning over every proper face (De
Loera-Rambau-Santos, *Triangulations*, 2010), the slice a hyperplane
cuts from a subdivision by a half-space scan, the eps-halving pull that
threads a witness through one pulling step at a time and the exact
supremum of its drop, the all-pairs certificate check and the wall
check evaluated in Fractions on Fraction interpolants (``solve``, through
the fraction-free tall solve ``integer_solve``), the quadratic
common-face check between every pair of cells, the resolution fan's
flags evaluated on Fraction functionals from a cofactor facet scan,
rank by Fraction row reduction, the determinant, signed volume and
simplex interpolant by Bareiss elimination (``bareiss_det``,
``bareiss_signed_nvol``, ``bareiss_volume_form``), which exact's
generated kernel is checked against, the structural proof as one scan of the
whole facet join (``verify_whole_join``), and each p2dual level's cells
and small integer heights in closed form (``closed_form_p2dual``).  None
of this is on the production path: ``witness.pull_sweep`` is the
library's only pulling code, ``subdivision.verify``'s one loop over the
cells, pairing each facet when its second cell arrives, its only
structural check and wall test, ``polytope.volume_form`` its only
interpolant solve for a simplex, ``polytope.hull`` the one call that
reads each starting cell's facet rows and interpolant off one simplex
inverse, and every
ambient, glue interface and glue apex height the pipeline uses is known
in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm
from operator import mul, sub
from typing import Iterable, Sequence

from sylvtri import exact, family, polytope, subdivision as sd
from sylvtri.errors import (
    DegenerateGeometry,
    DimensionMismatch,
    DomainError,
    SylvtriError,
)
from sylvtri.invariants import ResolutionFan
from sylvtri.polytope import LatticeSimplex, Point
from sylvtri.subdivision import Cell, Subdivision, Triangulation
from sylvtri.witness import CertificateReport, RegularityWitness

BRUTEFORCE_BOX_LIMIT = 10**7


class BoxLimitExceeded(SylvtriError, RuntimeError):
    """A brute-force oracle refused to scan an oversized bounding box."""


class IncompatibleSubdivision(SylvtriError, ValueError):
    """A cell meets a hyperplane in a set that is not a face of the cell."""


@dataclass(frozen=True)
class CellPolytope:
    """Polytopal cell given by exactly its vertex set (no redundant points)."""

    vertices: tuple[Point, ...]

    @property
    def dim(self) -> int:
        return exact.affine_rank(self.vertices)


class Membership(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class AffineFunctional:
    """Affine map x -> <coeffs, x> + constant with exact rational data.

    ``__post_init__`` puts the data over one common denominator D, the lcm
    of the denominators of coeffs and constant: row holds the integers
    c.numerator * (D // c.denominator), where each ``//`` is exact because
    D is a common multiple, so row = D * (coeffs, constant).  Evaluation is
    then one dot product (row[:-1] . x + row[-1]) / D, an integer over D for
    an integral point and equal to <coeffs, x> + constant for any point.
    """

    coeffs: tuple[Fraction, ...]
    constant: Fraction
    row: tuple[int, ...] = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        data = (*self.coeffs, self.constant)
        den = lcm(*(x.denominator for x in data))
        row = tuple(x.numerator * (den // x.denominator) for x in data)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "denominator", den)

    def __call__(self, point: Sequence[Fraction | int]) -> Fraction:
        return Fraction(self.numerator(point), self.denominator)

    def numerator(self, point: Sequence[Fraction | int]) -> Fraction | int:
        """D times the value at point: an int for an integral point.

        D > 0, so its sign is the sign of the value, with no division.
        """
        if len(point) != len(self.coeffs):
            raise DimensionMismatch("point dimension does not match functional")
        # map stops at the point's end, so row[-1] is the constant term
        return sum(map(mul, self.row, point)) + self.row[-1]


def inner_functionals(verts: Sequence[Point]) -> list[tuple[int, ...]]:
    """Integer facet rows (coeffs..., const) of a full-dimensional cell.

    Each row is >= 0 on the cell and 0 on exactly one facet (read with
    row_at): a simplex's simplex_inverse rows, in vertex order, or a
    polytopal cell's beneath-beyond rows (polytope.hull, with zero
    heights), ordered by their facets' sorted index sets.  Both raise
    DegenerateGeometry on a cell that does not span R^d: a flat simplex's
    matrix is singular.
    """
    if len(verts) == len(verts[0]) + 1:
        return polytope.simplex_inverse(verts)[0]
    facets = polytope.hull(verts, [0] * len(verts))[0]
    return [facets[fs] for fs in sorted(facets, key=sorted)]


def functionals(verts: Sequence[Point]) -> list[AffineFunctional]:
    """A full-dimensional cell's facet rows (inner_functionals) as
    Fraction functionals, >= 0 on the cell."""
    return [
        AffineFunctional(tuple(map(Fraction, row[:-1])), Fraction(row[-1]))
        for row in inner_functionals(verts)
    ]


@lru_cache(maxsize=4096)
def _cell_functionals(verts: tuple[Point, ...]) -> tuple[AffineFunctional, ...]:
    """functionals(verts), derived once per vertex tuple: contains meets the
    same cells again and again, one store point at a time."""
    return tuple(functionals(verts))


def integer_rows(rows: Iterable[Sequence[Fraction | int]]) -> list[list[int]]:
    """Each row of ints and Fractions times the lcm of its denominators.

    A positive scale per row changes neither the row space nor the
    solutions of an augmented system [A | b], so exact's integer kernels
    take the result in place of the rational rows.
    """
    out = []
    for row in rows:
        d = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(x * d) for x in row])
    return out


def integer_solve(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[list[int], int]:
    """Solve k >= n integer equations A x = b in n unknowns over D > 0.

    Returns (y, D) with y = D * x for the unique solution x, fraction-free:
    one Bareiss run of [A | b] (exact._eliminate), D = +-the last pivot,
    the minor on the pivot rows (|det A| when k = n), made positive by
    negating y and D together.  A row past the pivots is zero on A's
    columns, and its b entry is the minor on the pivot rows plus that row
    and the pivot columns plus b; as the pivot minor is nonzero, it
    vanishes iff that equation follows from the pivot rows.  By Cramer's
    rule on the pivot rows y is integral, so each ``//`` of the back
    substitution is exact.  Raises DegenerateGeometry if A has rank < n or
    the equations are inconsistent, DimensionMismatch if k < n or the rows
    are ragged.
    """
    n = len(rows[0]) if rows else 0
    if len(rhs) != len(rows) or len(rows) < n or any(len(r) != n for r in rows):
        raise DimensionMismatch("solve requires k >= n equations in n unknowns")
    m = [[*row, b] for row, b in zip(rows, rhs)]
    if len(exact._eliminate(m, n)[0]) < n:
        raise DegenerateGeometry("singular linear system")
    if any(row[n] for row in m[n:]):
        raise DegenerateGeometry("inconsistent linear system")
    d = m[n - 1][n - 1] if n else 1
    y = [0] * n
    for i in range(n - 1, -1, -1):
        ri = m[i]
        y[i] = (d * ri[n] - sum(ri[j] * y[j] for j in range(i + 1, n))) // ri[i]
    if d < 0:
        return [-v for v in y], -d
    return y, d


def solve(
    rows: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]
) -> list[Fraction]:
    """Solution of a square rational system: x = y / D (integer_solve).

    Raises DegenerateGeometry if the matrix is singular.
    """
    if len(rhs) != len(rows):
        raise DimensionMismatch("solve requires a square system")
    m = integer_rows([*row, b] for row, b in zip(rows, rhs))
    y, d = integer_solve([r[:-1] for r in m], [r[-1] for r in m])
    return [Fraction(v, d) for v in y]


def bareiss_det(m: Sequence[Sequence[int]]) -> int:
    """Reference determinant of a square integer matrix, independent of
    exact's generated kernel: one Bareiss run (exact._eliminate) on a
    copy, the sign of its row permutation times its last pivot."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatch("determinant requires a square matrix")
    if n == 0:
        return 1
    m = [list(r) for r in m]
    pivots, sign = exact._eliminate(m, n)
    return sign * m[-1][-1] if len(pivots) == n else 0


def bareiss_signed_nvol(verts: Sequence[Point]) -> int:
    """Reference polytope.signed_nvol: (-1)^d times one Bareiss run on
    the d x d differences v_i - v_0, with signed_nvol's errors."""
    dim = len(verts[0])
    if len(verts) != dim + 1:
        raise DegenerateGeometry("nvol requires a full-dimensional simplex")
    v0 = verts[0]
    m = [[x - y for x, y in zip(v, v0)] for v in verts[1:]]
    pivots, sign = exact._eliminate(m, dim)
    if len(pivots) < dim:
        raise DegenerateGeometry("zero-volume simplex")
    d = sign * m[-1][-1] if dim else 1
    return -d if dim % 2 else d


def bareiss_volume_form(
    verts: Sequence[Point], heights: Sequence[int]
) -> tuple[int, tuple[list[int], int]]:
    """Reference polytope.volume_form, on any cell: one Bareiss run of
    [v_k - v_0 | h_k - h_0] (exact._eliminate), which decides rank and
    consistency (a row past the d pivots is zero on the differences, and
    its height entry, a minor, vanishes iff its equation follows from the
    pivot rows), then back substitution, with volume_form's errors on a
    simplex.  volume_form itself refuses more than d + 1 vertices."""
    v0, h0 = verts[0], heights[0]
    dim = len(v0)
    if len(verts) <= dim:
        raise DimensionMismatch("solve requires k >= n equations in n unknowns")
    m = [[*map(sub, v, v0), h - h0] for v, h in zip(verts[1:], heights[1:])]
    pivots, sign = exact._eliminate(m, dim)
    if len(pivots) < dim:
        raise DegenerateGeometry("singular linear system")
    if any(row[dim] for row in m[dim:]):
        raise DegenerateGeometry("inconsistent linear system")
    last = m[dim - 1][dim - 1] if dim else 1
    det = sign * last
    y = [0] * dim
    for i in range(dim - 1, -1, -1):
        ri = m[i]
        y[i] = (last * ri[dim] - sum(map(mul, ri[i + 1 : dim], y[i + 1 :]))) // ri[i]
    if last < 0:
        last, y = -last, [-x for x in y]
    y.append(last * h0 - sum(map(mul, y, v0)))
    return -det if dim % 2 else det, (y, last)


def reference_row_at(row: Sequence[int], p: Point) -> int:
    """Reference polytope.row_at, independent of exact's generated row
    kernel: row[:-1] . p + row[-1] by one generic dot product."""
    # map stops at p's end, so row[-1] is the homogenising term
    return sum(map(mul, row, p)) + row[-1]


def reference_comb(
    lam_a: int, row_a: Sequence[int], lam_b: int, row_b: Sequence[int]
) -> tuple[int, ...]:
    """Reference for exact._row_kernel's comb: (lam_a row_b - lam_b row_a)
    over its gcd, a ZeroDivisionError where every entry is 0."""
    row = [lam_a * y - lam_b * x for x, y in zip(row_a, row_b)]
    k = gcd(*row)
    return tuple([x // k for x in row])


def reference_drop(
    a: tuple[Sequence[int], int], lam: tuple[Sequence[int], int], eps: Fraction
) -> tuple[tuple[int, ...], int]:
    """Reference for the generated drop (exact._row_kernel): the form a -
    eps * lam in lowest terms."""
    (arow, ad), (lrow, ld) = a, lam
    s, t = eps.denominator * ld, eps.numerator * ad
    row = [x * s - y * t for x, y in zip(arow, lrow)]
    den = ad * s
    g = gcd(den, *row)
    return tuple([x // g for x in row]), den // g


def gauss_jordan(rows, rhs):
    """Independent solve oracle: plain Fraction Gauss-Jordan, or None if singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return None
        a[k], a[pivot] = a[pivot], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [a[i][n] for i in range(n)]


def fraction_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Independent rank oracle: Fraction row reduction, one pivot per column."""
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for k in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(r, len(a)) if a[i][k] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][k] / a[r][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def _independent_columns(basis_rows: list[list[Fraction]]) -> list[int]:
    """Column indices on which the row space has full rank."""
    k = len(basis_rows)
    cols: list[int] = []
    for j in range(len(basis_rows[0])):
        trial = cols + [j]
        sub = [[row[c] for c in trial] for row in basis_rows]
        if exact.rank(integer_rows(sub)) == len(trial):
            cols = trial
        if len(cols) == k:
            break
    return cols


def affine_coordinates(points: Sequence[Point]) -> list[tuple[int, ...]]:
    """Exact full-rank integer coordinates for a point set in its affine hull.

    The map is an injective affine transformation, so all convexity and face
    combinatorics are preserved.  (It need not preserve volume.)
    """
    k = exact.affine_rank(points)
    if k == 0:
        return [() for _ in points]
    base = points[0]
    diffs = [[Fraction(x - y) for x, y in zip(p, base)] for p in points[1:]]
    basis: list[list[Fraction]] = []
    for d in diffs:
        if exact.rank(integer_rows(basis + [d])) == len(basis) + 1:
            basis.append(d)
        if len(basis) == k:
            break
    cols = _independent_columns(basis)
    raw = [tuple(Fraction(p[c] - base[c]) for c in cols) for p in points]
    denom = lcm(*(x.denominator for pt in raw for x in pt)) if raw else 1
    return [tuple(int(x * denom) for x in pt) for pt in raw]


def facet_vertex_sets(vertices: Sequence[Point]) -> list[tuple[Point, ...]]:
    """Facets of conv(vertices), each as a sorted vertex tuple.

    Supporting-hyperplane scan over every k-subset of the points in their
    affine coordinates (k the affine rank): the hyperplane through k
    affinely independent points has as normal the cofactors of their k - 1
    difference rows, and it is a facet hyperplane iff every point lies
    weakly on one side of it.
    """
    if len(set(vertices)) <= 1:
        return []
    coords = affine_coordinates(vertices)
    k = len(coords[0])
    out: set[tuple[Point, ...]] = set()
    for idxs in combinations(range(len(coords)), k):
        base = coords[idxs[0]]
        diffs = [[x - y for x, y in zip(coords[i], base)] for i in idxs[1:]]
        normal = [
            bareiss_det([[int(c == j) for c in range(k)], *diffs])
            for j in range(k)
        ]
        if not any(normal):
            continue
        vals = [sum(a * (x - y) for a, x, y in zip(normal, p, base)) for p in coords]
        if min(vals) >= 0 or max(vals) <= 0:
            out.add(tuple(sorted(v for v, x in zip(vertices, vals) if x == 0)))
    return sorted(out)


def placing_triangulation(vertices: Sequence[Point]) -> list[tuple[Point, ...]]:
    """Placing triangulation of a cell from its least vertex, each face
    triangulated recursively over its facets in affine coordinates."""
    verts = tuple(sorted(vertices))
    if len(verts) == exact.affine_rank(verts) + 1:
        return [verts]
    v0 = verts[0]
    return [
        (v0,) + piece
        for facet in facet_vertex_sets(verts)
        if v0 not in facet
        for piece in placing_triangulation(facet)
    ]


def placing_nvol(vertices: Sequence[Point]) -> int:
    """Normalized volume of a full-dimensional cell, summed over its
    placing triangulation."""
    return sum(map(polytope.nvol, placing_triangulation(vertices)))


def faces(c: CellPolytope) -> list[CellPolytope]:
    """All proper faces of a cell, each exactly once, graded by dimension.

    Brute-force scan: facets via supporting hyperplanes, then recursion.
    """
    seen: set[tuple[Point, ...]] = set()

    def walk(verts: tuple[Point, ...]):
        for fverts in facet_vertex_sets(verts):
            if fverts not in seen:
                seen.add(fverts)
                walk(fverts)

    walk(tuple(sorted(c.vertices)))
    out = [CellPolytope(v) for v in seen]
    return sorted(out, key=lambda f: (f.dim, f.vertices))


def contains(
    c: CellPolytope | LatticeSimplex, p: Sequence[Fraction | int]
) -> Membership:
    """Exact membership classification of a rational point in a cell.

    For lower-dimensional cells, interior means relative interior.
    """
    verts = c.vertices
    if len(p) != len(verts[0]):
        raise DimensionMismatch("point dimension does not match cell")
    k = exact.affine_rank(verts)
    if k < len(verts[0]):
        # point must lie in the affine hull first
        diffs = [[x - y for x, y in zip(q, verts[0])] for q in [*verts[1:], p]]
        if exact.rank(integer_rows(diffs)) > k:
            return Membership.OUTSIDE
        aug = affine_coordinates(list(verts) + [tuple(p)])
        cverts, cp = aug[:-1], aug[-1]
        if k == 0:
            return Membership.INTERIOR
        return contains(CellPolytope(tuple(cverts)), cp)
    vals = [fn(p) for fn in _cell_functionals(tuple(verts))]
    if any(v < 0 for v in vals):
        return Membership.OUTSIDE
    if any(v == 0 for v in vals):
        return Membership.BOUNDARY
    return Membership.INTERIOR


def in_hull_caratheodory(p: Sequence[Fraction | int], points: Sequence[Point]) -> bool:
    """Membership oracle: p is a convex combination of points.

    Checks all affinely independent subsets of size <= dim+1 (Caratheodory),
    solving each small system exactly.
    """
    pf = as_fraction_point(p)
    k = exact.affine_rank(points)
    for size in range(1, k + 2):
        for subset in combinations(points, size):
            if exact.affine_rank(subset) != size - 1:
                continue
            rows = [[Fraction(v[i]) for v in subset] for i in range(len(pf))]
            rows.append([Fraction(1)] * size)
            rhs = list(pf) + [Fraction(1)]
            # least-squares-free: solve on an independent row subset, verify rest
            ridx: list[int] = []
            for i in range(len(rows)):
                trial = [rows[j] for j in ridx] + [rows[i]]
                if exact.rank(integer_rows(trial)) == len(ridx) + 1:
                    ridx.append(i)
                if len(ridx) == size:
                    break
            if len(ridx) < size:
                continue
            try:
                lam = solve([rows[i] for i in ridx], [rhs[i] for i in ridx])
            except DegenerateGeometry:
                continue
            if any(l < 0 for l in lam):
                continue
            if all(
                sum(r * l for r, l in zip(row, lam)) == b for row, b in zip(rows, rhs)
            ):
                return True
    return False


def as_fraction_point(p: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in p)


def feasible_nonneg_combination(
    columns: Sequence[Sequence[Fraction | int]], target: Sequence[Fraction | int]
) -> bool:
    """Whether target = sum x_j columns[j] has a solution with all x_j >= 0.

    Exact phase-one simplex over Fraction with Bland's rule, so the answer
    is certified and the iteration always terminates.
    """
    m = len(target)
    n = len(columns)
    a = [[Fraction(col[i]) for col in columns] for i in range(m)]
    b = [Fraction(t) for t in target]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    # artificial basis; tableau rows end with the rhs column
    rows = [
        a[i]
        + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        + [b[i]]
        for i in range(m)
    ]
    basis = list(range(n, n + m))
    # reduced costs for minimizing the artificial sum
    red = [sum(rows[i][j] for i in range(m)) for j in range(n)]
    red += [Fraction(0)] * m
    red.append(sum(b))
    while True:
        enter = next((j for j in range(n + m) if red[j] > 0), -1)
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][-1] / rows[i][enter]
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return False
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for i in range(m):
            f = rows[i][enter]
            if i != leave and f != 0:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        f = red[enter]
        if f != 0:
            red = [x - f * y for x, y in zip(red, rows[leave])]
        basis[leave] = enter
    return red[-1] == 0


def in_hull_lp(p: Sequence[Fraction | int], points: Sequence[Point]) -> bool:
    """Whether p is a convex combination of points, by exact linear programming.

    Polynomial in the number of points, so it serves large point sets.
    """
    pf = as_fraction_point(p)
    cols = [list(q) + [1] for q in points]
    return feasible_nonneg_combination(cols, list(pf) + [1])


def vertex_filter(points: Iterable[Point]) -> tuple[Point, ...]:
    """Extreme points of a finite point set (vertices of its convex hull)."""
    pts = sorted(set(points))
    out = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1 :]
        if not others or not in_hull_lp(p, others):
            out.append(p)
    return tuple(out)


def lattice_points_bruteforce(
    c: CellPolytope | LatticeSimplex, limit: int = BRUTEFORCE_BOX_LIMIT
) -> list[Point]:
    """All lattice points of a cell by exact bounding-box scan, sorted lex.

    Refuses (never approximates) when the box exceeds the candidate limit.
    """
    verts = c.vertices
    dim = len(verts[0])
    los = [min(v[i] for v in verts) for i in range(dim)]
    his = [max(v[i] for v in verts) for i in range(dim)]
    count = 1
    for lo, hi in zip(los, his):
        count *= hi - lo + 1
    if count > limit:
        raise BoxLimitExceeded(f"bounding box has {count} candidates (limit {limit})")
    k = exact.affine_rank(verts)
    if k == dim:
        fns = functionals(verts)
        test = lambda p: all(fn(p) >= 0 for fn in fns)
    else:
        test = lambda p: in_hull_caratheodory(p, verts)
    ranges = [range(lo, hi + 1) for lo, hi in zip(los, his)]
    return [p for p in product(*ranges) if test(p)]


def pull_literal(s: Subdivision, m_index: int) -> Subdivision:
    """Pulling refinement via the literal face-based definition.

    Replaces each cell containing m by cones from m over ALL its proper faces
    avoiding m, then keeps the maximal (full-rank) ones.
    """
    m = s.points[m_index]
    d = exact.affine_rank(s.ambient)
    new_cells: list[tuple[Point, ...]] = []
    for c in s.cells:
        verts = s.cell_points(c)
        cell = CellPolytope(tuple(verts))
        if contains(cell, m) is Membership.OUTSIDE:
            new_cells.append(verts)
            continue
        for face in faces(cell):
            fverts = tuple(sorted(face.vertices))
            if m in fverts:
                continue
            if contains(face, m) is not Membership.OUTSIDE:
                continue
            cone = tuple(sorted(fverts + (m,)))
            if exact.affine_rank(cone) == d:
                new_cells.append(cone)
    maximal = sorted({tuple(sorted(c)) for c in new_cells})
    return sd.make_subdivision(s.points, s.ambient, maximal)


def restrict_to_hyperplane(
    s: Subdivision, h: AffineFunctional, ambient: Sequence[Point]
) -> Subdivision:
    """Induced subdivision on the slice of the ambient polytope by h's boundary.

    Every cell must meet the hyperplane in a face of itself (in particular no
    cell may have vertices strictly on both sides).  ``ambient`` lists the
    slice's vertices: when the slice is a facet of the ambient polytope,
    they are the ambient vertices on the hyperplane.  On a Triangulation,
    whose simplices must be non-degenerate, a face on the hyperplane is a
    vertex subset of a simplex, of affine rank its size minus one; only the
    faces of polytopal cells are ranked.
    """
    face_sets: set[tuple[Point, ...]] = set()
    for c in s.cells:
        verts = s.cell_points(c)
        vals = [h(v) for v in verts]
        if any(v > 0 for v in vals) and any(v < 0 for v in vals):
            raise IncompatibleSubdivision("a cell crosses the hyperplane")
        on = tuple(sorted(v for v, val in zip(verts, vals) if val == 0))
        if on:
            face_sets.add(on)
    if not face_sets:
        raise IncompatibleSubdivision("hyperplane misses the subdivision")
    simplices = isinstance(s, Triangulation)
    ranks = {f: len(f) - 1 if simplices else exact.affine_rank(f) for f in face_sets}
    max_rank = max(ranks.values())
    cells = [f for f, r in ranks.items() if r == max_rank]
    on_points = [p for p in s.points if h(p) == 0]
    return sd.make_subdivision(on_points, ambient, cells)


def affine_interpolant(
    vertices: Sequence[Sequence[Fraction | int]],
    values: Sequence[Fraction | int],
) -> AffineFunctional:
    """Unique affine function through (vertex_i, value_i).

    Requires d+1 affinely independent vertices spanning dimension d.
    """
    if not vertices:
        raise DimensionMismatch("no vertices given")
    dim = len(vertices[0])
    if len(vertices) != dim + 1 or len(values) != dim + 1:
        raise DimensionMismatch("need exactly d+1 vertices and values in dimension d")
    rows = [list(v) + [1] for v in vertices]
    sol = solve(rows, values)
    return AffineFunctional(tuple(sol[:dim]), sol[dim])


def functional_on_affine_basis(
    points: Sequence[Sequence[Fraction | int]],
    values: Sequence[Fraction | int],
) -> AffineFunctional:
    """Affine interpolant through a (possibly redundant) point/value list.

    Picks an affinely independent spanning subset, interpolates there, and
    checks the remaining points for consistency.  The point set must span the
    full ambient dimension.
    """
    dim = len(points[0])
    chosen: list[int] = [0]
    for i in range(1, len(points)):
        if len(chosen) == dim + 1:
            break
        if exact.affine_rank([points[j] for j in chosen] + [points[i]]) == len(chosen):
            chosen.append(i)
    if len(chosen) != dim + 1:
        raise DegenerateGeometry("points do not affinely span the ambient space")
    fn = affine_interpolant([points[i] for i in chosen], [values[i] for i in chosen])
    for p, v in zip(points, values):
        if fn(p) != Fraction(v):
            raise DegenerateGeometry("values are not affine on the given points")
    return fn


def cell_point_sets(s: Subdivision) -> set[frozenset[Point]]:
    """The cells of s as sets of points, independent of store order."""
    return {frozenset(s.cell_points(c)) for c in s.cells}


def cell_interpolant(
    s: Subdivision, cell: Cell, w: RegularityWitness
) -> AffineFunctional:
    """Fraction affine function matching the witness on a full-dimensional cell."""
    verts = s.cell_points(cell)
    vals = [w.values[i] for i in cell]
    if len(verts) == len(verts[0]) + 1:
        return affine_interpolant(verts, vals)
    return functional_on_affine_basis(verts, vals)


def verify_regularity_fraction(
    t: Subdivision, w: RegularityWitness
) -> CertificateReport:
    """The all-pairs certificate check evaluated in Fractions.

    Same contract as witness.verify_regularity: regular iff A_cell(p) < w(p)
    for every store point p outside each cell, (cell, store point) order,
    and the report stops after 51 violations.
    """
    if exact.affine_rank(t.ambient) != t.ambient_dim:
        raise DimensionMismatch("regularity check needs full-dimensional cells")
    if len(w.values) != len(t.points):
        raise DimensionMismatch("witness length does not match the point store")
    violations: list[tuple[Cell, Point, Fraction]] = []
    for c in t.cells:
        fn = cell_interpolant(t, c, w)
        cset = set(c)
        for pi, p in enumerate(t.points):
            if pi in cset:
                continue
            margin = w.values[pi] - fn(p)
            if margin > 0:
                continue
            violations.append((c, p, margin))
            if len(violations) > 50:
                return CertificateReport(False, violations)
    return CertificateReport(not violations, violations)


def walls_convex(s: Subdivision, w: RegularityWitness) -> bool:
    """Whether every wall of a triangulation, a facet (point set) of
    exactly two cells, is strictly convex under w: at each cell's vertex
    off it, w exceeds the other cell's Fraction interpolant.  Both sides
    are tested."""
    fns = {c: cell_interpolant(s, c, w) for c in s.cells}
    on: dict[frozenset[Point], list[Cell]] = {}
    for c in s.cells:
        verts = frozenset(s.cell_points(c))
        for p in verts:
            on.setdefault(verts - {p}, []).append(c)
    for facet, cells in on.items():
        if len(cells) != 2:
            continue
        for c, other in (cells, cells[::-1]):
            q = next(i for i in other if s.points[i] not in facet)
            if w.values[q] <= fns[c](s.points[q]):
                return False
    return True


def _check_nonstrict(
    s: Subdivision,
    w: RegularityWitness,
    cells: Sequence[Cell] | None = None,
    point_indices: Sequence[int] | None = None,
) -> CertificateReport:
    """Convexity check that tolerates A_cell(p) == w(p) for p in the cell.

    Store points of an intermediate subdivision may still sit inside cells
    awaiting a pulling step; every other point needs A_cell(p) < w(p).
    """
    if len(w.values) != len(s.points):
        raise DimensionMismatch("witness length does not match the point store")
    cells = s.cells if cells is None else cells
    point_indices = range(len(s.points)) if point_indices is None else point_indices
    violations: list[tuple[Cell, Point, Fraction]] = []
    for c in cells:
        fn = cell_interpolant(s, c, w)
        geom = CellPolytope(s.cell_points(c))
        for pi in point_indices:
            if pi in c:
                continue
            p = s.points[pi]
            margin = w.values[pi] - fn(p)
            if margin > 0:
                continue
            if margin == 0 and contains(geom, p) is not Membership.OUTSIDE:
                continue
            violations.append((c, p, margin))
    return CertificateReport(not violations, violations)


def check_intermediate(s: Subdivision, w: RegularityWitness) -> CertificateReport:
    """Certificate check for mid-pipeline subdivisions."""
    return _check_nonstrict(s, w)


def _phi(s: Subdivision, w: RegularityWitness, m_index: int) -> Fraction:
    """The induced piecewise-affine value at store point m.

    The minimum of the interpolants at m of the cells containing m; equal
    to the stored value when m is already a vertex.
    """
    m = s.points[m_index]
    return min(
        cell_interpolant(s, c, w)(m)
        for c in s.cells
        if m_index in c
        or contains(CellPolytope(s.cell_points(c)), m) is not Membership.OUTSIDE
    )


def witness_pull(
    w: RegularityWitness,
    s_before: Subdivision,
    m_index: int,
) -> tuple[Subdivision, RegularityWitness, Fraction]:
    """Pull at store point m and drop its height epsilon below the hull.

    The new height is phi(m) - epsilon (see _phi).  Starting from
    epsilon = 1, the drop is halved until the convexity check restricted
    to the affected region passes: the cells now incident to m against
    every point, and every cell against m.
    """
    s_after = pull_literal(s_before, m_index)
    local_cells = [c for c in s_after.cells if m_index in c]
    phi_m = _phi(s_before, w, m_index)
    eps = Fraction(1)
    while True:
        vals = list(w.values)
        vals[m_index] = phi_m - eps
        cand = RegularityWitness(tuple(vals))
        if (
            _check_nonstrict(s_after, cand, cells=local_cells).regular
            and _check_nonstrict(s_after, cand, point_indices=[m_index]).regular
        ):
            return s_after, cand, eps
        eps /= 2


def drop_bound(
    s: Subdivision,
    w: RegularityWitness,
    m_index: int,
    s_after: Subdivision | None = None,
) -> Fraction | None:
    """Supremum of the drops witness_pull accepts at m; None if unbounded.

    Brute force in Fractions on the literal pull, for a witness that is
    convex before it.  A new cell's interpolant after a drop eps is
    A0 - eps * Lam, with A0 its interpolant under phi(m) at m and Lam the
    one that is 1 at m and 0 at its other vertices.  It must lie strictly
    below every store point p off the cell, so eps < (w(p) - A0(p)) /
    -Lam(p) wherever Lam(p) < 0 (where Lam(p) >= 0 the constraint relaxes
    as eps grows); and every old cell c must lie strictly below m, so
    eps < phi(m) - A_c(m).  The supremum is the least of these bounds.
    s_after, when given, is the literal pull pull_literal(s, m_index).
    """
    m = s.points[m_index]
    if s_after is None:
        s_after = pull_literal(s, m_index)
    phi_m = _phi(s, w, m_index)
    at_m = list(w.values)
    at_m[m_index] = phi_m
    at_m = RegularityWitness(tuple(at_m))
    unit = RegularityWitness(tuple(int(i == m_index) for i in range(len(s.points))))
    bounds = []
    for c in s_after.cells:
        if m_index not in c:
            bounds.append(phi_m - cell_interpolant(s_after, c, w)(m))
            continue
        a0 = cell_interpolant(s_after, c, at_m)
        lam = cell_interpolant(s_after, c, unit)
        for pi, p in enumerate(s.points):
            if pi not in c and lam(p) < 0:
                bounds.append((w.values[pi] - a0(p)) / -lam(p))
    return min(bounds, default=None)


def _is_face_of(verts: Sequence[Point], sub: frozenset[Point]) -> bool:
    """Whether sub is a face of conv(verts) (verts full-dim in coords)."""
    fns = functionals(verts)
    active = [fn for fn in fns if all(fn(p) == 0 for p in sub)]
    if not active:
        return sub == frozenset(verts)
    zero = {v for v in verts if all(fn(v) == 0 for fn in active)}
    return zero == set(sub)


def common_face_ok(a_verts: Sequence[Point], b_verts: Sequence[Point]) -> bool:
    """Exact check that conv(A) and conv(B) intersect in a common face.

    Fast path: a facet hyperplane of either cell weakly separates the two,
    and the vertices of the other cell on it are exactly the shared ones.
    The other cell then meets the hyperplane in conv(common), which holds
    the intersection.  A separator with an unshared vertex of the other
    cell on it proves nothing: the other cell's face there can overlap
    the first cell's facet beyond conv(common).  Cells wrapped around a
    shared lower face admit no such separator, so the fallback enumerates
    the vertices of the intersection polytope exactly and demands each
    lie in the convex hull of the shared vertex set.
    """
    A = tuple(sorted(set(a_verts)))
    B = tuple(sorted(set(b_verts)))
    if A == B:
        return False  # duplicate cells
    joint = affine_coordinates(list(A) + list(B))
    A2, B2 = tuple(joint[: len(A)]), tuple(joint[len(A) :])
    common = frozenset(A2) & frozenset(B2)
    dim = len(A2[0])
    if exact.affine_rank(A2) != dim or exact.affine_rank(B2) != dim:
        raise DegenerateGeometry("common-face check expects full-dimensional cells")
    if common and not (_is_face_of(A2, common) and _is_face_of(B2, common)):
        return False
    # quick accept: a weak separator among the facet hyperplanes of either
    # cell that holds no vertex of the other cell but the shared ones
    for verts, others in ((A2, B2), (B2, A2)):
        for fn in functionals(verts):
            if all(fn(q) < 0 or q in common and fn(q) == 0 for q in others):
                return True
    return _intersection_in_face(A2, B2, common)


def _intersection_in_face(A: tuple, B: tuple, common: frozenset) -> bool:
    """Whether conv(A) ∩ conv(B) equals conv(common), by vertex enumeration."""
    from itertools import combinations

    fns = functionals(A) + functionals(B)
    # deduplicate coincident halfspaces (shared facets) to shrink the scan;
    # a positive scale keeps the side, so opposite halfspaces stay apart
    seen: dict[tuple, AffineFunctional] = {}
    for fn in fns:
        denom = abs(next((c for c in fn.coeffs if c != 0), fn.constant))
        key = tuple(c / denom for c in fn.coeffs) + (fn.constant / denom,)
        seen.setdefault(key, fn)
    fns = list(seen.values())
    dim = len(A[0])
    hull = list(common) if common else []
    for idxs in combinations(range(len(fns)), dim):
        rows = [list(fns[i].coeffs) for i in idxs]
        rhs = [-fns[i].constant for i in idxs]
        try:
            x = solve(rows, rhs)
        except DegenerateGeometry:
            continue
        if any(fn(x) < 0 for fn in fns):
            continue
        if not common:
            return False
        if tuple(x) not in common and not in_hull_lp(tuple(x), hull):
            return False
    return True


def pairwise_verdict(s: Subdivision) -> bool:
    """Whether the cells of s subdivide conv(ambient), by all-pairs checks.

    Every cell is full-dimensional with its vertices in the ambient
    polytope, the normalized volumes sum to the ambient's, and every pair
    of cells meets in a common face (common_face_ok).  Polytopal cells are
    allowed.
    """
    d = s.ambient_dim
    cells = [s.cell_points(c) for c in s.cells]
    if exact.affine_rank(s.ambient) != d or any(
        exact.affine_rank(v) != d for v in cells
    ):
        return False
    fns = functionals(s.ambient)
    if any(fn(p) < 0 for p in {p for v in cells for p in v} for fn in fns):
        return False
    if sum(map(placing_nvol, cells)) != placing_nvol(s.ambient):
        return False
    return all(common_face_ok(a, b) for a, b in combinations(cells, 2))


def random_polytope_subdivision(rng, dim: int) -> Subdivision:
    """A random full-dimensional lattice polytope as a one-cell subdivision.

    Its store holds every lattice point of the polytope.
    """
    span = 3 if dim == 1 else 2 if dim == 2 else 1
    while True:
        pts = {
            tuple(rng.randint(-span, span) for _ in range(dim))
            for _ in range(rng.randint(dim + 1, 8))
        }
        verts = vertex_filter(pts)
        if exact.affine_rank(verts) == dim:
            return sd.make_subdivision(
                lattice_points_bruteforce(CellPolytope(verts)), verts, [verts]
            )


def simplex_facet_functionals(vertices: Sequence[Point]) -> list[AffineFunctional]:
    """The facets of a full-dimensional simplex as Fraction functionals,
    >= 0 on it, found by facet_vertex_sets' cofactor scan, not read off
    polytope.simplex_inverse.

    A facet's d vertices span its hyperplane, whose normal is the
    cofactor vector of their d - 1 difference rows; it is negated when a
    vertex of the simplex lies on its negative side.
    """
    d = len(vertices[0])
    out = []
    for facet in facet_vertex_sets(vertices):
        base = facet[0]
        diffs = [[x - y for x, y in zip(v, base)] for v in facet[1:]]
        normal = [
            bareiss_det([[int(c == j) for c in range(d)], *diffs])
            for j in range(d)
        ]
        const = -sum(map(mul, normal, base))
        if any(sum(map(mul, normal, v)) + const < 0 for v in vertices):
            normal, const = [-x for x in normal], -const
        out.append(AffineFunctional(tuple(map(Fraction, normal)), Fraction(const)))
    return out


def _ridge_normal(rays: Sequence[Point], d: int) -> list[Fraction] | None:
    """A normal of the hyperplane through 0 and d - 1 rays in R^d, read off
    a plain Fraction row reduction; None if the rays are dependent."""
    a = [[Fraction(x) for x in r] for r in rays]
    pivots: list[int] = []
    for k in range(d):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][k] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        a[r] = [x / a[r][k] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(k)
    if len(pivots) != len(a):
        return None
    free = next(k for k in range(d) if k not in pivots)
    normal = [Fraction(0)] * d
    normal[free] = Fraction(1)
    for row, k in zip(a, pivots):
        normal[k] = -row[free]
    return normal


def fan_fraction(art) -> ResolutionFan:
    """The resolution fan with every flag evaluated on Fraction functionals.

    Same contract as invariants.fan_from_triangulation: the cones over the
    cell facets lying in one boundary facet of the ambient simplex, each
    facet tested point by point on the ambient's facet functionals, which
    come from a cofactor scan (simplex_facet_functionals), independent of
    the simplex_inverse rows the fan reads.  Complete needs the volume
    sum and, at every ridge (a cone minus one ray), exactly two cones whose
    off-ridge rays lie strictly on opposite sides of the hyperplane through
    0 and the ridge's rays (_ridge_normal), not the fan's determinant
    parity rule.
    """
    t = art.triangulation
    ambient = t.ambient
    d = t.ambient_dim
    facets = simplex_facet_functionals(ambient)
    for hs in facets:
        if hs((0,) * d) <= 0:
            raise DomainError("origin is not strictly interior to the polytope")

    def on_boundary(p: Point) -> bool:
        return any(hs(p) == 0 for hs in facets)

    boundary_flags = [on_boundary(p) for p in t.points]
    ray_index: dict[int, int] = {}
    rays: list[Point] = []
    cones: set[tuple[int, ...]] = set()
    for c in t.cells:
        for k in range(len(c)):
            facet = c[:k] + c[k + 1 :]
            if not all(boundary_flags[i] for i in facet):
                continue
            pts = [t.points[i] for i in facet]
            # the facet must lie in a single boundary facet of the polytope
            if not any(all(hs(p) == 0 for p in pts) for hs in facets):
                continue
            for i in facet:
                if i not in ray_index:
                    ray_index[i] = len(rays)
                    rays.append(t.points[i])
            cones.add(tuple(sorted(ray_index[i] for i in facet)))

    cone_list = tuple(sorted(cones))
    dets = [
        abs(bareiss_det([rays[i] for i in cone])) for cone in cone_list
    ]
    smooth = all(dv == 1 for dv in dets) and all(
        gcd(*map(abs, r)) == 1 for r in rays
    )
    off_ridge: dict[tuple[int, ...], list[int]] = {}
    for cone in cone_list:
        for i in cone:
            off_ridge.setdefault(tuple(j for j in cone if j != i), []).append(i)

    def splits(ridge: tuple[int, ...], off: list[int]) -> bool:
        if len(off) != 2:
            return False
        normal = _ridge_normal([rays[j] for j in ridge], d)
        if normal is None:
            return False
        a, b = (sum(map(mul, normal, rays[i])) for i in off)
        return a * b < 0

    complete = sum(dets) == placing_nvol(ambient) and all(
        splits(ridge, off) for ridge, off in off_ridge.items()
    )
    crepant = all(
        min(hs(r) for hs in facets) == 0 and all(hs(r) >= 0 for hs in facets)
        for r in rays
    )
    return ResolutionFan(tuple(rays), cone_list, complete, smooth, crepant)


def verify_whole_join(t: Triangulation) -> sd.VerifyReport:
    """The structural report of subdivision.verify as a scan of the whole
    facet join, on simplices over a simplex.

    Every facet's cells are gathered first, in cell order, and the scan
    names the facets of three or more cells and the unmatched ones off
    the boundary in join order, then the folds.  Volumes are the
    determinants of the rows (v, 1) up to the first flat cell, and the
    cells from it on give no fold; the ambient's facets come from the
    cofactor scan (simplex_facet_functionals), and a fold is decided for
    each of the two cells by the determinant of the facet's rows (v, 1)
    with the cell's vertex off it last, not by the parity rule off the
    cell's own determinant.
    """
    pts, cells = t.points, t.cells
    d = t.ambient_dim
    assert len(t.ambient) == d + 1 and all(len(c) == d + 1 for c in cells)
    dets: list[int] = []
    for c in cells:
        det = bareiss_det([[*pts[i], 1] for i in c])
        if det == 0:
            break
        dets.append(det)
    facets = simplex_facet_functionals(t.ambient)
    failures: list[str] = []
    checksum = None
    if len(dets) < len(cells):
        failures.append("degenerate cell: zero-volume simplex")
    else:
        checksum = sum(map(abs, dets))
        nvol = abs(bareiss_det([[*v, 1] for v in t.ambient]))
        if checksum != nvol:
            failures.append(f"volume checksum {checksum} != ambient nvol {nvol}")
    for c in cells:
        out = next((i for i in c if any(h(pts[i]) < 0 for h in facets)), None)
        if out is not None:
            failures.append(f"cell vertex {pts[out]} outside ambient")
    join: dict[Cell, list[int]] = {}
    for ci, c in enumerate(cells):
        for i in c:
            join.setdefault(tuple(j for j in c if j != i), []).append(ci)
    folds: list[str] = []
    for key, on in join.items():
        if len(on) > 2:
            failures.append(f"facet {key} shared by {len(on)} cells")
        elif len(on) == 1:
            if not any(all(h(pts[i]) == 0 for i in key) for h in facets):
                failures.append(f"facet {key} unmatched and not on the boundary")
        elif max(on) < len(dets):
            a, b = (
                bareiss_det([[*pts[i], 1] for i in (*key, q)])
                for q in (next(i for i in cells[ci] if i not in key) for ci in on)
            )
            if a * b > 0:
                folds.append(
                    f"cells {cells[on[0]]} and {cells[on[1]]} lie on one side "
                    f"of their common facet {key}"
                )
    failures += folds
    first = None if failures else next(
        ((c, abs(x)) for c, x in zip(cells, dets) if abs(x) != 1), None
    )
    return sd.VerifyReport(
        not failures, not failures and first is None, checksum, failures, first
    )


# M_n at levels 2-5: each the least power of two from 2^1 up whose
# heights pass the wall check at levels 2-4; level 5 tried only 2^23
CLOSED_FORM_M = {2: 2, 3: 2**5, 4: 2**11, 5: 2**23}


def closed_form_p2dual(n: int) -> tuple[Triangulation, tuple[int, ...]]:
    """The level-n p2dual triangulation in closed form, with integer
    heights W_n, built level by level without pulling.

    Over each level-(n-1) cell with vertices v_1 < ... < v_n (store
    order), column heights h = family.hyperplane_height and apex z =
    (-1, ..., -1, s_{n-1} - 1), the level-n cells are the cone cell
    {z} u {(v_i, h(v_i))} and, for each j and -1 <= t < h(v_j), the
    staircase cell {(v_i, -1) : i < j} u {(v_j, t), (v_j, t + 1)} u
    {(v_i, h(v_i)) : i > j}.  The heights are W_1 = (1, 0, 1), W_n(y, t)
    = M_n W_{n-1}(y) + t^2 - K_n r(y) t with r(y) the position of y in
    the level-(n-1) store and K_n = 2 s_{n-1} + 3, and W_n(z) = 1 + the
    largest other height.
    """
    ambient = family.build(family.FamilySpec(family.Family.P2DUAL, 1)).vertices
    t = sd.make_subdivision([(-1,), (0,), (1,)], ambient, [[(-1,), (0,)], [(0,), (1,)]])
    heights: tuple[int, ...] = (1, 0, 1)
    for level in range(2, n + 1):
        s_prev = family.sylvester(level - 1)
        z = ((-1,) * (level - 1)) + (s_prev - 1,)
        top = {y: family.hyperplane_height(level, y) for y in t.points}
        cell_lists = []
        for c in t.cells:
            vs = t.cell_points(c)
            cell_lists.append([(*v, top[v]) for v in vs] + [z])
            for j, v in enumerate(vs):
                below = [(*u, -1) for u in vs[:j]]
                above = [(*u, top[u]) for u in vs[j + 1 :]]
                cell_lists += [
                    below + [(*v, s), (*v, s + 1)] + above for s in range(-1, top[v])
                ]
        m, k = CLOSED_FORM_M[level], 2 * s_prev + 3
        w = {
            (*y, s): m * heights[r] + s * s - k * r * s
            for r, y in enumerate(t.points)
            for s in range(-1, top[y] + 1)
        }
        w[z] = 1 + max(w.values())
        spec = family.FamilySpec(family.Family.P2DUAL, level)
        t = sd.make_subdivision(w, family.build(spec).vertices, cell_lists)
        heights = tuple(w[p] for p in t.points)
    return t, heights
