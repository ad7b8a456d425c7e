"""Lattice polytopes and simplices: volumes, duality, facets.

Points are plain tuples of ints (lattice) or Fractions (rational).  A facet
of a full-dimensional cell is one integer row (coeffs..., const), >= 0 on
the cell and 0 on that facet.  A simplex's facet rows are its integer
inverse's; a polytopal cell's grow by the beneath-beyond step from those
of a simplex on its points, one point at a time, each new row read off two
old ones through a ridge (exact._row_kernel's comb), so no point subset
is searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from . import exact
from .errors import DegenerateGeometry, DimensionMismatch, DomainError

Point = tuple[int, ...]
RatPoint = tuple[Fraction, ...]
# An integer affine form (row, den), den > 0, stands for the map
# x -> row_at(row, x) / den: a row of simplex_inverse over its D, or the
# interpolant (y, D) of volume_form or hull, with its constant term.
Form = tuple[Sequence[int], int]


@dataclass(frozen=True)
class LatticeSimplex:
    """Simplex given by its affinely independent lattice vertices."""

    vertices: tuple[Point, ...]

    def __post_init__(self):
        if not self.vertices:
            raise DegenerateGeometry("simplex needs at least one vertex")
        dim = len(self.vertices[0])
        if any(len(v) != dim for v in self.vertices):
            raise DimensionMismatch("simplex vertices of mixed dimension")
        if exact.affine_rank(self.vertices) != len(self.vertices) - 1:
            raise DegenerateGeometry("simplex vertices are affinely dependent")

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def is_full_dim(self) -> bool:
        return self.dim == self.ambient_dim


@dataclass(frozen=True)
class RationalSimplex:
    """Simplex with rational (non-lattice) vertices, e.g. a non-reflexive dual."""

    vertices: tuple[RatPoint, ...]


def nvol(s: LatticeSimplex | Sequence[Point]) -> int:
    """Normalized volume of a full-dimensional lattice simplex.

    Equals |det| of the vertex matrix with a homogenizing row appended,
    i.e. n! times the euclidean volume.
    """
    return abs(signed_nvol(s.vertices if isinstance(s, LatticeSimplex) else s))


def signed_nvol(verts: Sequence[Point]) -> int:
    """det of the rows (v, 1) of a full-dimensional simplex, never 0.

    Its absolute value is nvol; its sign is the orientation of the vertex
    order.  Subtracting row 0 from the others leaves (v_i - v_0, 0), so
    expanding along the last column gives (-1)^d times the det of the d x d
    differences v_i - v_0 (exact._simplex_det: the generated Laplace
    expansion, Bareiss above exact._KERNEL_MAX_DIM).
    """
    dim = len(verts[0])
    if len(verts) != dim + 1:
        raise DegenerateGeometry("nvol requires a full-dimensional simplex")
    d = exact._simplex_det(verts)
    if d == 0:
        raise DegenerateGeometry("zero-volume simplex")
    return -d if dim % 2 else d


def volume_form(verts: Sequence[Point], heights: Sequence[int]) -> tuple[int, Form]:
    """A d-simplex's signed_nvol and the integer affine form (y, D), D > 0,
    whose row_at(y, x) / D interpolates integer heights at its vertices.

    D is |det| of the rows (v_k, 1).  Up to exact._KERNEL_MAX_DIM the
    generated kernel (exact._kernel) gives P, the det of the differences
    v_k - v_0, and P times the linear part a, the Cramer numerators of
    [v_k - v_0 | h_k - h_0], no division; (-1)^d P is signed_nvol.  Above
    the cap the form is _interpolant's.  Raises DegenerateGeometry on a
    flat simplex, DimensionMismatch on any other vertex count.
    """
    v0, h0 = verts[0], heights[0]
    dim = len(v0)
    if len(verts) <= dim:
        raise DimensionMismatch("solve requires k >= n equations in n unknowns")
    if len(verts) > dim + 1:
        raise DimensionMismatch("need exactly d+1 vertices in dimension d")
    if dim > exact._KERNEL_MAX_DIM:
        form = _interpolant(simplex_inverse(verts), heights)
        return signed_nvol(verts), form
    det, y = exact._kernel(dim)[1](verts, heights)
    if det == 0:
        raise DegenerateGeometry("singular linear system")
    last = abs(det)
    if det < 0:
        y = [-x for x in y]
    y.append(last * h0 - sum(map(mul, y, v0)))
    return -det if dim % 2 else det, (y, last)


def _interpolant(
    inverse: tuple[Sequence[Sequence[int]], int], heights: Sequence[int]
) -> Form:
    """sum_k h_k Y[k] over D for a simplex_inverse (Y, D), whose row k over
    D is the barycentric coordinate at vertex k: h_k at vertex k, affine."""
    y, den = inverse
    return [sum(map(mul, heights, col)) for col in zip(*y)], den


def simplex_inverse(verts: Sequence[Point]) -> tuple[list[tuple[int, ...]], int]:
    """Integer inverse (Y, D), D > 0, of a simplex's homogenised vertex matrix.

    The matrix has one column (v, 1) per vertex, so the barycentric
    coordinate of x at vertex k is (Y[k] . (x, 1)) / D.  For a lattice
    simplex D is its normalized volume.
    """
    dim = len(verts[0])
    if len(verts) != dim + 1:
        raise DimensionMismatch("need exactly d+1 vertices in dimension d")
    rows = [[v[k] for v in verts] for k in range(dim)] + [[1] * len(verts)]
    return exact.integer_inverse(rows)


def polar_dual(s: LatticeSimplex) -> LatticeSimplex | RationalSimplex:
    """Polar dual of a full-dimensional simplex with 0 strictly interior.

    Dual vertex i solves <u, v_j> = -1 for every j != i.  Row i of
    (Y, D) = simplex_inverse(s.vertices) vanishes at those v_j and has
    Y[i] . (v_i, 1) = D, so u = Y[i][:-1] / Y[i][-1] and
    <u, v_i> + 1 = D / Y[i][-1].  Y[i][-1], row i at the origin, is 0 iff
    the origin lies on facet i's hyperplane (the system is singular); as
    D > 0, the origin is strictly inside iff every Y[i][-1] > 0.  Facets
    are checked in vertex order.

    Returns a LatticeSimplex when every dual vertex is integral (reflexive
    case), otherwise a RationalSimplex; never rounds.
    """
    if not s.is_full_dim:
        raise DegenerateGeometry("polar dual requires a full-dimensional simplex")
    y, _ = simplex_inverse(s.vertices)
    duals = []
    for row in y:
        if row[-1] == 0:
            raise DomainError("origin lies on a facet hyperplane")
        if row[-1] < 0:
            raise DomainError("origin is not strictly interior")
        duals.append(tuple(Fraction(x, row[-1]) for x in row[:-1]))
    if all(c.denominator == 1 for v in duals for c in v):
        return LatticeSimplex(tuple(tuple(int(c) for c in v) for v in duals))
    return RationalSimplex(tuple(duals))


def row_at(row: Sequence[int], p: Point) -> int:
    """row[:-1] . p + row[-1], an integer for an integral point: the
    generated at (exact._row_kernel), which hot loops fetch once."""
    return exact._row_kernel(len(row) - 1)[0](row, p)


def facet_table(
    rows: Sequence[Sequence[int]], points: Sequence[Point]
) -> tuple[list[int], set[int]]:
    """Each point's facet mask, bit j set where rows[j] is 0 there, and
    the positions of the points outside, where some row is negative."""
    masks, outside = [], set()
    at = exact._row_kernel(len(rows[0]) - 1)[0]
    for i, p in enumerate(points):
        values = [at(row, p) for row in rows]
        if min(values) < 0:
            outside.add(i)
        masks.append(sum(1 << j for j, x in enumerate(values) if x == 0))
    return masks, outside


def ridges(sets: Sequence[frozenset[int]], f: int) -> dict[int, frozenset[int]]:
    """{g: F & G} for the facets G = sets[g] meeting F = sets[f] in a ridge.

    sets are the facets of a full-dimensional polytope, each the set of
    the indexed points on it, its vertices among them, so two faces are
    equal iff their sets are.  The ridges in F are its maximal proper
    faces, each F & H for one facet H, so F & G is one iff no other F & H
    strictly contains it, as none can when it is one point short of F.
    """
    fset = sets[f]
    meets = [fset & gset for gset in sets]
    return {
        g: ridge
        for g, ridge in enumerate(meets)
        if g != f
        and (
            len(ridge) == len(fset) - 1
            or not any(ridge < other for h, other in enumerate(meets) if h != f)
        )
    }


def hull(
    verts: Sequence[Point], heights: Sequence[int]
) -> tuple[dict[frozenset[int], tuple[int, ...]], Form]:
    """Facets (as point-index sets) of a full-dimensional conv(verts), and
    the form (y, D), D > 0, interpolating integer heights on verts.

    Each facet maps to an integer row, >= 0 on the cell and 0 exactly at
    the facet's points.  Beneath-beyond (Seidel 1981; Edelsbrunner,
    *Algorithms in Combinatorial Geometry*, 1987): the facets of the
    simplex on the first d + 1 affinely independent points (verts[0] and
    those at the pivot columns of the differences v - verts[0]) are its
    simplex_inverse rows, in vertex order, and the form is read off them
    (_interpolant); each further point x, in order, lies on the form and
    replaces the hull P of the points before it by conv(P + x).  A facet F
    with row f_F(x) < 0 is seen from x and goes; one with f_G(x) >= 0
    stays a facet, gaining x when f_G(x) = 0.  The new facets are conv((F
    & G) + x) for the ridges F & G of P with f_F(x) < 0 < f_G(x), the
    horizon; their rows comb(f_G(x), f_G, f_F(x), f_F) vanish at x and
    on F & G and are >= 0 on P, and an earlier point on one lies on F and
    G, so in F & G.  A ridge whose G has f_G(x) = 0 lies in G's
    hyperplane, part of G's grown facet.  at and comb are
    exact._row_kernel's, fetched once per call.  Raises
    DegenerateGeometry if the points do not span R^d or a height lies off
    the form.
    """
    base = verts[0]
    at, comb, _ = exact._row_kernel(len(base))
    columns = [[v[k] - base[k] for v in verts[1:]] for k in range(len(base))]
    simplex = [0] + [j + 1 for j in exact.pivot_columns(columns)]
    if len(simplex) != len(base) + 1:
        raise DegenerateGeometry("singular linear system")
    rows, den = simplex_inverse([verts[i] for i in simplex])
    form = _interpolant((rows, den), [heights[i] for i in simplex])
    sets = [frozenset(simplex) - {i} for i in simplex]
    for i in range(1, len(verts)):
        if i in simplex:
            continue
        if at(form[0], verts[i]) != heights[i] * den:
            raise DegenerateGeometry("inconsistent linear system")
        lam = [at(row, verts[i]) for row in rows]
        new_sets, new_rows = [], []
        for f, lf in enumerate(lam):
            if lf < 0:
                for g, ridge in ridges(sets, f).items():
                    if lam[g] > 0:
                        new_sets.append(ridge | {i})
                        new_rows.append(comb(lam[g], rows[g], lf, rows[f]))
        kept = [f for f, x in enumerate(lam) if x >= 0]
        sets = [sets[f] | {i} if lam[f] == 0 else sets[f] for f in kept] + new_sets
        rows = [rows[f] for f in kept] + new_rows
    return dict(zip(sets, rows)), form
