"""Lattice polytopes and simplices: volumes, duality, facets.

Points are plain tuples of ints (lattice) or Fractions (rational).  All cells
appearing in this project are low-dimensional with few vertices, so face
enumeration is a brute-force supporting-hyperplane scan, which is trivial to
audit for exactness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import exact
from .errors import DegenerateGeometry, DimensionMismatch, DomainError

Point = tuple[int, ...]
RatPoint = tuple[Fraction, ...]


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


@dataclass(frozen=True)
class HalfSpace:
    """Closed half-space {x : <normal, x> + offset >= 0}."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self):
        if all(c == 0 for c in self.normal):
            raise DegenerateGeometry("half-space normal must be nonzero")
        object.__setattr__(
            self, "_fn", exact.AffineFunctional(self.normal, self.offset)
        )

    def eval(self, p: Sequence[Fraction | int]) -> Fraction:
        return self._fn(p)

    def canonical(self) -> "HalfSpace":
        """Offset-1 form when offset > 0, else primitive integer form."""
        if self.offset > 0:
            f = 1 / self.offset
            return HalfSpace(tuple(c * f for c in self.normal), Fraction(1))
        entries = list(self.normal) + [self.offset]
        d = math.lcm(*(e.denominator for e in entries))
        ints = [int(e * d) for e in entries]
        g = math.gcd(*ints)
        ints = [x // g for x in ints]
        return HalfSpace(tuple(Fraction(x) for x in ints[:-1]), Fraction(ints[-1]))


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
    differences v_i - v_0.
    """
    dim = len(verts[0])
    if len(verts) != dim + 1:
        raise DegenerateGeometry("nvol requires a full-dimensional simplex")
    v0 = verts[0]
    d = exact.det_int([[x - y for x, y in zip(v, v0)] for v in verts[1:]])
    d = -d if dim % 2 else d
    if d == 0:
        raise DegenerateGeometry("zero-volume simplex")
    return d


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


def barycentric_functionals(verts: Sequence[Point]) -> list[exact.AffineFunctional]:
    """Affine barycentric coordinates of a full-dimensional simplex."""
    y, d = simplex_inverse(verts)
    return [
        exact.AffineFunctional(
            tuple(Fraction(x, d) for x in row[:-1]), Fraction(row[-1], d)
        )
        for row in y
    ]


def halfspaces(s: LatticeSimplex) -> list[HalfSpace]:
    """The d+1 half-spaces cutting out a full-dimensional simplex.

    The half-space at index i is saturated by every vertex except vertex i.
    Offset-1 normalization is used whenever the facet hyperplane has the
    origin strictly on the inner side.
    """
    if not s.is_full_dim:
        raise DegenerateGeometry("halfspaces requires a full-dimensional simplex")
    return [
        HalfSpace(fn.coeffs, fn.constant).canonical()
        for fn in barycentric_functionals(s.vertices)
    ]


def polar_dual(s: LatticeSimplex) -> LatticeSimplex | RationalSimplex:
    """Polar dual of a full-dimensional simplex with 0 strictly interior.

    Returns a LatticeSimplex when every dual vertex is integral (reflexive
    case), otherwise a RationalSimplex; never rounds.
    """
    if not s.is_full_dim:
        raise DegenerateGeometry("polar dual requires a full-dimensional simplex")
    duals = []
    for i in range(len(s.vertices)):
        others = [v for j, v in enumerate(s.vertices) if j != i]
        try:
            u = exact.solve([list(v) for v in others], [-1] * len(others))
        except DegenerateGeometry as e:
            raise DomainError("origin lies on a facet hyperplane") from e
        inner = sum(c * x for c, x in zip(u, s.vertices[i])) + 1
        if inner <= 0:
            raise DomainError("origin is not strictly interior")
        duals.append(tuple(u))
    if all(c.denominator == 1 for v in duals for c in v):
        return LatticeSimplex(tuple(tuple(int(c) for c in v) for v in duals))
    return RationalSimplex(tuple(duals))


def _independent_columns(basis_rows: list[list[Fraction]]) -> list[int]:
    """Column indices on which the row space has full rank."""
    k = len(basis_rows)
    cols: list[int] = []
    for j in range(len(basis_rows[0])):
        trial = cols + [j]
        sub = [[row[c] for c in trial] for row in basis_rows]
        if exact.rank(sub) == len(trial):
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
        if exact.rank(basis + [d]) == len(basis) + 1:
            basis.append(d)
        if len(basis) == k:
            break
    cols = _independent_columns(basis)
    raw = [tuple(Fraction(p[c] - base[c]) for c in cols) for p in points]
    denom = math.lcm(*(x.denominator for pt in raw for x in pt)) if raw else 1
    return [tuple(int(x * denom) for x in pt) for pt in raw]


def _hyperplane_functional(coords: Sequence[tuple[int, ...]], idxs: Sequence[int]):
    """Integer affine functional vanishing on k chosen points, or None.

    coords live in full-rank k-space and idxs names exactly k of them.  The
    coefficients are the k cofactors of their k-1 difference rows, which
    all vanish iff the points are affinely dependent (then None).
    """
    k = len(coords[0])
    base = coords[idxs[0]]
    rows = [[x - y for x, y in zip(coords[i], base)] for i in idxs[1:]]
    # coefficient j = cofactor determinant with e_j replacing the free row
    coeffs = []
    for j in range(k):
        m = [[1 if c == j else 0 for c in range(k)]] + [list(r) for r in rows]
        coeffs.append(exact.det_int(m))
    if all(c == 0 for c in coeffs):
        return None
    const = -sum(c * x for c, x in zip(coeffs, base))
    return coeffs, const


def _facet_index_sets(coords: Sequence[tuple[int, ...]]) -> dict[frozenset[int], tuple]:
    """Facets (as point-index sets) of conv(coords) in full-rank k-space.

    Each maps to the (coeffs, const) of the first k-subset found to span
    it; subsets inside a facet already found are skipped.
    """
    k = len(coords[0])
    facets: dict[frozenset[int], tuple] = {}
    if k == 0:
        return facets
    for idxs in combinations(range(len(coords)), k):
        if any(fs.issuperset(idxs) for fs in facets):
            continue
        fn = _hyperplane_functional(coords, idxs)
        if fn is None:
            continue
        coeffs, const = fn
        vals = [sum(c * x for c, x in zip(coeffs, p)) + const for p in coords]
        if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
            facets[frozenset(i for i, v in enumerate(vals) if v == 0)] = fn
    return facets


def facet_vertex_sets(vertices: Sequence[Point]) -> list[tuple[Point, ...]]:
    """Facets of conv(vertices), each as a sorted vertex tuple."""
    if len(vertices) <= 1:
        return []
    coords = affine_coordinates(vertices)
    out = []
    for fs in _facet_index_sets(coords):
        out.append(tuple(sorted(vertices[i] for i in fs)))
    return sorted(out)


def inner_functionals(vertices: Sequence[Point]) -> list[exact.AffineFunctional]:
    """Facet functionals of a full-dimensional cell, oriented >= 0 inside."""
    dim = len(vertices[0])
    if exact.affine_rank(vertices) != dim:
        raise DegenerateGeometry("inner_functionals requires a full-dimensional cell")
    if len(vertices) == dim + 1:
        return barycentric_functionals(vertices)
    coords = list(map(tuple, vertices))
    facets = _facet_index_sets(coords)
    fns = []
    for fs in sorted(facets, key=sorted):
        coeffs, const = facets[fs]
        inside = next(i for i in range(len(vertices)) if i not in fs)
        val = sum(c * x for c, x in zip(coeffs, vertices[inside])) + const
        if val < 0:
            coeffs, const = [-c for c in coeffs], -const
        fns.append(
            exact.AffineFunctional(tuple(Fraction(c) for c in coeffs), Fraction(const))
        )
    return fns


def triangulate_cell(vertices: Sequence[Point]) -> list[tuple[Point, ...]]:
    """Simplicial decomposition of a cell by placing from its first vertex.

    Used only as volume plumbing (no new points are introduced).
    """
    verts = tuple(sorted(vertices))
    k = exact.affine_rank(verts)
    if len(verts) == k + 1:
        return [verts]
    v0 = verts[0]
    out = []
    for facet in facet_vertex_sets(verts):
        if v0 in facet:
            continue
        for piece in triangulate_cell(facet):
            out.append((v0,) + piece)
    return out


def nvol_cell(vertices: Sequence[Point]) -> int:
    """Normalized volume of a full-dimensional polytopal cell."""
    dim = len(vertices[0])
    if exact.affine_rank(vertices) != dim:
        raise DegenerateGeometry("nvol_cell requires a full-dimensional cell")
    return sum(nvol(piece) for piece in triangulate_cell(vertices))
