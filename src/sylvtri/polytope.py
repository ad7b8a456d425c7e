"""Lattice polytopes and simplices: volumes, duality, facets.

Points are plain tuples of ints (lattice) or Fractions (rational).  A facet
of a full-dimensional cell is one integer row (coeffs..., const), >= 0 on
the cell and 0 on that facet.  All cells appearing in this project are
low-dimensional with few vertices, so facet enumeration is a brute-force
supporting-hyperplane scan, which is trivial to audit for exactness, and
lower faces follow from facet incidences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
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
    """row[:-1] . p + row[-1], an integer for an integral point."""
    # map stops at p's end, so row[-1] is the homogenising term
    return sum(map(mul, row, p)) + row[-1]


def facet_mask(rows: Sequence[Sequence[int]], p: Point) -> int:
    """Bit j set where p lies on facet j, the zero set of rows[j]."""
    return sum(1 << j for j, row in enumerate(rows) if row_at(row, p) == 0)


def _hyperplane_functional(verts: Sequence[Point], idxs: Sequence[int]):
    """Integer row (coeffs..., const) vanishing on d chosen vertices, or None.

    verts span R^d and idxs names exactly d of them.  The coefficients are
    the d cofactors of their d-1 difference rows, which all vanish iff the
    points are affinely dependent (then None).
    """
    k = len(verts[0])
    base = verts[idxs[0]]
    rows = [[x - y for x, y in zip(verts[i], base)] for i in idxs[1:]]
    # coefficient j = cofactor determinant with e_j replacing the free row
    coeffs = []
    for j in range(k):
        m = [[1 if c == j else 0 for c in range(k)]] + [list(r) for r in rows]
        coeffs.append(exact.det_int(m))
    if all(c == 0 for c in coeffs):
        return None
    return (*coeffs, -sum(c * x for c, x in zip(coeffs, base)))


def _facet_index_sets(verts: Sequence[Point]) -> dict[frozenset[int], tuple[int, ...]]:
    """Facets (as point-index sets) of a full-dimensional conv(verts).

    Each maps to the row of the first d-subset found to span it, oriented
    >= 0 on the cell; subsets inside a facet already found are skipped.
    """
    facets: dict[frozenset[int], tuple[int, ...]] = {}
    for idxs in combinations(range(len(verts)), len(verts[0])):
        if any(fs.issuperset(idxs) for fs in facets):
            continue
        row = _hyperplane_functional(verts, idxs)
        if row is None:
            continue
        vals = [row_at(row, p) for p in verts]
        if min(vals) < 0 < max(vals):
            continue
        if min(vals) < 0:
            row = tuple(-x for x in row)
        facets[frozenset(i for i, v in enumerate(vals) if v == 0)] = row
    return facets


def inner_functionals(vertices: Sequence[Point]) -> list[tuple[int, ...]]:
    """Integer facet rows (coeffs..., const) of a full-dimensional cell.

    Each row is >= 0 on the cell and 0 on exactly one facet (read with
    row_at): a simplex's simplex_inverse rows, in vertex order, or a
    polytopal cell's cofactor rows, ordered by their facets' sorted index
    sets.
    """
    dim = len(vertices[0])
    if exact.affine_rank(vertices) != dim:
        raise DegenerateGeometry("inner_functionals requires a full-dimensional cell")
    if len(vertices) == dim + 1:
        return simplex_inverse(vertices)[0]
    facets = _facet_index_sets(vertices)
    return [facets[fs] for fs in sorted(facets, key=sorted)]


def triangulate_cell(vertices: Sequence[Point]) -> list[tuple[Point, ...]]:
    """Simplicial decomposition of a full-dimensional cell by placing from
    the least vertex of each face.

    Used only as volume plumbing (no new points are introduced).  Faces are
    index sets into the sorted vertices, found by incidence from the cell's
    facets alone: the facets of a face F are the maximal proper sets F & G,
    G a facet of the cell, since every face of F is a face of the cell, an
    intersection of its facets.  A k-face with k + 1 points is a simplex.
    """
    verts = tuple(sorted(vertices))
    dim = len(verts[0])
    if exact.affine_rank(verts) != dim:
        raise DegenerateGeometry("triangulate_cell requires a full-dimensional cell")
    if len(verts) == dim + 1:
        return [verts]
    facets = list(_facet_index_sets(verts))

    def place(face: frozenset[int], k: int) -> list[tuple[Point, ...]]:
        idx = sorted(face)
        if len(idx) == k + 1:
            return [tuple(verts[i] for i in idx)]
        meets = {face & g for g in facets} - {face}
        apex = verts[idx[0]]
        return [
            (apex,) + piece
            for sub in sorted(meets, key=sorted)
            if idx[0] not in sub and not any(sub < other for other in meets)
            for piece in place(sub, k - 1)
        ]

    return place(frozenset(range(len(verts))), dim)


def nvol_cell(vertices: Sequence[Point]) -> int:
    """Normalized volume of a full-dimensional polytopal cell (triangulate_cell
    refuses any other)."""
    return sum(nvol(piece) for piece in triangulate_cell(vertices))
