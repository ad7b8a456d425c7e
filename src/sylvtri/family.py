"""The Sylvester-weighted simplex families and their structured enumeration.

Sylvester's sequence s_0 = 2, s_{k+1} = s_0 ... s_k + 1 drives everything:
the two simplex families, the self-duality map of the second family, and the
column structure of the lattice points of its polar dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

from . import exact, polytope
from .errors import DomainError, FeasibilityLimit
from .polytope import LatticeSimplex, Point

MAX_ENUMERATION_POINTS = 5_000_000


class Family(Enum):
    P1 = "p1"
    P2 = "p2"
    P2DUAL = "p2dual"


@dataclass(frozen=True)
class FamilySpec:
    family: Family
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("family index n must be >= 1")
        if self.family is Family.P1 and self.n < 2:
            raise DomainError("family p1 needs n >= 2")


@lru_cache(maxsize=None)
def sylvester(n: int) -> int:
    """n-th term of Sylvester's sequence: 2, 3, 7, 43, 1807, ..."""
    if n < 0:
        raise DomainError("sylvester index must be >= 0")
    if n == 0:
        return 2
    return sylvester_product(n - 1) + 1


@lru_cache(maxsize=None)
def sylvester_product(n: int) -> int:
    """Product s_0 * s_1 * ... * s_n."""
    if n == 0:
        return 2
    return sylvester_product(n - 1) * sylvester(n)


def degrees(n: int) -> tuple[int, int]:
    """The degree pair (2 s_{n-1} - 2, s_n - 1) for index n >= 1."""
    if n < 1:
        raise DomainError("degrees requires n >= 1")
    return 2 * sylvester(n - 1) - 2, sylvester(n) - 1


def cell_count(spec: FamilySpec, limit: int) -> int | None:
    """The number of cells of any unimodular triangulation of spec's
    simplex, its normalized volume: s_0 ... s_{n-1} = s_n - 1 for p2dual
    and p2, twice s_0 ... s_{n-2} for p1.  None once the running product
    passes limit, so a huge level builds no huge term."""
    p1 = spec.family is Family.P1
    count = 2 if p1 else 1
    for k in range(spec.n - 1 if p1 else spec.n):
        count *= sylvester(k)
        if count > limit:
            return None
    return count


def _basis_vector(i: int, dim: int) -> Point:
    return tuple(1 if j == i else 0 for j in range(dim))


def weight_vertex_w1(n: int) -> Point:
    """Apex vertex of the first family: (-d1/s_0, ..., -d1/s_{n-2}, -1),
    integral as d1 = 2 (s_{n-1} - 1) = 2 s_0 ... s_{n-2}: each s_i with
    i < n - 1 divides it."""
    d1, _ = degrees(n)
    coords = [-(d1 // sylvester(i)) for i in range(n - 1)]
    return tuple(coords + [-1])


def weight_vertex_w2(n: int) -> Point:
    """Apex vertex of the second family: (-d2/s_0, ..., -d2/s_{n-1})."""
    _, d2 = degrees(n)
    return tuple(-(d2 // sylvester(i)) for i in range(n))


def build(spec: FamilySpec) -> LatticeSimplex:
    """Construct a family member with a fixed vertex order.

    Order is e_0, ..., e_{n-1}, apex for P1/P2; for the dual family the
    all-(-1) vertex comes first, then the images of the basis vectors.
    """
    n = spec.n
    if spec.family is Family.P1:
        verts = [_basis_vector(i, n) for i in range(n)] + [weight_vertex_w1(n)]
    elif spec.family is Family.P2:
        verts = [_basis_vector(i, n) for i in range(n)] + [weight_vertex_w2(n)]
    else:
        verts = [(-1,) * n] + [
            tuple(sylvester(i) - 1 if j == i else -1 for j in range(n))
            for i in range(n)
        ]
    return LatticeSimplex(tuple(verts))


@dataclass(frozen=True)
class DualityMap:
    """The unimodular map sending the second family onto its polar dual."""

    matrix: tuple[tuple[int, ...], ...]  # rows

    def apply(self, p: Point) -> Point:
        """The image of p, each row's value at p by the generated at of
        exact._row_kernel."""
        at, rows = self._kernel_rows
        return tuple([at(r, p) for r in rows])

    @cached_property
    def _kernel_rows(self):
        """at for rows of len(p) + 1 entries, and the rows with constant 0."""
        return exact._row_kernel(len(self.matrix[0]))[0], [(*r, 0) for r in self.matrix]

    def inverse(self) -> "DualityMap":
        """The inverse map; a matrix with |det| != 1 has no integer inverse."""
        inv, d = exact.integer_inverse(self.matrix)
        if d != 1:
            raise DomainError(f"duality map has |det| {d}, expected 1")
        return DualityMap(tuple(inv))


@lru_cache(maxsize=None)
def duality_map(n: int) -> DualityMap:
    """Map with columns e_i -> (-1, ..., s_i - 1, ..., -1); det 1, verified."""
    if n < 1:
        raise DomainError("duality_map requires n >= 1")
    rows = tuple(
        tuple(sylvester(j) - 1 if i == j else -1 for j in range(n)) for i in range(n)
    )
    d = exact.det_int(rows)
    if d != 1:
        raise DomainError(f"duality map determinant is {d}, expected 1")
    return DualityMap(rows)


@lru_cache(maxsize=None)
def _dual_facet_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Integer facet rows of the level-n dual simplex, >= 0 on it."""
    return tuple(
        polytope.simplex_inverse(build(FamilySpec(Family.P2DUAL, n)).vertices)[0]
    )


def column_height(n_plus_1: int, y: Point) -> int:
    """Maximal last coordinate of a lattice point of the level-(n+1) dual
    polytope lying above the level-n lattice point y.

    The all-(-1) point carries the apex column of height s_n - 1; every other
    column tops out on the hyperplane sum((s_n - 1)/s_i) x_i + x_n = 0.
    """
    n = n_plus_1 - 1
    if n < 1 or len(y) != n:
        raise DomainError("column_height expects a point one dimension down")
    if any(polytope.row_at(row, y) < 0 for row in _dual_facet_rows(n)):
        raise DomainError(f"{y} is not in the level-{n} dual polytope")
    if y == (-1,) * n:
        return sylvester(n) - 1
    return hyperplane_height(n_plus_1, y)


def hyperplane_height(n_plus_1: int, y: Point) -> int:
    """Height of the slanted clipping hyperplane over y (integral by the
    divisibility of s_n - 1 by each earlier term)."""
    n = n_plus_1 - 1
    sn = sylvester(n)
    return -sum(((sn - 1) // sylvester(i)) * y[i] for i in range(n))


@lru_cache(maxsize=None)
def lattice_points_p2dual(n: int) -> tuple[Point, ...]:
    """All lattice points of the level-n dual polytope, sorted lex.

    Recursive column enumeration: base {-1, 0, 1} for n = 1; each
    level-(n-1) point y carries the column (y, t) for t from -1 to its
    column height.  The output comes strictly increasing without a sort:
    the points below do (by induction), so the columns come in lex order
    of y, and each column's t ascends.  Refuses (FeasibilityLimit) beyond
    MAX_ENUMERATION_POINTS points.
    """
    if n < 1:
        raise DomainError("lattice_points_p2dual requires n >= 1")
    if n == 1:
        return ((-1,), (0,), (1,))
    below = lattice_points_p2dual(n - 1)
    out: list[Point] = []
    for y in below:
        top = column_height(n, y)
        out.extend((*y, t) for t in range(-1, top + 1))
        if len(out) > MAX_ENUMERATION_POINTS:
            raise FeasibilityLimit(
                "point enumeration exceeds configured limit "
                f"{MAX_ENUMERATION_POINTS}"
            )
    return tuple(out)

