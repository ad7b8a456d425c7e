"""Subdivision calculus: point stores, cells, constructors, structural checks.

A Subdivision holds a lexicographically sorted point store plus maximal
cells as sorted index tuples into that store.  Constructors (column
pullback, restriction, cone, glue, lattice map) are pure: each returns a
new Subdivision.  The pulling refinement is witness.pull_sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from fractions import Fraction
from operator import and_
from typing import Callable, Iterable, Sequence

from . import exact, polytope
from .errors import (
    DegenerateGeometry,
    DomainError,
    GluingMismatch,
    IncompatibleSubdivision,
)
from .polytope import HalfSpace, Point

Cell = tuple[int, ...]

# largest cell count for which verify(pairwise="auto") runs the quadratic
# common-face check
FULL_PAIRWISE_CELL_LIMIT = 120


@dataclass(frozen=True)
class Subdivision:
    """Point store + ambient polytope (vertex list) + maximal cells."""

    points: tuple[Point, ...]
    ambient: tuple[Point, ...]
    cells: tuple[Cell, ...]

    def __post_init__(self):
        if list(self.points) != sorted(set(self.points)):
            raise DegenerateGeometry("point store must be sorted and deduplicated")

    @cached_property
    def index(self) -> dict[Point, int]:
        """Store position of each point (shared: do not mutate)."""
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def dim(self) -> int:
        return exact.affine_rank(self.ambient)

    @property
    def ambient_dim(self) -> int:
        return len(self.points[0])

    def cell_points(self, cell: Cell) -> tuple[Point, ...]:
        return tuple(self.points[i] for i in cell)

    def cell_point_sets(self) -> set[frozenset[Point]]:
        return {frozenset(self.cell_points(c)) for c in self.cells}


@dataclass(frozen=True)
class Triangulation(Subdivision):
    """Subdivision whose maximal cells are all simplices."""

    def __post_init__(self):
        super().__post_init__()
        d = self.dim
        for c in self.cells:
            if len(c) != d + 1:
                raise DegenerateGeometry("triangulation cell is not a simplex")


def make_subdivision(
    points: Iterable[Point],
    ambient: Sequence[Point],
    cell_point_lists: Iterable[Sequence[Point]],
    simplicial: bool = False,
) -> Subdivision:
    """Assemble a subdivision from explicit point data, sorting the store."""
    store = tuple(sorted(set(points)))
    idx = {p: i for i, p in enumerate(store)}
    cells = tuple(
        sorted(tuple(sorted(idx[p] for p in cp)) for cp in cell_point_lists)
    )
    cls = Triangulation if simplicial else Subdivision
    return cls(store, tuple(ambient), cells)


def cone_subdivision(z: Point, s: Subdivision) -> Subdivision:
    """Pyramids from apex z over the cells of a subdivision in a hyperplane.

    Requires all of s to lie in a hyperplane not containing z.
    """
    base_rank = exact.affine_rank(s.points)
    if exact.affine_rank(list(s.points) + [z]) != base_rank + 1:
        raise DegenerateGeometry("cone apex lies in the base hyperplane")
    cell_lists = [s.cell_points(c) + (z,) for c in s.cells]
    simplicial = isinstance(s, Triangulation)
    return make_subdivision(
        list(s.points) + [z], tuple(s.ambient) + (z,), cell_lists, simplicial
    )


def pullback_restricted(
    s: Subdivision,
    top_height: Callable[[Point], int],
    all_points: Sequence[Point],
    ambient: Sequence[Point] | None = None,
) -> Subdivision:
    """Clipped column subdivision over a base subdivision.

    Each base cell with vertices v_j becomes the column cell
    Conv{(v_j, -1), (v_j, top_height(v_j))}, degenerate pairs merged.
    ``all_points`` must list every lattice point of the clipped region.
    Column tops must be integral; a fractional top is an invariant violation.
    """
    cell_lists = []
    for c in s.cells:
        verts = s.cell_points(c)
        col: set[Point] = set()
        for v in verts:
            h = top_height(v)
            if not isinstance(h, int):
                raise DegenerateGeometry(f"non-lattice column top over {v}")
            col.add((*v, -1))
            col.add((*v, h))
        cell_lists.append(tuple(sorted(col)))
    if ambient is None:
        cand = set()
        for v in s.ambient:
            cand.add((*v, -1))
            cand.add((*v, top_height(v)))
        ambient = polytope.vertex_filter(cand)
    return make_subdivision(all_points, ambient, cell_lists, simplicial=False)


def restrict_to_hyperplane(
    s: Subdivision, h: HalfSpace, ambient: Sequence[Point] | None = None
) -> Subdivision:
    """Induced subdivision on the slice of the ambient polytope by h's boundary.

    Every cell must meet the hyperplane in a face of itself (in particular no
    cell may have vertices strictly on both sides).  When the slice is a
    facet of the ambient polytope its vertices are the ambient vertices on
    the hyperplane and may be passed in to skip the hull computation.
    """
    face_sets: set[tuple[Point, ...]] = set()
    for c in s.cells:
        verts = s.cell_points(c)
        vals = [h.eval(v) for v in verts]
        if any(v > 0 for v in vals) and any(v < 0 for v in vals):
            raise IncompatibleSubdivision("a cell crosses the hyperplane")
        on = tuple(sorted(v for v, val in zip(verts, vals) if val == 0))
        if on:
            face_sets.add(on)
    if not face_sets:
        raise IncompatibleSubdivision("hyperplane misses the subdivision")
    max_rank = max(exact.affine_rank(f) for f in face_sets)
    cells = [f for f in face_sets if exact.affine_rank(f) == max_rank]
    on_points = [p for p in s.points if h.eval(p) == 0]
    if ambient is None:
        ambient = polytope.vertex_filter({v for f in cells for v in f})
    simplicial = all(len(f) == max_rank + 1 for f in cells)
    return make_subdivision(on_points, ambient, cells, simplicial)


def _interface_halfspace(a: Subdivision, b: Subdivision) -> HalfSpace:
    common = sorted(set(a.ambient) & set(b.ambient))
    d = exact.affine_rank(a.ambient)
    if not common or exact.affine_rank(common) != d - 1:
        raise GluingMismatch("shared ambient vertices do not span a common facet")
    coords = [tuple(p) for p in common]
    fn = polytope._hyperplane_functional(coords, list(range(len(coords))))
    if fn is None:
        raise GluingMismatch("degenerate interface")
    coeffs, const = fn
    half = HalfSpace(tuple(Fraction(c) for c in coeffs), Fraction(const))
    a_vals = [half.eval(v) for v in a.ambient]
    b_vals = [half.eval(v) for v in b.ambient]
    if all(v <= 0 for v in a_vals) and all(v >= 0 for v in b_vals):
        return half
    if all(v >= 0 for v in a_vals) and all(v <= 0 for v in b_vals):
        return half
    raise GluingMismatch("parts are not on opposite sides of the interface")


def glue(a: Subdivision, b: Subdivision) -> Subdivision:
    """Union of two subdivisions along a common facet.

    The two parts must induce the identical subdivision on the interface;
    this is verified, not assumed.
    """
    half = _interface_halfspace(a, b)
    interface = [v for v in a.ambient if half.eval(v) == 0]
    ra = restrict_to_hyperplane(a, half, interface)
    rb = restrict_to_hyperplane(b, half, interface)
    if ra.cell_point_sets() != rb.cell_point_sets():
        raise GluingMismatch("interface subdivisions disagree")
    cell_lists = [a.cell_points(c) for c in a.cells] + [
        b.cell_points(c) for c in b.cells
    ]
    ambient = polytope.vertex_filter(tuple(a.ambient) + tuple(b.ambient))
    simplicial = isinstance(a, Triangulation) and isinstance(b, Triangulation)
    return make_subdivision(
        list(a.points) + list(b.points), ambient, cell_lists, simplicial
    )


def apply_lattice_map(
    s: Subdivision,
    matrix: Sequence[Sequence[int]],
    translation: Sequence[int] | None = None,
) -> Subdivision:
    """Pointwise image under a unimodular affine lattice map."""
    n = len(matrix)
    t = tuple(translation) if translation is not None else (0,) * n
    if any(not isinstance(x, int) for row in matrix for x in row) or any(
        not isinstance(x, int) for x in t
    ):
        raise DomainError("lattice map must have integer entries")
    if abs(exact.det_int([list(r) for r in matrix])) != 1:
        raise DomainError("lattice map must have determinant +-1")

    def img(p: Point) -> Point:
        return tuple(
            sum(r * x for r, x in zip(row, p)) + c for row, c in zip(matrix, t)
        )

    cell_lists = [tuple(img(p) for p in s.cell_points(c)) for c in s.cells]
    ambient = tuple(img(p) for p in s.ambient)
    return make_subdivision(
        [img(p) for p in s.points], ambient, cell_lists, isinstance(s, Triangulation)
    )


@dataclass
class VerifyReport:
    valid: bool
    simplicial: bool
    unimodular: bool
    volume_checksum: int | None
    failures: list[str] = field(default_factory=list)


def _is_face_of(verts: Sequence[Point], sub: frozenset[Point]) -> bool:
    """Whether sub is a face of conv(verts) (verts full-dim in coords)."""
    fns = polytope.inner_functionals(verts)
    active = [fn for fn in fns if all(fn(p) == 0 for p in sub)]
    if not active:
        return sub == frozenset(verts)
    zero = {v for v in verts if all(fn(v) == 0 for fn in active)}
    return zero == set(sub)


def common_face_ok(a_verts: Sequence[Point], b_verts: Sequence[Point]) -> bool:
    """Exact check that conv(A) and conv(B) intersect in a common face.

    Fast path: a facet hyperplane of either cell weakly separates the two
    with the shared vertices on it.  Cells wrapped around a shared lower
    face admit no such separator, so the fallback enumerates the vertices
    of the intersection polytope exactly and demands each lie in the
    convex hull of the shared vertex set.
    """
    A = tuple(sorted(set(a_verts)))
    B = tuple(sorted(set(b_verts)))
    if A == B:
        return False  # duplicate cells
    joint = polytope.affine_coordinates(list(A) + list(B))
    A2, B2 = tuple(joint[: len(A)]), tuple(joint[len(A) :])
    common = frozenset(A2) & frozenset(B2)
    dim = len(A2[0])
    if exact.affine_rank(A2) != dim or exact.affine_rank(B2) != dim:
        raise DegenerateGeometry("common-face check expects full-dimensional cells")
    if common and not (_is_face_of(A2, common) and _is_face_of(B2, common)):
        return False
    # quick accept: weak separator among facet hyperplanes of either cell
    for verts, others in ((A2, B2), (B2, A2)):
        for fn in polytope.inner_functionals(verts):
            if all(fn(q) <= 0 for q in others) and all(
                fn(p) == 0 for p in common
            ):
                return True
    return _intersection_in_face(A2, B2, common)


def _intersection_in_face(A: tuple, B: tuple, common: frozenset) -> bool:
    """Whether conv(A) ∩ conv(B) equals conv(common), by vertex enumeration."""
    from itertools import combinations

    fns = polytope.inner_functionals(A) + polytope.inner_functionals(B)
    # deduplicate coincident halfspaces (shared facets) to shrink the scan
    seen: dict[tuple, exact.AffineFunctional] = {}
    for fn in fns:
        denom = next((c for c in fn.coeffs if c != 0), fn.constant)
        key = tuple(c / denom for c in fn.coeffs) + (fn.constant / denom,)
        seen.setdefault(key, fn)
    fns = list(seen.values())
    dim = len(A[0])
    hull = list(common) if common else []
    for idxs in combinations(range(len(fns)), dim):
        rows = [list(fns[i].coeffs) for i in idxs]
        rhs = [-fns[i].constant for i in idxs]
        try:
            x = exact.solve(rows, rhs)
        except DegenerateGeometry:
            continue
        if any(fn(x) < 0 for fn in fns):
            continue
        if not common:
            return False
        if tuple(x) not in common and not polytope.in_hull_lp(tuple(x), hull):
            return False
    return True


def verify(s: Subdivision, pairwise: str = "auto") -> VerifyReport:
    """Structural verification of a subdivision.

    Checks covering (exact volume checksum against the ambient polytope),
    pairwise cell compatibility, simpliciality, and per-cell unimodularity.
    Pairwise mode "full" runs the quadratic common-face check, "facets" the
    facet-key join; "auto" runs "full" up to FULL_PAIRWISE_CELL_LIMIT cells
    (and on any non-simplicial subdivision), "facets" above it.

    Why "facets" proves a triangulation of P = conv(ambient) when every
    cell is a full-dimensional simplex.  It checks that every cell vertex
    lies in P, so every cell does; that every facet (a cell minus one
    vertex) belongs to two cells or lies in a facet of P (pseudomanifold);
    that the two cells of a shared facet lie on opposite sides of it
    (orientation); and that the normalized volumes sum to nvol(P)
    (checksum).  Let m(x) count the cells containing x; it is locally
    constant off the cells' facets.  A path inside P that crosses facets
    only in their relative interiors crosses no facet of P, so each facet
    it crosses is shared by two cells on opposite sides: the path leaves
    one and enters the other, and m does not change.  Such paths connect
    almost all of P (they avoid only codimension-2 faces), so m is one
    constant k almost everywhere and the volumes sum to k * nvol(P); the
    checksum gives k = 1, and the cells cover P with disjoint interiors.
    Shared facets match as vertex sets, so the cells through a
    codimension-2 face close up into a ring covering a neighbourhood of its
    relative interior, which no other cell meets; descending through the
    face dimensions, any two cells meet in a common face.

    Without the orientation check, two cells folded onto one side of a
    shared facet (or of a facet of P) pass both the count and the
    checksum.  A simplex's side of its facet opposite vertex k is
    sign(det) * (-1)^(d-k), with det the signed determinant of its rows
    (v, 1) (polytope.signed_nvol): moving row k last takes d - k
    transpositions, and the sign of that determinant, with the facet's
    vertices in sorted order above v_k, tells which side of the facet's
    hyperplane v_k lies on.
    """
    failures: list[str] = []
    d = s.dim
    full_dim = d == s.ambient_dim
    simplicial = all(len(c) == d + 1 for c in s.cells)

    checksum = None
    dets: list[int] = []  # signed volume of each simplex cell, in cell order
    ambient_fns: list[exact.AffineFunctional] = []
    used = {i for c in s.cells for i in c}  # store indices of cell vertices
    if full_dim:
        try:
            ambient_nvol = polytope.nvol_cell(s.ambient)
            checksum = 0
            for c in s.cells:
                verts = s.cell_points(c)
                if len(verts) == d + 1:
                    dets.append(polytope.signed_nvol(verts))
                    checksum += abs(dets[-1])
                else:
                    checksum += polytope.nvol_cell(verts)
            if checksum != ambient_nvol:
                failures.append(
                    f"volume checksum {checksum} != ambient nvol {ambient_nvol}"
                )
        except DegenerateGeometry as e:
            failures.append(f"degenerate cell: {e}")

        try:
            ambient_fns = polytope.inner_functionals(s.ambient)
        except DegenerateGeometry:
            failures.append("ambient polytope is degenerate")
        else:
            outside = {
                i
                for i in used
                if any(fn.numerator(s.points[i]) < 0 for fn in ambient_fns)
            }
            for c in s.cells:
                i = next((i for i in c if i in outside), None)
                if i is not None:
                    failures.append(f"cell vertex {s.points[i]} outside ambient")

    mode = pairwise
    if mode == "auto":
        mode = (
            "full"
            if len(s.cells) <= FULL_PAIRWISE_CELL_LIMIT or not simplicial
            else "facets"
        )
    if mode == "full":
        for i in range(len(s.cells)):
            for j in range(i + 1, len(s.cells)):
                if not common_face_ok(
                    s.cell_points(s.cells[i]), s.cell_points(s.cells[j])
                ):
                    failures.append(
                        f"cells {s.cells[i]} and {s.cells[j]} do not meet in a "
                        "common face (interiors intersect or facial mismatch)"
                    )
                    if len(failures) > 20:
                        break
            if len(failures) > 20:
                break
    elif mode == "facets" and simplicial and full_dim:
        # each facet with its cells and the side of it each cell lies on
        # (0 where a degenerate cell stopped the signed volumes)
        sides: dict[Cell, list[tuple[Cell, int]]] = {}
        for ci, c in enumerate(s.cells):
            sign = 0 if ci >= len(dets) else 1 if dets[ci] > 0 else -1
            for k in range(len(c)):
                sides.setdefault(c[:k] + c[k + 1 :], []).append(
                    (c, -sign if (d - k) % 2 else sign)
                )
        # bit j set where a cell vertex lies on the j-th facet of P
        on_facets = {
            i: sum(
                1 << j
                for j, fn in enumerate(ambient_fns)
                if fn.numerator(s.points[i]) == 0
            )
            for i in used
        }
        for key, on in sides.items():
            if len(on) > 2:
                failures.append(f"facet {key} shared by {len(on)} cells")
            elif len(on) == 1 and not reduce(and_, (on_facets[i] for i in key)):
                failures.append(f"facet {key} unmatched and not on the boundary")
        for key, on in sides.items():
            if len(on) == 2 and on[0][1] == on[1][1] != 0:
                failures.append(
                    f"cells {on[0][0]} and {on[1][0]} lie on one side of "
                    f"their common facet {key}"
                )

    unimodular = False
    if simplicial and full_dim and not failures:
        unimodular = all(abs(x) == 1 for x in dets)

    return VerifyReport(
        valid=not failures,
        simplicial=simplicial,
        unimodular=unimodular,
        volume_checksum=checksum,
        failures=failures,
    )
