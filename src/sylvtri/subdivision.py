"""Subdivision calculus: point stores, cells, one constructor, structural checks.

A Subdivision holds a lexicographically sorted point store plus maximal
cells as sorted index tuples into that store.  Its constructor,
make_subdivision, is pure: it assembles a new Subdivision from explicit
point data over the ambient vertices it is given.  The pipeline builds
every level in one make_subdivision call (each p2dual level's columns
and cone, p2's images of the p2dual cells, p1's two cones); the pulling
refinement is witness.pull_sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_
from typing import Iterable, Sequence

from . import exact, polytope
from .errors import DegenerateGeometry, DimensionMismatch
from .polytope import Point, row_at

Cell = tuple[int, ...]


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
) -> Subdivision:
    """Assemble a subdivision from explicit point data, sorting the store;
    it is a Triangulation exactly when every cell has dim + 1 points."""
    store = tuple(sorted(set(points)))
    idx = {p: i for i, p in enumerate(store)}
    cells = tuple(
        sorted(tuple(sorted(idx[p] for p in cp)) for cp in cell_point_lists)
    )
    d = exact.affine_rank(ambient)
    cls = Triangulation if all(len(c) == d + 1 for c in cells) else Subdivision
    return cls(store, tuple(ambient), cells)


@dataclass
class VerifyReport:
    """The structural proof's verdict.  When the proof has no failure but a
    cell has |det| != 1, first_non_unimodular names the first such cell
    with its normalized volume; otherwise it is None.  convex is verify's
    verdict on the interior walls under the heights it was given: None
    without heights or when it refuses the input, False once a wall bends
    or a cell is degenerate.  Neither enters equality."""

    valid: bool
    simplicial: bool
    unimodular: bool
    volume_checksum: int | None
    failures: list[str] = field(default_factory=list)
    first_non_unimodular: tuple[Cell, int] | None = field(
        default=None, compare=False
    )
    convex: bool | None = field(default=None, compare=False)


def facet_join(cells: Sequence[Cell]) -> dict[Cell, list[tuple[int, int]]]:
    """Each facet of the simplices, a cell without its entry k, with the
    (cell index, k) of every cell on it, in cell order.

    It serves only to name failures: verify's census builds it once the
    pairing has refused an input.  No accept path builds it: verify and
    the fan pair each facet when its second cell arrives."""
    join: dict[Cell, list[tuple[int, int]]] = {}
    for ci, c in enumerate(cells):
        for k in range(len(c)):
            join.setdefault(c[:k] + c[k + 1 :], []).append((ci, k))
    return join


def sides(on: Iterable[tuple[int, int]], signs: Sequence[int]) -> list[int]:
    """The sides of their common facet on which the simplices on it lie,
    each given as (cell index i, entry k) with signs[i] the sign of the
    determinant of its m rows in entry order: signs[i] * (-1)^k, up to
    the factor (-1)^(m - 1) that simplices of m rows share.

    Why: moving row k last takes m - 1 - k transpositions, and the sign
    of the determinant with the facet's rows in entry order above row k
    tells on which side of the linear span of the facet's rows row k
    lies: for rows (v, 1), the side of the facet's affine hyperplane.  So
    two simplices on one facet lie on opposite sides of it iff their
    sides are opposite and non-zero.  verify's census reads it off the
    whole join; verify's and the fan's pairing loops apply the same rule
    one cell at a time, negating the cell's sign from entry to entry.
    """
    return [signs[i] if k % 2 == 0 else -signs[i] for i, k in on]


def _refusal(s: Subdivision) -> str | None:
    """Why verify proves nothing about s, or None: the ambient does not
    span R^d, a cell is not a simplex or the ambient is not one."""
    d = s.dim
    if d != s.ambient_dim:
        return (
            f"cell {next(iter(s.cells), None)} is not full-dimensional: the "
            f"ambient spans dimension {d} of {s.ambient_dim}"
        )
    bad = next((c for c in s.cells if len(c) != d + 1), None)
    if bad is not None:
        return f"cell {bad} is not a simplex"
    if len(s.ambient) != d + 1:
        return (
            f"ambient is not a simplex: {len(s.ambient)} points span "
            f"dimension {d}"
        )
    return None


def verify(s: Subdivision, heights: Sequence[int] | None = None) -> VerifyReport:
    """Structural proof that the cells of s triangulate the simplex
    P = conv(ambient).

    Checks the exact volume checksum against P, that every cell vertex
    lies in P, that the cells pair up on their facets (pseudomanifold)
    on opposite sides (orientation), and per-cell unimodularity, which
    any failure clears: unimodular implies valid and simplicial.
    Preconditions:

    - every cell is a strictly increasing tuple of store indices: facets
      are keyed by sorted index tuples (pipeline.from_json_dict refuses
      any other cell);
    - the ambient spans R^d, every cell has d + 1 vertices and the
      ambient is a simplex, its d + 1 vertices.  Otherwise nothing is
      proved or computed: the report is invalid with one failure, naming
      the first cell (not full-dimensional, or not a simplex) or the
      ambient, and volume_checksum None.  The pipeline meets them: the
      loader and Triangulation give d + 1-vertex cells, and every
      family's ambient is its level's simplex.

    One loop over the cells computes the signed volumes, up to the first
    degenerate cell, and pairs the interior facets.  A facet is on the
    boundary of P iff its vertices' masks (polytope.facet_table) share a
    bit: the one boundary-facet test, also _census's and the fan's.  A
    map holds each other facet met once so far, with its cell's side of
    it (the parity rule of sides: the sign of det times (-1)^k) and that
    cell's vertex q off it.  The facet's next cell pops it, and the pair
    folds when the two sides agree; a later cell on the facet starts a
    new pair.  Given integer heights, one per store point (else
    DimensionMismatch), each volume comes with the cell's interpolant
    row / den from one elimination (polytope.volume_form), and the cell
    that pops a facet tests that wall, so no form is kept: the one wall
    test, bent iff heights[q] * den <= row_at(row, q).  One side
    suffices when the two cells lie on opposite sides of the facet, as
    in a valid proof: with A the popping cell's interpolant and A' the
    other's, A' - A vanishes on the facet, so its values w(q) - A(q) at
    q and A'(p) - w(p) at the popping cell's vertex p off it have
    opposite signs.  After a bent wall only volumes are read.  The
    verdict is the report's convex, read only when the proof is valid.

    The proof accepts when no pair folds, the map ends empty, every cell
    vertex lies in P and the volumes sum to nvol(P) (checksum).
    Otherwise the map is freed and the census runs: one scan of the
    whole join (facet_join) names the facets of more than two cells, the
    unmatched ones off the boundary and the folds, the folds last.

    Why this proves a triangulation of P when every cell is a
    full-dimensional simplex.  Every cell vertex lies in P, so every
    cell does.  Let m(x) count the cells containing x; it is locally
    constant off the cells' facets.  A path inside P that crosses facets
    only in their relative interiors, away from the intersections of
    facets in different hyperplanes, crosses no facet whose vertices'
    masks share a bit: its hyperplane misses P's interior.  A facet it
    crosses was met by an even number of cells, or one would be left in
    the map, and they were popped in pairs, each on opposite sides of
    it; so as many of them end there on each side as begin, and m does
    not change.  Such paths connect almost all of P (they avoid only
    codimension-2 sets), so m is one constant k almost everywhere and
    the volumes sum to k * nvol(P); the checksum gives k = 1, and the
    cells cover P with disjoint interiors.  So no facet has three or
    more cells, nor one on the boundary two (both on P's side of it):
    two of them would lie on one side of it, where m >= 2 (the census
    reads the whole join, so it still names that fold).  Each facet
    then has two cells on opposite sides or one cell and lies in a facet
    of P, which is what the census checks.  Shared facets match as
    vertex sets, so the cells through a codimension-2 face close up into
    a ring covering a neighbourhood of its relative interior, which no
    other cell meets; descending through the face dimensions, any two
    cells meet in a common face.

    Without the orientation check, two cells folded onto one side of a
    shared facet (or of a facet of P) pass both the count and the
    checksum.  With it but without the checksum, two triangulations of P
    with no boundary facet in common, listed together, can pass: m = 2.
    """
    if heights is not None and len(heights) != len(s.points):
        raise DimensionMismatch("heights length does not match the point store")
    refusal = _refusal(s)
    if refusal is not None:
        simplicial = all(len(c) == s.dim + 1 for c in s.cells)
        return VerifyReport(False, simplicial, False, None, [refusal])

    pts, cells = s.points, s.cells
    # the ambient's d + 1 vertices span R^d: facet rows and nvol(P) at once
    ambient_rows, ambient_nvol = polytope.simplex_inverse(s.ambient)
    masks, outside = polytope.facet_table(ambient_rows, pts)
    # each interior facet met once so far: its cell's side and vertex off it
    pending: dict[Cell, tuple[int, int]] = {}
    dets: list[int] = []
    folded = False
    convex = None if heights is None else True
    for c in cells:
        verts = [pts[i] for i in c]
        try:
            if convex:
                det, form = polytope.volume_form(verts, [heights[i] for i in c])
            else:
                det, form = polytope.signed_nvol(verts), None
        except DegenerateGeometry:
            if convex:  # no wall through a degenerate cell is proved
                convex = False
            break  # the census reads the volumes up to here
        dets.append(det)
        side = 1 if det > 0 else -1
        for k in range(len(c)):
            key = c[:k] + c[k + 1 :]
            other = pending.pop(key, None)
            if other is not None:
                folded = folded or other[0] == side
                q = other[1]
                if form is not None and heights[q] * form[1] <= row_at(form[0], pts[q]):
                    convex, form = False, None
            elif not reduce(and_, map(masks.__getitem__, key)):
                pending[key] = (side, c[k])
            side = -side

    failures: list[str] = []
    if len(dets) < len(cells):
        checksum = None
        failures.append("degenerate cell: zero-volume simplex")
    else:
        checksum = sum(map(abs, dets))
        if checksum != ambient_nvol:
            failures.append(
                f"volume checksum {exact.number_str(checksum)} != ambient "
                f"nvol {ambient_nvol}"
            )

    for c in cells if outside else ():
        i = next((i for i in c if i in outside), None)
        if i is not None:
            failures.append(f"cell vertex {pts[i]} outside ambient")

    if failures or folded or pending:
        del pending  # freed before the census builds the whole join
        failures += _census(cells, dets, masks)

    # without a failure every cell's volume is in dets
    first_non_unimodular = None if failures else next(
        ((c, abs(x)) for c, x in zip(cells, dets) if abs(x) != 1), None
    )

    return VerifyReport(
        valid=not failures,
        simplicial=True,
        unimodular=not failures and first_non_unimodular is None,
        volume_checksum=checksum,
        failures=failures,
        first_non_unimodular=first_non_unimodular,
        convex=convex,
    )


def _census(
    cells: Sequence[Cell], dets: Sequence[int], masks: Sequence[int]
) -> list[str]:
    """verify's failure lines for the facets of a refused input, off the
    whole join: facets of three or more cells and unmatched ones off the
    boundary in join order, then the folds.  dets holds the volumes up to
    the first degenerate cell, and the cells from it on get side 0."""
    signs = [(x > 0) - (x < 0) for x in dets]
    signs += [0] * (len(cells) - len(signs))
    failures: list[str] = []
    folds: list[str] = []
    for key, on in facet_join(cells).items():
        if len(on) == 2:
            a, b = sides(on, signs)
            if a == b != 0:
                folds.append(
                    f"cells {cells[on[0][0]]} and {cells[on[1][0]]} lie on "
                    f"one side of their common facet {key}"
                )
        elif len(on) > 2:
            failures.append(f"facet {key} shared by {len(on)} cells")
        elif not reduce(and_, map(masks.__getitem__, key)):
            failures.append(f"facet {key} unmatched and not on the boundary")
    return failures + folds
