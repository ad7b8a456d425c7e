"""Subdivision calculus: point stores, cells, one constructor, structural checks.

A Subdivision holds a lexicographically sorted point store plus maximal
cells as sorted index tuples into that store.  Its constructor,
make_subdivision, is pure: it assembles a new Subdivision from explicit
point data over the ambient vertices it is given.  The pipeline builds
each p2dual level's columns and cone in one make_subdivision call; p2's
images of the p2dual cells and p1's two cones are index rows the
pipeline computes from the level below, with no point tuple looked up.
The pulling refinement is witness.pull_sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_, lt
from typing import Iterable, Iterator, Sequence

from . import exact, polytope
from .errors import DegenerateGeometry, DimensionMismatch
from .polytope import Point

Cell = tuple[int, ...]


@dataclass(frozen=True)
class Subdivision:
    """Point store + ambient polytope (vertex list) + maximal cells."""

    points: tuple[Point, ...]
    ambient: tuple[Point, ...]
    cells: tuple[Cell, ...]

    def __post_init__(self):
        if not all(map(lt, self.points, self.points[1:])):
            raise DegenerateGeometry("point store must be sorted and deduplicated")

    @cached_property
    def index(self) -> dict[Point, int]:
        """Store position of each point (shared: do not mutate)."""
        return {p: i for i, p in enumerate(self.points)}

    @property
    def ambient_dim(self) -> int:
        return len(self.points[0])

    def cell_points(self, cell: Cell) -> tuple[Point, ...]:
        return tuple(self.points[i] for i in cell)


@dataclass(frozen=True)
class Triangulation(Subdivision):
    """Subdivision whose maximal cells all have ambient_dim + 1 vertices."""

    def __post_init__(self):
        super().__post_init__()
        if set(map(len, self.cells)) - {self.ambient_dim + 1}:
            raise DegenerateGeometry("triangulation cell is not a simplex")


def make_subdivision(
    points: Iterable[Point],
    ambient: Sequence[Point],
    cell_point_lists: Iterable[Sequence[Point]],
) -> Subdivision:
    """Assemble a subdivision from explicit point data, sorting the store;
    it is a Triangulation exactly when each cell has ambient_dim + 1 points."""
    store = tuple(sorted(set(points)))
    idx = {p: i for i, p in enumerate(store)}
    cells = tuple(
        sorted(tuple(sorted(idx[p] for p in cp)) for cp in cell_point_lists)
    )
    d = len(store[0])
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
    unimodular: bool
    volume_checksum: int | None
    failures: list[str] = field(default_factory=list)
    first_non_unimodular: tuple[Cell, int] | None = field(
        default=None, compare=False
    )
    convex: bool | None = field(default=None, compare=False)


def facet_join(cells: Sequence[Cell]) -> dict[Cell, list[tuple[int, int]]]:
    """Each facet of the simplices, a cell without its entry k, with the
    (cell index, k) of every cell on it, in cell order.  Only verify's
    census builds it, to name the failures of a refused input."""
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
    whole join, and pair_facets one simplex at a time.
    """
    return [signs[i] if k % 2 == 0 else -signs[i] for i, k in on]


def on_boundary(vertex_masks: Iterable[int]) -> bool:
    """Whether a facet lies on the boundary of P, given its vertices'
    masks (polytope.facet_table): they share a bit, the one boundary rule.
    A facet of a cell inside P lies on the boundary iff it lies in one
    facet of P, and then all its vertices do."""
    return reduce(and_, vertex_masks) != 0


def boundary_facets(c: Cell, masks: Sequence[int]) -> list[int]:
    """The entries k of the simplex c whose facets, c without entry k,
    lie on the boundary of P (on_boundary).  A vertex of mask 0 lies on
    no facet of P, so only the facet opposite a cell's first such vertex
    is tested (each artifact cell has one, the origin); a second one on
    that facet fails the test."""
    m = list(map(masks.__getitem__, c))
    if 0 in m:
        k = m.index(0)
        del m[k]
        return [k] if on_boundary(m) else []
    return [k for k in range(len(m)) if on_boundary(m[:k] + m[k + 1 :])]


def pair_facets(
    simplices: Iterable[tuple[Cell, int]],
    masks: Sequence[int] | None,
    pending: dict[Cell, tuple[int, int]],
) -> Iterator[tuple[bool, int]]:
    """The one pairing routine, verify's and the fan's: pair the facets
    of simplices given with the determinants of their rows in entry
    order.  A simplex's side of its facet without entry k is the sign of
    its determinant times (-1)^k (the parity rule of sides).  A facet met
    before is popped from pending, yielding whether the pair folds (sides
    not opposite and non-zero) and the earlier simplex's vertex off it.
    Any other facet enters pending with its side and that vertex, unless
    it lies on the boundary of P (boundary_facets; none does when masks
    is None, as for a fan's cones).  The caller reads pending at the end.

    Why this proves a covering: let m(x) count the simplices containing
    x.  A path in P's interior (in R^d when masks is None) crossing
    facets only in their relative interiors, away from the intersections
    of facets in different hyperplanes, crosses no boundary facet.  When
    no pair folds and pending ends empty, each facet it crosses was met
    by an even number of simplices, popped in pairs on opposite sides,
    so as many simplices end there on each side as begin and m does not
    change.  Such paths connect almost all of P (they avoid only
    codimension-2 sets), so m is one constant almost everywhere.
    """
    for c, det in simplices:
        side = (det > 0) - (det < 0)
        on = boundary_facets(c, masks) if masks is not None else ()
        for k in range(len(c)):
            key = c[:k] + c[k + 1 :]
            other = pending.pop(key, None)
            if other is not None:
                yield other[0] != -side or not side, other[1]
            elif k not in on:
                pending[key] = (side, c[k])
            side = -side


def verify(s: Triangulation, heights: Sequence[int] | None = None) -> VerifyReport:
    """Structural proof that the cells of s triangulate the simplex
    P = conv(ambient).

    Checks the exact volume checksum against P, that every cell vertex
    lies in P, that the cells pair up on their facets (pseudomanifold)
    on opposite sides (orientation), and per-cell unimodularity, which
    any failure clears: unimodular implies valid.  Preconditions:

    - s is a Triangulation, so every cell has d + 1 vertices in R^d;
      any other Subdivision raises DimensionMismatch.  The loader builds
      a Triangulation over its family's simplex;
    - every cell is a strictly increasing tuple of store indices: facets
      are keyed by sorted index tuples (pipeline.from_json_dict refuses
      any other cell);
    - the ambient is a simplex, d + 1 vertices.  Otherwise nothing is
      proved or computed: the report is invalid with one failure naming
      the ambient, and volume_checksum None.  An ambient of d + 1 points
      that spans less than R^d raises DegenerateGeometry.

    One pass computes the signed volumes, up to the first degenerate
    cell, and feeds them to pair_facets, each of whose pops names the
    earlier cell's vertex q off the facet.  Given integer heights, one
    per store point (else DimensionMismatch), each volume comes with the
    cell's interpolant row / den from one elimination
    (polytope.volume_form), and the cell that pops a facet tests that
    wall, so no form is kept: the one wall test, bent iff heights[q] *
    den <= row_at(row, q), read by the generated at of exact._row_kernel,
    fetched once.  One side suffices when the two cells lie on
    opposite sides of the facet, as in a valid proof: with A the popping
    cell's interpolant and A' the other's, A' - A vanishes on the facet,
    so its values w(q) - A(q) at q and A'(p) - w(p) at the popping
    cell's vertex p off it have opposite signs.  After a bent wall only
    volumes are read; convex is read only when the proof is valid.

    The proof accepts when no pair folds, no facet is left pending, every
    cell vertex lies in P and the volumes sum to nvol(P) (checksum).  Else
    the census reads the whole join (facet_join) for facets of more than
    two cells, unmatched ones off the boundary (boundary_facets) and folds.

    Why this proves a triangulation of P.  A degenerate cell is a failure,
    so every cell is a full-dimensional simplex.  Every cell vertex lies
    in P, so every cell does.  By pair_facets' argument the number m(x) of
    cells containing x is one constant k almost everywhere on P; the
    checksum gives k = 1, and the cells cover P with disjoint interiors.
    So no facet has three or more cells, nor one on the boundary two (both
    on P's side of it): two of them would lie on one side of it, where
    m >= 2 (the census reads the whole join, so it still names that fold).
    Each facet then has two cells on opposite sides or one cell and lies
    in a facet of P, which is what the census checks.  Shared facets match
    as vertex sets, so the cells through a codimension-2 face close up
    into a ring covering a neighbourhood of its relative interior, which
    no other cell meets; descending through the face dimensions, any two
    cells meet in a common face.

    Without the orientation check, two cells folded onto one side of a
    shared facet (or of a facet of P) pass both the count and the
    checksum.  With it but without the checksum, two triangulations of P
    with no boundary facet in common, listed together, can pass: m = 2.
    """
    if not isinstance(s, Triangulation):
        raise DimensionMismatch("structural proof needs simplicial cells")
    if heights is not None and len(heights) != len(s.points):
        raise DimensionMismatch("heights length does not match the point store")
    d, k = s.ambient_dim, len(s.ambient)
    if k != d + 1:
        failure = f"ambient is not a simplex: {k} points span dimension {d}"
        return VerifyReport(False, False, None, [failure])

    pts, cells = s.points, s.cells
    # facet rows and nvol(P) at once; raises if the d + 1 vertices are flat
    ambient_rows, ambient_nvol = polytope.simplex_inverse(s.ambient)
    masks, outside = polytope.facet_table(ambient_rows, pts)
    at = exact._row_kernel(d)[0]
    dets: list[int] = []
    convex = None if heights is None else True
    form = None  # the current cell's interpolant while convex holds

    def signed():  # each cell with its volume, up to the first degenerate one
        nonlocal convex, form
        for c in cells:
            verts = [pts[i] for i in c]
            try:
                if convex:
                    det, form = polytope.volume_form(verts, [heights[i] for i in c])
                else:
                    det = polytope.signed_nvol(verts)
            except DegenerateGeometry:
                if convex:  # no wall through a degenerate cell is proved
                    convex = False
                return  # the census reads the volumes up to here
            dets.append(det)
            yield c, det

    pending: dict[Cell, tuple[int, int]] = {}
    folded = False
    for fold, q in pair_facets(signed(), masks, pending):
        folded = folded or fold
        if form is not None and heights[q] * form[1] <= at(form[0], pts[q]):
            convex, form = False, None

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
        elif not on_boundary(map(masks.__getitem__, key)):
            failures.append(f"facet {key} unmatched and not on the boundary")
    return failures + folds
