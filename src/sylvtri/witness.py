"""Strict-convexity certificates for regular subdivisions.

A witness assigns one exact rational height to every point-store entry;
a subdivision is regular when the piecewise-affine function induced by
those heights is strictly convex with the cells as its domains of
linearity.  Constructors here thread a witness through every subdivision
operation so regularity is certified, never assumed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from . import exact, polytope, subdivision
from .errors import (
    DegenerateGeometry,
    DimensionMismatch,
    DomainError,
    UnsupportedStore,
)
from .polytope import Point
from .subdivision import Cell, Subdivision, Triangulation, VerifyReport


@dataclass(frozen=True)
class RegularityWitness:
    """Exact rational height per point-store entry, in store order."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "values", tuple(Fraction(v) for v in self.values)
        )


@dataclass
class CertificateReport:
    """Outcome of a regularity check: violations are (cell, point, margin);
    structure, outside equality, is the structural proof it ran."""

    regular: bool
    violating_pairs: list[tuple[Cell, Point, Fraction]] = field(
        default_factory=list
    )
    structure: VerifyReport | None = field(default=None, compare=False)


# An integer affine form (row, den), den > 0, stands for the map
# x -> (row[:-1] . x + row[-1]) / den: a row of polytope.simplex_inverse
# over its D, or AffineFunctional.row over its denominator.
Form = tuple[Sequence[int], int]


def _row_at(row: Sequence[int], p: Point) -> int:
    """row[:-1] . p + row[-1], an integer for an integral point."""
    # map stops at p's end, so row[-1] is the homogenising term
    return sum(map(mul, row, p)) + row[-1]


def _common_scale(w: RegularityWitness) -> tuple[list[int], int]:
    """The witness over one common denominator: (W, L), W[i] = w_i * L."""
    scale = lcm(*(v.denominator for v in w.values))
    return [v.numerator * (scale // v.denominator) for v in w.values], scale


def _cell_form(
    verts: Sequence[Point],
    heights: Sequence[int],
    inverse: tuple[Sequence[Sequence[int]], int] | None = None,
) -> Form:
    """Integer form (row, den), den > 0, interpolating integer heights on a cell.

    It interpolates on the simplex, or on the first d + 1 affinely
    independent vertices of a polytopal cell, whose other vertices must lie
    on it.  With (Y, D) their simplex_inverse (``inverse`` if the caller
    holds it), Y[k] . (x, 1) / D is the barycentric coordinate at vertex k,
    so the form is sum_k heights[k] Y[k] over D.  Raises DegenerateGeometry
    on a degenerate cell or non-affine heights.
    """
    dim = len(verts[0])
    if len(verts) == dim + 1:
        adj, den = inverse or polytope.simplex_inverse(verts)
        return [sum(map(mul, heights, col)) for col in zip(*adj)], den
    basis = [0]
    for i in range(1, len(verts)):
        if len(basis) == dim + 1:
            break
        if exact.affine_rank([verts[j] for j in basis] + [verts[i]]) == len(basis):
            basis.append(i)
    if len(basis) != dim + 1:
        raise DegenerateGeometry("points do not affinely span the ambient space")
    row, den = _cell_form([verts[i] for i in basis], [heights[i] for i in basis])
    if any(_row_at(row, v) != h * den for v, h in zip(verts, heights)):
        raise DegenerateGeometry("values are not affine on the given points")
    return row, den


def _bent_wall(
    cells: Iterable[Cell],
    facet_sets: Callable[[Cell], Iterable[frozenset[int]]],
    form: Callable[[Cell], Form],
    values: Sequence[Fraction | int],
    pts: Sequence[Point],
) -> tuple[Cell, Cell, frozenset[int]] | None:
    """The first wall (c, c', facet) that is not strictly convex, or None.

    A wall is a facet (store-index set) of two cells; with c the one met
    second, it is strict when the vertex q of c' off it lies strictly above
    form(c).  One side suffices when c and c' lie on opposite sides: A' - A
    vanishes on the wall, so (A' - A)(q) = w(q) - A(q) and, at the vertex
    p of c off it, (A' - A)(p) = A'(p) - w(p) have opposite signs.
    """
    walls: dict[frozenset[int], Cell] = {}  # facets met once so far
    for c in cells:
        row, den = form(c)
        for fs in facet_sets(c):
            other = walls.pop(fs, None)
            if other is None:
                walls[fs] = c
                continue
            q = next(i for i in other if i not in fs)
            if values[q] * den <= _row_at(row, pts[q]):
                return c, other, fs
    return None


def _simplex_facets(c: Cell) -> list[frozenset[int]]:
    return [frozenset(c[:k] + c[k + 1 :]) for k in range(len(c))]


def verify_regularity(t: Triangulation, w: RegularityWitness) -> CertificateReport:
    """Regular iff A_c(p) < w(p) for every cell c and store point p off c.

    The report is that of the all-pairs scan (_all_pairs); its structure
    is subdivision.verify(t), run once here.  The walls decide when that
    proof is valid, every store point is a cell vertex and no wall is bent
    (_bent_wall on the simplices' facets).  Then the cells triangulate the
    convex polytope P, meeting in common faces, so g, equal to A_c on each
    cell c, is continuous and w at the vertices.  On almost every segment in P the slope of g increases
    strictly at each wall it crosses, so g is convex (the wall inequalities
    of the secondary cone: De Loera-Rambau-Santos, *Triangulations*, 2010,
    ch. 5).  A store point p off c lies outside c, or it would lie in the
    common face of c and a cell it is a vertex of; a segment from almost
    any interior point of c to p leaves c through a wall, after which
    g - A_c, 0 until then, has a positive, non-decreasing slope: A_c(p) <
    g(p) = w(p).  Every other case (a bent wall, which is a violating
    pair, a store point that is no vertex, polytopal or unproven input)
    runs the scan, so rejection stays quadratic in the worst case.
    """
    if t.dim != t.ambient_dim:
        raise DimensionMismatch("regularity check needs full-dimensional cells")
    if len(w.values) != len(t.points):
        raise DimensionMismatch("witness length does not match the point store")
    pts = t.points
    if any(len(p) != t.ambient_dim for p in pts):
        raise DimensionMismatch("point dimension does not match functional")
    heights, scale = _common_scale(w)
    structure = subdivision.verify(t)
    if structure.valid and len(set().union(*t.cells)) == len(pts):
        form = lambda c: _cell_form(t.cell_points(c), [heights[i] for i in c])
        if _bent_wall(t.cells, _simplex_facets, form, heights, pts) is None:
            return CertificateReport(True, structure=structure)
    return replace(_all_pairs(t, heights, scale), structure=structure)


def _all_pairs(t: Subdivision, heights: Sequence[int], scale: int) -> CertificateReport:
    """The certificate check over every (cell, store point) pair.

    Cells go in order, each against the store in order, and the report
    stops after 51 violations.  With heights W = L * w (_common_scale) and
    a cell's form (row, den), w(p) - A_cell(p) = (W[p] * den -
    _row_at(row, p)) / (L * den), so a pair passes iff that integer
    numerator is positive: one integer dot product (taken axis by axis
    over the whole store) and one comparison.  Only a violation builds its
    Fraction margin.
    """
    pts = t.points
    axes = list(zip(*pts))  # store coordinates, one tuple per axis
    violations: list[tuple[Cell, Point, Fraction]] = []
    for c in t.cells:
        row, den = _cell_form(t.cell_points(c), [heights[i] for i in c])
        # gaps[i] = heights[i] * den - _row_at(row, pts[i]), one axis at a time
        gaps = [h * den - row[-1] for h in heights]
        for rk, xs in zip(row, axes):
            if rk:
                gaps = [g - rk * x for g, x in zip(gaps, xs)]
        for pi in [pi for pi, gap in enumerate(gaps) if gap <= 0]:
            if pi in c:
                continue
            violations.append((c, pts[pi], Fraction(gaps[pi], scale * den)))
            if len(violations) > 50:
                return CertificateReport(False, violations)
    return CertificateReport(not violations, violations)


def witness_pullback(
    w_base: RegularityWitness,
    base: Subdivision,
    pulled: Subdivision,
) -> RegularityWitness:
    """Lift a base witness to a column subdivision: value at (y, t) is w(y)."""
    idx = base.index
    vals = []
    for p in pulled.points:
        y = p[:-1]
        if y not in idx:
            raise DomainError(f"projected point {y} missing from the base store")
        vals.append(w_base.values[idx[y]])
    return RegularityWitness(tuple(vals))


def witness_cone(
    w_base: RegularityWitness,
    base: Subdivision,
    cone: Subdivision,
    z: Point,
    omega: Fraction | int = 0,
) -> RegularityWitness:
    """Witness on a cone: base values retained, free value omega at the apex.

    The cone store must consist of the base store plus z alone; interior
    lattice points would need interpolated heights this pipeline never has
    to produce, so such stores are rejected.
    """
    idx = base.index
    vals = []
    for p in cone.points:
        if p == z:
            vals.append(Fraction(omega))
        elif p in idx:
            vals.append(w_base.values[idx[p]])
        else:
            raise UnsupportedStore(
                f"cone store point {p} is neither the apex nor a base point"
            )
    return RegularityWitness(tuple(vals))


def witness_glue(
    w_minus: RegularityWitness,
    s_minus: Subdivision,
    glued: Subdivision,
    z: Point,
) -> tuple[RegularityWitness, Fraction]:
    """Witness on a glue of S⁻ with the cone from z over their interface.

    The apex height omega must exceed every cell interpolant of S⁻
    evaluated at z; the exact maximum plus one is used.  It is found on
    the integer cell forms of L * w (see _all_pairs): each value at
    z is an integer over L * den, compared by cross-multiplication, so
    only omega itself is a Fraction.
    """
    heights, scale = _common_scale(w_minus)
    top_n, top_d = None, 1
    for c in s_minus.cells:
        row, den = _cell_form(s_minus.cell_points(c), [heights[i] for i in c])
        n = _row_at(row, z)
        if top_n is None or n * top_d > top_n * den:
            top_n, top_d = n, den
    omega = 1 + Fraction(top_n, top_d * scale)
    return witness_cone(w_minus, s_minus, glued, z, omega), omega


def _largest_power_drop(upper: Fraction | None) -> Fraction:
    """Largest 2^-k (k >= 0) strictly below the upper bound (1 if unbounded)."""
    eps = Fraction(1)
    while upper is not None and eps >= upper:
        eps /= 2
    return eps


def _pyramid_inverse(
    adj: Sequence[tuple[int, ...]], d: int, lam: Sequence[int], j: int
) -> list[tuple[int, ...]]:
    """Inverse rows of the simplex with vertex j replaced by a point m.

    lam are m's barycentric numerators over d, with lam[j] > 0.  Since
    m = sum lam_k v_k / d, Cramer's rule gives the new simplex volume
    lam[j], and its barycentric coordinates over lam[j] are adj[j] . x for
    m and (lam[j] adj[k] - lam[k] adj[j]) . x / d for every other vertex k.
    The new inverse is integral over lam[j], so each ``//`` is exact.
    Rows come in the old vertex order, with m's row at position j.
    """
    lj, aj = lam[j], adj[j]
    return [
        aj if k == j else tuple([(lj * a - lk * b) // d for a, b in zip(adj[k], aj)])
        for k, lk in enumerate(lam)
    ]


def _drop(a: Form, lam: Form, eps: Fraction) -> Form:
    """The form a - eps * lam in lowest terms."""
    (arow, ad), (lrow, ld) = a, lam
    en, ed = eps.numerator, eps.denominator
    row = [x * ed * ld - en * y * ad for x, y in zip(arow, lrow)]
    den = ad * ed * ld
    g = gcd(den, *row)
    return tuple(x // g for x in row), den // g


# A facet of a polytopal cell: the store indices of its vertices and an
# integer row, >= 0 on the cell and 0 on the facet (read with _row_at)
Facet = tuple[frozenset[int], Sequence[int]]


def _split_numerators(
    nu: Sequence[int], lam: Sequence[int], d: int, j: int
) -> tuple[int, ...] | None:
    """A point's numerators in the simplex with vertex j replaced by m.

    nu are its barycentric numerators over d, lam are m's.  By the Cramer
    identity of _pyramid_inverse they are nu[j] at m's position and
    (lam[j] nu[k] - lam[k] nu[j]) / d at every other vertex k, over lam[j]:
    no dot product over coordinates.  None if the point lies outside.
    """
    out = [(lam[j] * nk - lk * nu[j]) // d for lk, nk in zip(lam, nu)]
    out[j] = nu[j]
    return tuple(out) if min(out) >= 0 else None


def _pyramid_facets(
    pts: Sequence[Point], facets: Sequence[Facet], f: int, m_index: int
) -> list[Facet]:
    """Facets of the pyramid from a store point m (f_F(m) > 0) over facet F.

    They are F and, for each facet G of the cell meeting F in a ridge
    (affine rank d - 2), conv((F & G) + m), whose row f_F(m) f_G - f_G(m)
    f_F, divided by its gcd, vanishes at m and on F & G and is positive on
    F - G.  The ridges in F are its maximal proper faces, each F & H for
    one facet H, so F & G is one iff no other F & H strictly contains it.
    """
    fset, frow = facets[f]
    m = pts[m_index]
    fm = _row_at(frow, m)
    meets = [fset & gset for gset, _ in facets]
    out: list[Facet] = [(fset, frow)]
    for g, (gset, grow) in enumerate(facets):
        ridge = meets[g]
        if g == f or any(ridge < other for h, other in enumerate(meets) if h != f):
            continue
        gm = _row_at(grow, m)
        row = [fm * y - gm * x for x, y in zip(frow, grow)]
        k = gcd(*row)
        out.append((ridge | {m_index}, tuple([x // k for x in row])))
    return out


def _columns(pts: Sequence[Point]) -> dict[Point, tuple[int, list[int]]]:
    """Each vertical line of the sorted store: its first store index and
    its points' last coordinates, which come consecutive and ascending."""
    cols: dict[Point, tuple[int, list[int]]] = {}
    for i, p in enumerate(pts):
        cols.setdefault(p[:-1], (i, []))[1].append(p[-1])
    return cols


def _candidates(cols, verts: Sequence[Point], rows) -> Iterator[int]:
    """Store indices of the points of a cell, read off the vertical lines.

    rows are >= 0 exactly on the cell.  On a line in the cell's box each
    row cuts an exact integer interval of last coordinates t; bisection
    finds the store points in all of them.
    """
    lo = [min(x) for x in zip(*verts)]
    hi = [max(x) for x in zip(*verts)]
    for y, (start, ts) in cols.items():
        if any(x < a or x > b for a, x, b in zip(lo, y, hi)):
            continue
        tlo, thi = lo[-1], hi[-1]
        for row in rows:
            a, b = row[-2], _row_at(row, y)
            if a > 0:
                tlo = max(tlo, -(b // a))
            elif a < 0:
                thi = min(thi, b // -a)
            elif b < 0:
                thi = tlo - 1
        yield from range(start + bisect_left(ts, tlo), start + bisect_right(ts, thi))


def pull_sweep(
    s: Subdivision, w: RegularityWitness
) -> tuple[Triangulation, RegularityWitness, list[tuple[Point, Fraction]]]:
    """Pull at every store point in order, threading the witness through.

    This is the library's only pulling code.  It gives the cells, witness
    and drops of pulling one store point at a time and halving each drop
    from 1 until the witness certifies the refinement (the test oracle
    witness_pull in tests/oracles.py), touching only the cells around the
    pulled point.

    Precondition, checked in one pass before the first pull: the cells
    subdivide a convex polytope, the heights are affine on each cell (else
    DegenerateGeometry), no wall is bent (_bent_wall) and each store point
    that is no vertex lies at or above every cell containing it (else
    DomainError).  By verify_regularity's argument the function g of the
    interpolants is then strictly convex, so A_c(p) < g(p) <= w(p) for each
    store point p off a cell c, as the oracle check_intermediate asks.
    After the last pull every store point is a vertex, so the wall check,
    run once more, proves the output witness.

    A pull at m lowers g, so the precondition holds after it iff the walls
    of the new cells, all through m, are strict.  Such a cell's
    interpolant is A0 - eps * Lam, Lam the barycentric coordinate of m,
    and its wall with a facet-neighbour is strict iff eps * -Lam(q) <
    w(q) - A0(q) at the neighbour's vertices q off it.  The least such
    bound is the supremum of the feasible drops, so it equals witness_pull's
    whole-store bound, whose constraints follow from convexity.

    The sweep runs on integers.  A simplex keeps the integer inverse of
    its homogenised vertex matrix and a polytopal cell its facet rows; a
    split derives its children's, and their points' numerators, from the
    parent's.  Interpolants are integer forms in lowest terms and drop
    bounds are compared by cross-multiplication; only witness values and
    drops are Fractions.
    """
    pts = s.points
    npts = len(pts)
    dim = len(pts[0])
    vals = [Fraction(v) for v in w.values]
    if len(vals) != npts:
        raise DimensionMismatch("witness length does not match the point store")

    cells: set[Cell] = set()
    vert_inc: list[set[Cell]] = [set() for _ in range(npts)]
    loc: list[set[Cell]] = [set() for _ in range(npts)]  # non-vertex containment
    # forward map of loc, for cells holding points: each point with its
    # barycentric numerators in a simplex cell, None in a polytopal one
    located: dict[Cell, dict[int, tuple[int, ...] | None]] = {}
    inv: dict[Cell, tuple[Sequence[tuple[int, ...]], int]] = {}  # simplex_inverse
    facets: dict[Cell, list[Facet]] = {}  # of polytopal cells
    cache: dict[Cell, Form] = {}  # interpolants

    def rows_of(c: Cell) -> Sequence[Sequence[int]]:
        """A cell's inverse or facet rows, computed unless a split derived them."""
        verts = [pts[i] for i in c]
        if len(c) == dim + 1:
            if c not in inv:
                inv[c] = polytope.simplex_inverse(verts)
            return inv[c][0]
        if c not in facets:
            facets[c] = [
                (frozenset(i for i in c if fn.numerator(pts[i]) == 0), fn.row)
                for fn in polytope.inner_functionals(verts)
            ]
        return [row for _, row in facets[c]]

    def facet_sets(c: Cell) -> list[frozenset[int]]:
        if len(c) == dim + 1:
            return _simplex_facets(c)
        return [fs for fs, _ in facets[c]]

    def add(c: Cell, found: dict[int, tuple[int, ...] | None]) -> None:
        cells.add(c)
        for i in c:
            vert_inc[i].add(c)
        for pi in found:
            loc[pi].add(c)
        if found:
            located[c] = found

    def unregister(c: Cell) -> None:
        cells.discard(c)
        cache.pop(c, None)
        inv.pop(c, None)
        facets.pop(c, None)
        for i in c:
            vert_inc[i].discard(c)
        for pi in located.pop(c, ()):
            loc[pi].discard(c)

    def check_convex(when: str) -> None:
        bent = _bent_wall(cells, facet_sets, cache.__getitem__, vals, pts)
        if bent is not None:
            c, other, fs = bent
            raise DomainError(
                f"witness is not convex {when} the pull: cells {c} and "
                f"{other} across facet {sorted(fs)}"
            )

    # the certificate pass before the first pull: every interpolant, in
    # lowest terms, then each starting cell's points, found on vertical
    # lines (exactly, so only a simplex computes their numerators) and
    # checked to lie at or above the cell, then the walls
    heights, scale = _common_scale(w)
    for c in s.cells:
        if len(c) == dim + 1:
            rows_of(c)  # keeps the inverse the interpolant reads
        row, den = _cell_form([pts[i] for i in c], [heights[i] for i in c], inv.get(c))
        g = gcd(den * scale, *row)
        cache[c] = (tuple(x // g for x in row), den * scale // g)
    cols = _columns(pts)
    for c in s.cells:
        row, den = cache[c]
        rows = rows_of(c)
        simplex = len(c) == dim + 1
        found: dict[int, tuple[int, ...] | None] = {}
        for pi in _candidates(cols, [pts[i] for i in c], rows):
            if pi in c:
                continue
            p, v = pts[pi], vals[pi]
            if v.numerator * den < _row_at(row, p) * v.denominator:
                raise DomainError(
                    f"witness is not convex before the pull: store point {p} "
                    f"lies below cell {c}"
                )
            found[pi] = tuple([_row_at(r, p) for r in rows]) if simplex else None
        add(c, found)
    check_convex("before")

    log: list[tuple[Point, Fraction]] = []
    for m_index in range(npts):
        m = pts[m_index]
        incident = vert_inc[m_index] | loc[m_index]
        if not incident:
            raise DomainError(f"store point {m} is not covered by any cell")
        phi_m = min(
            Fraction(_row_at(row, m), den) for row, den in map(cache.get, incident)
        )

        # cells keeping m as a vertex have an eps-dependent interpolant
        # A0 - eps * Lam, with Lam the barycentric coordinate of m; collect
        # (cell, A0, Lam) triples while replacing the cells containing m.
        # Simplices with m as a vertex are the only fixed points of a pull;
        # a child's A0 is its parent's interpolant, which is phi_m at m.
        eps_cells: list[tuple[Cell, Form, Form]] = []
        for c in vert_inc[m_index]:
            if len(c) == dim + 1:
                adj, d = inv[c]
                eps_cells.append((c, cache[c], (adj[c.index(m_index)], d)))

        replaced = list(loc[m_index]) + [
            c for c in vert_inc[m_index] if len(c) != dim + 1
        ]
        for parent in replaced:
            a0 = cache[parent]
            carried = located.get(parent, {})
            if len(parent) == dim + 1:
                # split off the pyramids over the facets m sees, deriving
                # each child's inverse and numerators from the parent's
                adj, d = inv[parent]
                lam = carried[m_index]
                unregister(parent)
                for j, lj in enumerate(lam):
                    if lj <= 0:
                        continue
                    child = parent[:j] + (m_index,) + parent[j + 1 :]
                    key = tuple(sorted(child))
                    order = sorted(range(dim + 1), key=child.__getitem__)
                    rows = _pyramid_inverse(adj, d, lam, j)
                    inv[key] = (tuple([rows[k] for k in order]), lj)
                    found = {}
                    for pi, nu in carried.items():
                        nums = _split_numerators(nu, lam, d, j)
                        if nums is not None and pi != m_index:
                            found[pi] = tuple([nums[k] for k in order])
                    add(key, found)
                    eps_cells.append((key, a0, (adj[j], lj)))
            else:
                # one pyramid from m over each facet not through m, with
                # Lam = f_F / f_F(m) and facets derived from the parent's
                pf = facets[parent]
                unregister(parent)
                for f, (fset, frow) in enumerate(pf):
                    fm = _row_at(frow, m)
                    if fm == 0:
                        continue
                    key = tuple(sorted(fset | {m_index}))
                    if len(key) != dim + 1:
                        facets[key] = _pyramid_facets(pts, pf, f, m_index)
                    rows = rows_of(key)
                    found = {}
                    for pi in carried.keys() - key:
                        nums = tuple([_row_at(row, pts[pi]) for row in rows])
                        if min(nums) >= 0:
                            found[pi] = nums if len(key) == dim + 1 else None
                    add(key, found)
                    eps_cells.append((key, a0, (frow, fm)))

        # bound eps by the walls of the cells through m: the targets are
        # their facet-neighbours' vertices, and constraints with Lam >= 0
        # relax as eps grows.  The least bound so far is bn / bd (bd > 0,
        # None while unbounded), an unreduced integer pair compared by
        # cross-multiplication.
        bn: int | None = None
        bd = 1
        for c, (arow, ad), (lrow, ld) in eps_cells:
            targets: set[int] = set()
            for fs in facet_sets(c):
                for other in set.intersection(*[vert_inc[i] for i in fs]):
                    targets.update(other)
            targets.difference_update(c)
            for pi in targets:
                p = pts[pi]
                ln = _row_at(lrow, p)
                if ln >= 0:
                    continue
                # bound = (vals[pi] - A0(p)) / -Lam(p) = c0n ld / (vd ad -ln)
                v = vals[pi]
                vd = v.denominator
                c0n = v.numerator * ad - _row_at(arow, p) * vd
                if c0n <= 0:
                    raise DomainError("witness is not convex before the pull")
                num, den = c0n * ld, vd * ad * -ln
                if bn is None or num * bd < bn * den:
                    bn, bd = num, den

        eps = _largest_power_drop(None if bn is None else Fraction(bn, bd))
        vals[m_index] = phi_m - eps
        for c, a0, lam in eps_cells:
            cache[c] = _drop(a0, lam, eps)
        log.append((m, eps))

    check_convex("after")
    out = RegularityWitness(tuple(vals))
    tri = subdivision.make_subdivision(
        pts, s.ambient, [tuple(pts[i] for i in c) for c in cells]
    )
    if not isinstance(tri, Triangulation):
        raise DomainError("pulling at all points did not yield simplices")
    return tri, out, log


def remap_witness(
    w: RegularityWitness,
    s_from: Subdivision,
    s_to: Subdivision,
    point_map: Callable[[Point], Point],
) -> RegularityWitness:
    """Transport a witness along a point bijection onto another store."""
    vals: dict[Point, Fraction] = {}
    for p, v in zip(s_from.points, w.values):
        vals[point_map(p)] = v
    if set(vals) != set(s_to.points):
        raise DomainError("point map does not carry the store onto the target")
    return RegularityWitness(tuple(vals[p] for p in s_to.points))
