"""Strict-convexity certificates for regular subdivisions.

A witness assigns one exact rational height to every point-store entry;
a subdivision is regular when the piecewise-affine function induced by
those heights is strictly convex with the cells as its domains of
linearity.  Constructors here thread a witness through every subdivision
operation so regularity is certified, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Sequence

from . import exact, polytope, subdivision
from .errors import (
    DimensionMismatch,
    DomainError,
    UnsupportedStore,
)
from .polytope import Point
from .subdivision import Cell, Subdivision, Triangulation


@dataclass(frozen=True)
class RegularityWitness:
    """Exact rational height per point-store entry, in store order."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "values", tuple(Fraction(v) for v in self.values)
        )

    def value_at(self, s: Subdivision, p: Point) -> Fraction:
        return self.values[s.index[p]]

    def scaled(self, factor: int) -> "RegularityWitness":
        if factor <= 0:
            raise DomainError("witness scaling factor must be positive")
        return RegularityWitness(tuple(v * factor for v in self.values))


@dataclass
class CertificateReport:
    """Outcome of a regularity check: violations are (cell, point, margin)."""

    regular: bool
    violating_pairs: list[tuple[Cell, Point, Fraction]] = field(
        default_factory=list
    )


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


def _cell_form(s: Subdivision, cell: Cell, heights: Sequence[int]) -> Form:
    """Integer form (row, den), den > 0, interpolating integer heights on a cell.

    For a simplex with simplex_inverse (Y, D), Y[k] . (x, 1) / D is the
    barycentric coordinate of x at vertex k, so the interpolant is
    sum_k heights[c_k] Y[k] over D.  A polytopal cell takes the row and
    denominator of its functional_on_affine_basis.  Raises
    DegenerateGeometry on a degenerate cell.
    """
    verts = s.cell_points(cell)
    hs = [heights[i] for i in cell]
    if len(verts) == len(verts[0]) + 1:
        adj, d = polytope.simplex_inverse(verts)
        return [sum(map(mul, hs, col)) for col in zip(*adj)], d
    fn = exact.functional_on_affine_basis(verts, hs)
    return fn.row, fn.denominator


def verify_regularity(t: Triangulation, w: RegularityWitness) -> CertificateReport:
    """Strict certificate check over every (cell, store point) pair.

    Requires full-dimensional cells and a store holding all lattice points
    of the ambient polytope; regular iff A_cell(p) < w(p) for every store
    point p outside each cell (De Loera-Rambau-Santos, *Triangulations*,
    2010).  Cells are visited in order, each against the store in order,
    and the report stops after 51 violations.

    The check runs on integers.  With L the lcm of the witness
    denominators, W = L * w is integral, and _cell_form gives each cell an
    integer form (row, den), den > 0, with L * A_cell(p) = _row_at(row, p)
    / den.  Hence

        w(p) - A_cell(p) = (W[p] * den - _row_at(row, p)) / (L * den),

    and L * den > 0, so a pair passes iff that integer numerator is
    positive: one integer dot product (taken axis by axis over the whole
    store) and one comparison per pair.  Only a violation builds its
    Fraction margin, which reduces to the same value as evaluating
    w(p) - A_cell(p) in Fractions.
    """
    if t.dim != t.ambient_dim:
        raise DimensionMismatch("regularity check needs full-dimensional cells")
    if len(w.values) != len(t.points):
        raise DimensionMismatch("witness length does not match the point store")
    pts = t.points
    if any(len(p) != t.ambient_dim for p in pts):
        raise DimensionMismatch("point dimension does not match functional")
    heights, scale = _common_scale(w)
    axes = list(zip(*pts))  # store coordinates, one tuple per axis
    violations: list[tuple[Cell, Point, Fraction]] = []
    for c in t.cells:
        row, den = _cell_form(t, c, heights)
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
    the integer cell forms of L * w (see verify_regularity): each value at
    z is an integer over L * den, compared by cross-multiplication, so
    only omega itself is a Fraction.
    """
    heights, scale = _common_scale(w_minus)
    top_n, top_d = None, 1
    for c in s_minus.cells:
        row, den = _cell_form(s_minus, c, heights)
        n = _row_at(row, z)
        if top_n is None or n * top_d > top_n * den:
            top_n, top_d = n, den
    omega = 1 + Fraction(top_n, top_d * scale)
    idx = s_minus.index
    vals = []
    for p in glued.points:
        if p == z:
            vals.append(omega)
        elif p in idx:
            vals.append(w_minus.values[idx[p]])
        else:
            raise UnsupportedStore(
                f"glued store point {p} is neither the apex nor an S- point"
            )
    return RegularityWitness(tuple(vals)), omega


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


def _pull_cell(pts: Sequence[Point], cell: Cell, m_index: int) -> list[Cell]:
    """The pulling refinement of one polytopal cell at a store point m in it.

    One pyramid from m over each facet that does not contain m.  Every
    inner facet functional is >= 0 at m, and it is 0 exactly on the facets
    through m, so one facet enumeration gives both the facets and the test.
    """
    m = pts[m_index]
    out = []
    for fn in polytope.inner_functionals([pts[i] for i in cell]):
        if fn.numerator(m) != 0:
            facet = [i for i in cell if fn.numerator(pts[i]) == 0]
            out.append(tuple(sorted(facet + [m_index])))
    return out


def pull_sweep(
    s: Subdivision, w: RegularityWitness
) -> tuple[Triangulation, RegularityWitness, list[tuple[Point, Fraction]]]:
    """Pull at every store point in order, threading the witness through.

    This is the library's only pulling code.  It gives the cells, witness
    and drops of pulling one store point at a time and halving each drop
    from 1 until the witness certifies the refinement (the test oracle
    witness_pull in tests/oracles.py, which pulls by the literal
    face-based definition), made tractable for large sweeps by three
    exact shortcuts: a maintained point-location map (which cells contain
    each not-yet-pulled point), interpolant caching, and the convexity
    fact that the tightest upper bound on the drop from cells not touching
    the pulled point is attained among facet-neighbors of the cells that
    do contain it.

    The sweep runs on integers: each simplex cell keeps the integer
    inverse of its homogenised vertex matrix (derived from its parent's
    when a pull splits it), points are located by their integer
    barycentric numerators, interpolants are integer forms in lowest
    terms, and drop bounds are compared by cross-multiplication.  Only
    witness values and drops are Fractions.
    """
    pts = s.points
    npts = len(pts)
    dim = len(pts[0])
    vals = [Fraction(v) for v in w.values]
    if len(vals) != npts:
        raise DimensionMismatch("witness length does not match the point store")

    cells: set[Cell] = set(s.cells)
    vert_inc: list[set[Cell]] = [set() for _ in range(npts)]
    loc: list[set[Cell]] = [set() for _ in range(npts)]  # non-vertex containment
    # forward map of loc, for cells holding points: each point with its
    # barycentric numerators in a simplex cell, None in a polytopal one
    located: dict[Cell, dict[int, tuple[int, ...] | None]] = {}
    inv: dict[Cell, tuple[Sequence[tuple[int, ...]], int]] = {}  # simplex_inverse
    cache: dict[Cell, Form] = {}  # interpolants

    def interpolant(c: Cell) -> Form:
        form = cache.get(c)
        if form is None:
            verts = [pts[i] for i in c]
            cvals = [vals[i] for i in c]
            if len(verts) == dim + 1:
                fn = exact.affine_interpolant(verts, cvals)
            else:
                fn = exact.functional_on_affine_basis(verts, cvals)
            cache[c] = form = (fn.row, fn.denominator)
        return form

    def register(c: Cell, candidates) -> None:
        """Locate candidate points in a cell.

        A simplex cell's point test is one integer dot product per vertex
        against its inverse, computed here unless a split derived it.
        """
        cells.add(c)
        verts = [pts[i] for i in c]
        simplex = len(verts) == dim + 1
        lo = [min(v[k] for v in verts) for k in range(dim)]
        hi = [max(v[k] for v in verts) for k in range(dim)]
        cset = set(c)
        for i in c:
            vert_inc[i].add(c)
        if simplex:
            if c not in inv:
                inv[c] = polytope.simplex_inverse(verts)
            adj = inv[c][0]
        else:
            fns = polytope.inner_functionals(verts)
        found: dict[int, tuple[int, ...] | None] = {}
        for pi in candidates:
            if pi in cset:
                continue
            p = pts[pi]
            if any(p[k] < lo[k] or p[k] > hi[k] for k in range(dim)):
                continue
            if simplex:
                nums = tuple(_row_at(row, p) for row in adj)
                inside = min(nums) >= 0
            else:
                nums = None
                inside = all(fn.numerator(p) >= 0 for fn in fns)
            if inside:
                found[pi] = nums
                loc[pi].add(c)
        if found:
            located[c] = found

    def unregister(c: Cell) -> None:
        cells.discard(c)
        cache.pop(c, None)
        inv.pop(c, None)
        for i in c:
            vert_inc[i].discard(c)
        for pi in located.pop(c, ()):
            loc[pi].discard(c)

    # initial point location over the starting cells
    for c in s.cells:
        register(c, range(npts))

    log: list[tuple[Point, Fraction]] = []
    for m_index in range(npts):
        m = pts[m_index]
        incident = vert_inc[m_index] | loc[m_index]
        if not incident:
            raise DomainError(f"store point {m} is not covered by any cell")
        phi_m = min(
            Fraction(_row_at(row, m), den) for row, den in map(interpolant, incident)
        )

        # one-ring upper bound: cells meeting the incident cells but not m
        ring: set[Cell] = set()
        for c in incident:
            for i in c:
                ring |= vert_inc[i]
        ring -= incident
        # the drop stays below every bound found: the least so far is
        # bn / bd (bd > 0, None while unbounded), an unreduced integer pair
        # compared by cross-multiplication.  The ring bound is phi_m minus
        # the largest ring interpolant at m, found the same way.
        bn: int | None = None
        bd = 1
        top_n: int | None = None
        top_d = 1
        for c in ring:
            row, den = interpolant(c)
            n = _row_at(row, m)
            if top_n is None or n * top_d > top_n * den:
                top_n, top_d = n, den
        if top_n is not None:
            pd = phi_m.denominator
            bn, bd = phi_m.numerator * top_d - top_n * pd, pd * top_d
            if bn <= 0:
                raise DomainError("witness is not convex before the pull")

        # cells keeping m as a vertex have an eps-dependent interpolant
        # A0 - eps * Lam, with Lam the barycentric coordinate of m; collect
        # (cell, A0, Lam) triples while replacing the cells containing m.
        # Simplices with m as a vertex are the only fixed points of a pull.
        eps_cells: list[tuple[Cell, Form, Form, bool]] = []
        for c in vert_inc[m_index]:
            if len(c) == dim + 1:
                adj, d = inv[c]
                eps_cells.append((c, interpolant(c), (adj[c.index(m_index)], d), True))

        replaced = list(loc[m_index]) + [
            c for c in vert_inc[m_index] if len(c) != dim + 1
        ]
        for parent in replaced:
            carried = located.get(parent, {}).keys() - {m_index}
            if len(parent) == dim + 1:
                # split off the pyramids over the facets m sees, deriving
                # each child's inverse from the parent's
                a0 = interpolant(parent)
                adj, d = inv[parent]
                lam = located[parent][m_index]
                unregister(parent)
                for j, lj in enumerate(lam):
                    if lj <= 0:
                        continue
                    child = parent[:j] + (m_index,) + parent[j + 1 :]
                    rows = dict(zip(child, _pyramid_inverse(adj, d, lam, j)))
                    key = tuple(sorted(child))
                    inv[key] = (tuple([rows[i] for i in key]), lj)
                    register(key, carried)
                    eps_cells.append((key, a0, (adj[j], lj), True))
            else:
                children = _pull_cell(pts, parent, m_index)
                unregister(parent)
                saved, vals[m_index] = vals[m_index], phi_m
                for key in children:
                    register(key, carried)
                    cache.pop(key, None)
                    a0 = interpolant(key)
                    cache.pop(key, None)
                    if len(key) == dim + 1:
                        adj, d = inv[key]
                        lam = (adj[key.index(m_index)], d)
                    else:
                        fn = exact.functional_on_affine_basis(
                            [pts[i] for i in key],
                            [1 if i == m_index else 0 for i in key],
                        )
                        lam = (fn.row, fn.denominator)
                    eps_cells.append((key, a0, lam, False))
                vals[m_index] = saved

        # bound eps: convexity of a piecewise-affine function is a local
        # condition across interior facets, so for simplices only vertices
        # of facet-neighbors can bind; constraints with Lam >= 0 relax as
        # eps grows and are already covered by the pre-pull certificate
        for c, (arow, ad), (lrow, ld), local_ok in eps_cells:
            cset = set(c)
            if local_ok:
                targets: set[int] = set()
                for drop in c:
                    shared: set[Cell] | None = None
                    for i in c:
                        if i == drop:
                            continue
                        shared = (
                            set(vert_inc[i])
                            if shared is None
                            else shared & vert_inc[i]
                        )
                    for other in shared or ():
                        if other != c:
                            targets.update(v for v in other if v not in cset)
            else:
                targets = set(range(npts)) - cset
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
        for c, a0, lam, _ in eps_cells:
            cache[c] = _drop(a0, lam, eps)
        log.append((m, eps))

    out = RegularityWitness(tuple(vals))
    tri = subdivision.make_subdivision(
        pts, s.ambient, [tuple(pts[i] for i in c) for c in cells], simplicial=True
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
