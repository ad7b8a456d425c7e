"""Strict-convexity certificates for regular subdivisions.

A witness assigns one exact rational height to every point-store entry;
a subdivision is regular when the piecewise-affine function induced by
those heights is strictly convex with the cells as its domains of
linearity.  The pipeline gives each level's starting subdivision its
heights in closed form; pull_sweep threads them through the pulling
refinement and verify_regularity certifies the result, so regularity is
certified, never assumed.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, compress
from math import gcd, lcm
from operator import le, sub
from typing import Callable, Collection, Iterable, Sequence

from . import exact, polytope, subdivision
from .errors import DegenerateGeometry, DimensionMismatch, DomainError
from .polytope import Form, Point, ridges
from .subdivision import Cell, Subdivision, Triangulation, VerifyReport


@dataclass(frozen=True)
class RegularityWitness:
    """Exact rational height per point-store entry, in store order.

    Entries that are not yet a Fraction are converted; a Fraction is kept
    as it is, since Fraction(v) would only copy it.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "values",
            tuple(v if type(v) is Fraction else Fraction(v) for v in self.values),
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


def violation_line(pair: tuple[Cell, Point, Fraction]) -> str:
    """One violating pair's line, for cli.cmd_verify and pipeline._first_failure."""
    c, p, margin = pair
    return f"regularity violation: cell {c} point {p} margin {exact.number_str(margin)}"


def _common_scale(w: RegularityWitness) -> tuple[list[int], int]:
    """The witness over one common denominator: (W, L), W[i] = w_i * L."""
    scale = lcm(*(v.denominator for v in w.values))
    return [v.numerator * (scale // v.denominator) for v in w.values], scale


def verify_regularity(t: Triangulation, w: RegularityWitness) -> CertificateReport:
    """Regular iff A_c(p) < w(p) for every cell c and store point p off c.

    The report is that of the all-pairs scan (_all_pairs); its structure
    is subdivision.verify(t, heights), whose one loop over the cells
    computes the volumes, pairs the facets and tests each wall as its
    second cell arrives, so each cell is eliminated once.  The walls
    decide when that proof is valid, every store point is a cell vertex
    and no wall is bent (its convex is True).  Then the cells triangulate
    the convex polytope P, meeting in common faces, so g, equal to A_c on
    each cell c, is continuous and w at the vertices.  On almost every
    segment in P the slope of g increases strictly at each wall it
    crosses, so g is convex (the wall inequalities of the secondary cone:
    De Loera-Rambau-Santos, *Triangulations*, 2010, ch. 5).  A store point
    p off c lies outside c, or it would lie in the common face of c and a
    cell it is a vertex of; a segment from almost any interior point of c
    to p leaves c through a wall, after which g - A_c, 0 until then, has a
    positive, non-decreasing slope: A_c(p) < g(p) = w(p).

    Every other case (a bent wall, which is a violating pair, a store
    point that is no vertex, an ambient that is no simplex or other
    unproven input) runs the scan, whose pairs the report carries.  It
    bounds each cell's affine form on each vertical run of the store by
    the run's two ends, so a run whose least height clears that bound
    holds no point at or below the form; it reads each other run once,
    and its points at or below the form off the cell are the violating
    pairs.  Every (cell, run) pair is still visited, so rejection stays
    quadratic in the worst case.  A degenerate cell, which the structure
    names, stops it: not regular.  Any t but a Triangulation raises
    DimensionMismatch.
    """
    if not isinstance(t, Triangulation):
        raise DimensionMismatch("regularity check needs simplicial cells")
    if len(w.values) != len(t.points):
        raise DimensionMismatch("witness length does not match the point store")
    pts = t.points
    if set(map(len, pts)) != {t.ambient_dim}:
        raise DimensionMismatch("point dimension does not match functional")
    heights, scale = _common_scale(w)
    structure = subdivision.verify(t, heights)
    if structure.valid and structure.convex and len(set().union(*t.cells)) == len(pts):
        return CertificateReport(True, structure=structure)
    try:
        pairs = _all_pairs(t, heights, scale)
    except DegenerateGeometry:  # a degenerate cell, which the proof refused
        if structure.valid:
            raise
        return CertificateReport(False, structure=structure)
    return CertificateReport(not pairs, pairs, structure)


def _all_pairs(
    t: Triangulation, heights: Sequence[int], scale: int
) -> list[tuple[Cell, Point, Fraction]]:
    """The violating (cell, store point) pairs of the certificate check.

    Cells go in order, each against the store in order, and the list
    stops after 51 violations.  With heights W = L * w (_common_scale) and
    a cell's form (row, den), w(p) - A_cell(p) = (W[p] * den -
    row_at(row, p)) / (L * den), so a pair passes iff that integer
    numerator, its gap, is positive.  Only a violation builds its Fraction
    margin.  A hit is a point with gap <= 0; the form interpolates the
    heights, so each of the cell's own vertices is a hit with gap 0, and
    every other hit is a violation.

    The scan goes by vertical runs: maximal runs of consecutive store
    points that share all coordinates but the last, t.  The store is
    sorted and deduplicated (Subdivision), so t increases along a run.  A
    is affine, so on a run A = base + rl * t, rl = row[-2]: it is largest
    at the run's last point when rl > 0, else at its first.  If the run's
    least height times den is above that end value, every point of the
    run has W * den >= den * least > A(end) >= A there, a positive gap,
    so the run holds no hit and is not read.  Each run that fails the
    bound is read once, in store order: A = base + rl * t over its last
    coordinates in C-level maps, and each hit there that is no vertex of
    the cell is a violation.  A single-point run that is a vertex is
    skipped unread.  So the pairs are those of the point-by-point scan,
    in its order, from one read of each failing run.  A p2dual level is
    columns over the previous level's points (24 runs of 353 points at
    level 4, 353 of 178,070 at level 5), and a level-4 cell reads about
    64 points; the p2 and p1 stores are single-point runs, so there the
    bound is the per-point test.

    A at the chosen end of every run comes as exact integer prefix sums:
    A(q) = A(p) + row . (q - p) for consecutive run ends p, q, the
    constant term cancelled.  These steps take few distinct values (15 at
    level-4 p2dual, both ends together; 31-35 in the level-4 p2 and
    level-5 p1 stores), so one function generated per scan (_step_dots)
    gives a cell's dot products with all of them; the running sum and the
    bound are C-level passes.
    """
    pts = t.points
    at = exact._row_kernel(len(pts[0]))[0]
    ts = [p[-1] for p in pts]
    # the vertical runs [s, e): each run's last coordinates, heights and
    # least height
    starts = [0, *(i for i in range(1, len(pts)) if pts[i][:-1] != pts[i - 1][:-1])]
    bounds = list(zip(starts, [*starts[1:], len(pts)]))
    run_t = [ts[s:e] for s, e in bounds]
    run_h = [heights[s:e] for s, e in bounds]
    least = list(map(min, run_h))
    firsts = [pts[s] for s, _ in bounds]
    lasts = [pts[e - 1] for _, e in bounds]
    dots, (first_ids, last_ids) = _step_dots(firsts, lasts)
    # per end of the runs, first and last (where A is largest when rl >
    # 0): its step ids, the first run's point there and every run's last
    # coordinate there
    ends_at = (
        (first_ids, firsts[0], [p[-1] for p in firsts]),
        (last_ids, lasts[0], [p[-1] for p in lasts]),
    )
    runs = list(range(len(bounds)))  # built once: compress only reads them
    violations: list[tuple[Cell, Point, Fraction]] = []
    for c in t.cells:
        row, den = polytope.volume_form(t.cell_points(c), [heights[i] for i in c])[1]
        rl = row[-2]
        ids, first, tref = ends_at[rl > 0]
        top = list(accumulate(map(dots(row).__getitem__, ids), initial=at(row, first)))
        floors = least if den == 1 else map(den.__mul__, least)
        for j in compress(runs, map(le, floors, top)):
            s, e = bounds[j]
            if e - s == 1 and s in c:
                continue
            base = top[j] - rl * tref[j]
            hs = run_h[j] if den == 1 else map(den.__mul__, run_h[j])
            values = map(base.__add__, map(rl.__mul__, run_t[j]))
            for pi in compress(range(s, e), map(le, hs, values)):
                if pi in c:
                    continue
                gap = heights[pi] * den - base - rl * ts[pi]
                violations.append((c, pts[pi], Fraction(gap, scale * den)))
                if len(violations) > 50:
                    return violations
    return violations


def _step_dots(*walks: Sequence[Point]) -> tuple[Callable, list[list[int]]]:
    """One generated function for the steps between consecutive points of
    each walk: (dots, ids), dots(r) a row's dot products with the distinct
    steps and ids[k] the index of each step of walk k in that list.

    Each step q - p is written into the source as integer constants, one
    expression per step with its zero terms left out; the row's constant
    term cancels from every step.  Compiled per call, and dropped with its
    caller's scan."""
    kinds: dict[Point, int] = {}
    ids = [
        [kinds.setdefault(tuple(map(sub, q, p)), len(kinds)) for p, q in zip(w, w[1:])]
        for w in walks
    ]
    exprs = []
    for step in kinds:
        terms = [
            f"{'-' if x < 0 else '+'} r{j}" + ("" if abs(x) == 1 else f" * {abs(x)}")
            for j, x in enumerate(step)
            if x
        ]
        exprs.append(" ".join(terms).removeprefix("+ ") or "0")
    d = len(walks[0][0])
    source = (
        "def dots(r):\n"
        f"    {', '.join(f'r{j}' for j in range(d))}, _ = r\n"
        f"    return [{', '.join(exprs)}]\n"
    )
    namespace: dict = {}
    exec(compile(source, "<witness._step_dots>", "exec"), namespace)
    return namespace["dots"], ids


def _largest_power_drop(upper: Fraction | None) -> Fraction:
    """Largest 2^-k (k >= 0) strictly below the upper bound p/q > 0 (1 if
    unbounded).

    The least k with 2^k p > q: for p <= q, k = len(q) - len(p) in bits
    gives 2^(len(q) - 1) <= 2^k p < 2^len(q), so k works unless 2^k p <= q,
    and then k + 1 does, while k - 1 never does.
    """
    if upper is None or upper > 1:
        return Fraction(1)
    p, q = upper.numerator, upper.denominator
    k = q.bit_length() - p.bit_length()
    return Fraction(1, 1 << (k + ((p << k) <= q)))


def _primitive(row: Sequence[int]) -> tuple[int, ...]:
    """A nonzero integer row divided by its gcd, a positive factor."""
    g = gcd(*row)
    return tuple([x // g for x in row])


def _pyramid(
    sets: Sequence[frozenset[int]],
    rows: Sequence[Sequence[int]],
    lam: Sequence[int],
    f: int,
    m_index: int,
) -> tuple[list[frozenset[int]], list[Sequence[int]]]:
    """The pyramid from a store point m over facet F = sets[f] of a cell.

    sets and rows are the cell's facets: store-index sets and primitive
    integer rows, >= 0 on the cell and 0 on the facet (read with row_at).
    lam are m's values on the rows, lam[f] > 0.  The pyramid's facets are
    F and, for each facet G meeting F in a ridge (polytope.ridges),
    conv((F & G) + m), whose row lam[f] f_G - lam[g] f_F over its gcd
    (the generated comb of exact._row_kernel) vanishes at m and on F & G
    and is positive on F - G.  Where lam[g] = 0 that row is f_G itself, as
    f_G is primitive, so it is kept.  The facets come sorted by their
    least vertex off them, so a simplex's rows come in vertex order, as
    simplex_inverse's do.
    Returns the facet sets and their rows, again primitive.

    pull_sweep splits its polytopal cells here.  It splits a simplex by
    position (_split_simplex), which the tests hold to this function over
    the simplex's facet sets.
    """
    fset, frow, lf = sets[f], rows[f], lam[f]
    comb = exact._row_kernel(len(frow) - 1)[1]
    meets = ridges(sets, f)
    out = [(m_index, f, frow)]  # (least vertex off, g, row)
    for g, ridge in meets.items():
        row = rows[g] if lam[g] == 0 else comb(lf, frow, lam[g], rows[g])
        out.append((min(fset - ridge), g, row))
    out.sort()  # (least vertex off, g) is unique, so rows are not compared
    child_sets = [fset if g == f else meets[g] | {m_index} for _, g, _ in out]
    return child_sets, [row for *_, row in out]


def _split_simplex(
    parent: Cell,
    rows: Sequence[Sequence[int]],
    lam: Sequence[int],
    k: int,
    m_index: int,
) -> tuple[Cell, list[Sequence[int]], Cell]:
    """The pyramid from store point m over facet F of a simplex, F the
    facet opposite vertex k.

    The same pyramid as _pyramid's, read off positions: rows are the
    simplex's primitive rows in vertex order, row j vanishing on the facet
    G_j without parent[j], and lam m's values on them, lam[k] > 0.  In a
    simplex every two facets meet in a ridge, so no ridge search is needed:
    the child replaces vertex k by m, its facet opposite m is F with
    rows[k], and its facet opposite each other vertex parent[j] is
    conv((F & G_j) + m), with row comb(lam[k], rows[k], lam[j], rows[j])
    (exact._row_kernel's), or rows[j] itself where lam[j] = 0.  Returns
    the child's sorted vertex tuple, its rows in that vertex order and F,
    the parent without vertex k.
    """
    fk = parent[:k] + parent[k + 1 :]
    lk, rk = lam[k], rows[k]
    comb = exact._row_kernel(len(rk) - 1)[1]
    child_rows = [
        rows[j] if lam[j] == 0 else comb(lk, rk, lam[j], rows[j])
        for j in range(len(parent))
        if j != k
    ]
    at = bisect(fk, m_index)
    child_rows.insert(at, rk)
    return fk[:at] + (m_index,) + fk[at:], child_rows, fk


def _cells_on(star: Sequence[set[Cell]], face: Iterable[int]) -> set[Cell]:
    """The cells with every point of face as a vertex (star[i]: those with
    vertex i), so the cells containing the face.  The smallest star goes
    first, since set.intersection copies its first argument."""
    return set.intersection(*sorted([star[i] for i in face], key=len))


def _walk(
    m: Point,
    c: Cell,
    rows: dict[Cell, Sequence[Sequence[int]]],
    facets: dict[Cell, Sequence[frozenset[int]]],
    star: Sequence[set[Cell]],
) -> set[Cell]:
    """The cells containing m, by a walk from cell c (see pull_sweep).

    rows holds each live cell's facet rows, >= 0 on it; star[i] holds the
    cells with vertex i.  A simplex, a cell with dim + 1 vertices, is read
    by position: its rows come in vertex order, row b vanishing on the
    facet without vertex b, and m lies in the face of the vertices whose
    rows are not 0 at m.  No facet sets are needed for it, since any d of
    its vertices span a facet.  A polytopal cell's rows come in the order
    of its facets' vertex sets.  Raises DomainError when the walk leaves
    the cells or passes len(rows) of them.
    """
    dim = len(m)
    at = exact._row_kernel(dim)[0]
    for _ in range(len(rows)):
        lam = [at(r, m) for r in rows[c]]
        simplex = len(c) == dim + 1
        beyond = next((f for f, x in enumerate(lam) if x < 0), None)
        if beyond is None:
            if simplex:
                return _cells_on(star, [i for i, x in zip(c, lam) if x])
            sets = facets[c]
            through = [sets[f] for f, x in enumerate(lam) if x == 0]
            return _cells_on(star, set(c).intersection(*through))
        wall = c[:beyond] + c[beyond + 1 :] if simplex else facets[c][beyond]
        across = _cells_on(star, wall) - {c}
        if not across:
            raise DomainError(
                f"store point {m} is not covered by any cell: the walk "
                f"leaves cell {c} across facet {sorted(wall)}"
            )
        c = across.pop()
    raise DomainError(f"the walk to store point {m} passed {len(rows)} cells")


def pull_sweep(
    s: Subdivision, w: RegularityWitness
) -> tuple[Triangulation, RegularityWitness, list[tuple[Point, Fraction]]]:
    """Pull at every store point in order, threading the witness through.

    This is the library's only pulling code.  It gives the cells, witness
    and drops of pulling one store point at a time and halving each drop
    from 1 until the witness certifies the refinement (the test oracle
    witness_pull in tests/oracles.py), touching only the cells around the
    pulled point.

    Precondition, stated but not checked: the cells subdivide a convex
    polytope P, the heights are affine on each cell (else
    DegenerateGeometry, as the start forms are solved) and no wall is
    bent, so by verify_regularity's argument the function g of the
    interpolants is strictly convex and A_c(p) < g(p) for each store point
    p off a cell c.  The starting height of a store point that is no
    vertex is never read: the pull at it overwrites it with phi_m - eps.
    With it at or above g(p) the input is one the oracle
    check_intermediate accepts.  On an input that breaks the precondition
    the sweep raises DomainError, at a drop bound upper <= 0 or in a walk,
    or it returns cells.  It checks neither its input nor its output, in
    which every store point is a vertex: the caller's certificate
    (verify_regularity, which pipeline._serve applies) decides the
    triangulation and witness returned, so it refuses a wall that the
    last drop left flat.

    Every cell containing a point p contains the face that holds p in its
    relative interior, each interpolant on that face is the affine
    interpolation of the same vertex heights, and the face's vertices span
    it, so every such cell gives p the same value g(p).

    A pull at m lowers g, so the precondition holds after it iff the walls
    of the new cells, all through m, are strict.  Such a cell's
    interpolant is A0 - eps * Lam, Lam the barycentric coordinate of m,
    and its wall with a facet-neighbour is strict iff eps * -Lam(q) <
    w(q) - A0(q) at the neighbour's vertices q off it.  The least such
    bound is the supremum of the feasible drops, so it equals witness_pull's
    whole-store bound, whose constraints follow from convexity.

    One map, star[i], holds the cells with vertex i.  In a polyhedral
    subdivision a point that is a vertex of c and lies in c' lies in the
    common face c & c', so it is a vertex of that face and hence of c':
    every point is a vertex of all the cells containing it or of none, and
    pulling keeps the cells a subdivision.  So star[m], when not empty,
    holds every cell containing m.  Otherwise a walk locates m
    (Devillers-Pion-Teillaud, "Walking in a triangulation", 2002).  It
    starts at a cell through the previously pulled point, m's neighbour in
    the store's order, and while some facet row of its cell is negative at
    m it crosses the first such facet to the cell across it, found by
    intersecting the stars of the facet's vertices.  The cells are the
    domains of linearity of the convex g, so the subdivision is regular,
    and in a regular subdivision the relation "c' lies across a facet of c
    that separates c from m" is acyclic (Edelsbrunner, "An acyclicity
    theorem for cell complexes in d dimensions", Combinatorica 1990): the
    walk visits no cell twice and ends within as many steps as there are
    live cells.  It raises DomainError past that cap, and at a facet with
    no cell across it, which lies on the boundary of the convex P, so m
    lies outside P.  In the cell c it reaches, the vertices on every facet
    through m span the face of c that holds m in its relative interior (in
    a simplex, the vertices whose rows are not 0 at m, read by position),
    and a cell contains m iff it contains that face: c & c' is a face of c
    through m, so it contains the least one.  The cells containing m are
    thus the intersection of the stars of that face's vertices, as the
    cell across a facet is in the bound phase below.  A pull at m visits a
    snapshot of those cells, taken before any split changes them, and reads
    phi_m = g(m) off any one of them, by the face argument above.

    The cells through m after a pull are pyramids with apex m, and only
    the facet F opposite m bounds eps, so each carries F: a simplex that
    keeps m, itself without m; a split child, the parent's facet it cones
    over.  F's neighbour b lies off m, found by intersecting the stars of
    F's vertices.  For a store point q beyond F (Lam(q) < 0) let H be the
    affine function through the points (v, w(v)) of F's vertices v and
    (q, w(q)).  The pyramid's interpolant A = A0 - eps * Lam agrees with H
    on F and is phi_m - eps at m, so A - H = (phi_m - eps - H(m)) Lam, and
    q bounds eps < phi_m - H(m).  At a vertex of b off F, H is b's
    interpolant B, so F bounds eps < phi_m - B(m), which the code reads
    off b's kept form at m.  Every vertex q of b off F gives that value:
    it lies beyond F, as b and the pyramid lie on F's two sides, and A0 -
    B, 0 on F, is (phi_m - B(m)) Lam, so (w(q) - A0(q)) / -Lam(q) equals
    phi_m - B(m).  No other q bounds it lower: H - B vanishes on F too, so
    H(m) - B(m) = (w(q) - B(q)) / Lam(q) <= 0, as B(q) <= g(q) <= w(q) by
    convexity.  A wall through m therefore never binds: its neighbour's
    vertex off it lies beyond F or bounds nothing (Lam >= 0), and when F
    lies on the boundary of P no store point lies beyond it.  The output's
    cells are simplices, as Triangulation checks: from m's pull on, a
    cell holding m is a pyramid with apex m, as are a pyramid's children
    through its apex, and a pyramid with apex each of its vertices is a
    simplex.

    The sweep runs on integers.  Every cell keeps primitive integer facet
    rows, >= 0 on it and 0 on one facet each: a simplex its simplex_inverse
    rows in vertex order, up to positive factors, with its facets implicit;
    a polytopal cell also its facets' vertex sets.  A cell holding m splits
    into the pyramids from m over the facets F with lam_F = f_F(m) > 0.
    Each pyramid's facets are F and one per ridge F & G, with row lam_F f_G
    - lam_G f_F over its gcd, which is f_G where lam_G = 0, so no
    coordinates but m's are read.  A polytopal cell finds its ridges by
    intersecting its facet sets (_pyramid).  A simplex needs no search and
    no sets: any two of its facets meet in a ridge, and the facet opposite
    vertex k is the cell without it, so the pyramid over it replaces vertex
    k by m and takes its rows by position (_split_simplex).  A cell is a
    simplex iff it has d + 1 vertices; counting rows would not tell, as a
    pyramid over a quadrilateral in R^3 has five vertices and five facets.
    A pyramid with apex m is its own one child, over the facet F opposite
    m: every other facet G is (F & G) + m and keeps f_G (lam_G = 0).  A
    simplex with vertex m stays on a fast path that reads only m's row.
    Every kept form is in lowest terms, so unique: a starting cell's hull
    form, over the common scale, is divided by the gcd of its denominator
    and entries, and each drop writes its form so.  Drop bounds compare
    values B(m) by cross-multiplication, and only witness values, phi_m,
    the least bound and drops are Fractions.  The row arithmetic is
    exact's straight-line row kernel for d (exact._row_kernel), fetched
    once per sweep, walk or split: at reads a row at m, comb writes the
    ridge rows (_split_simplex, _pyramid) and drop the forms A0 - eps *
    Lam, with eps's numerator and denominator read once per pull.
    """
    pts = s.points
    npts = len(pts)
    dim = len(pts[0])
    vals = list(w.values)
    if len(vals) != npts:
        raise DimensionMismatch("witness length does not match the point store")
    at, _, drop = exact._row_kernel(dim)

    rows: dict[Cell, Sequence[Sequence[int]]] = {}  # facet rows; keys: live cells
    facets: dict[Cell, list[frozenset[int]]] = {}  # vertex sets, polytopal cells
    cache: dict[Cell, Form] = {}  # interpolants
    star: list[set[Cell]] = [set() for _ in range(npts)]  # cells with vertex i

    def add(c: Cell) -> None:
        for i in c:
            star[i].add(c)

    # before the first pull: one hull call per cell gives its facet rows,
    # made primitive, a polytopal cell's facets and the interpolant, over
    # the common scale in lowest terms
    heights, scale = _common_scale(w)
    for c in s.cells:
        hull, (row, den) = polytope.hull([pts[i] for i in c], [heights[i] for i in c])
        rows[c] = list(map(_primitive, hull.values()))
        if len(c) != dim + 1:  # sets of positions j in c
            facets[c] = [frozenset(c[j] for j in fs) for fs in hull]
        *row, den = _primitive((*row, den * scale))
        cache[c] = tuple(row), den
        add(c)

    log: list[tuple[Point, Fraction]] = []
    for m_index in range(npts):
        m = pts[m_index]
        if star[m_index]:
            incident = tuple(star[m_index])  # before any split changes it
        else:
            start = star[m_index - 1] if m_index else rows
            incident = tuple(_walk(m, next(iter(start)), rows, facets, star))
        row, den = cache[incident[0]]  # every cell holding m agrees at m
        phi_m = Fraction(at(row, m), den)

        # every cell holding m ends as pyramids with apex m, interpolant
        # A0 - eps * Lam, Lam = f_F / lam_F, F the facet opposite m; collect
        # (cell, A0, Lam, F).  A child's A0 is its parent's interpolant,
        # which is phi_m at m.
        eps_cells: list[tuple[Cell, Form, Form, Collection[int]]] = []
        for parent in incident:
            prows = rows[parent]
            simplex = len(parent) == dim + 1
            if simplex and m_index in parent:  # the fast path: kept as it is
                k = parent.index(m_index)  # the one row not vanishing at m
                lam_k = at(prows[k], m)
                fk = parent[:k] + parent[k + 1 :]
                eps_cells.append((parent, cache[parent], (prows[k], lam_k), fk))
                continue
            lam = [at(r, m) for r in prows]
            seen = [f for f, x in enumerate(lam) if x > 0]
            a0 = cache.pop(parent)
            sets = facets.pop(parent, None)  # None for a simplex
            del rows[parent]
            for i in parent:
                star[i].discard(parent)
            for f in seen:  # a pyramid with apex m comes back as itself
                if simplex:
                    key, rows[key], fs = _split_simplex(parent, prows, lam, f, m_index)
                else:
                    fs = sets[f]
                    key = tuple(sorted(fs | {m_index}))
                    child_sets, rows[key] = _pyramid(sets, prows, lam, f, m_index)
                    if len(key) != dim + 1:
                        facets[key] = child_sets
                add(key)
                eps_cells.append((key, a0, (prows[f], lam[f]), fs))

        # the cell b across the facet F opposite m of each cell through m
        # bounds eps by phi_m - B(m), B b's kept form.  The greatest B(m) so
        # far is bn / bd (None while unbounded), compared unreduced.
        bn: int | None = None
        bd = 1
        for c, _, _, fs in eps_cells:
            for b in _cells_on(star, fs) - {c}:
                brow, bden = cache[b]
                num = at(brow, m)
                if bn is None or num * bd > bn * bden:
                    bn, bd, across = num, bden, (b, fs)
        upper = None if bn is None else phi_m - Fraction(bn, bd)
        if upper is not None and upper <= 0:
            raise DomainError(
                f"witness is not convex before the pull at store point {m}: "
                f"cell {across[0]} across facet {sorted(across[1])} has "
                f"margin {exact.number_str(upper)}"
            )

        eps = _largest_power_drop(upper)
        vals[m_index] = phi_m - eps
        en, ed = eps.numerator, eps.denominator
        for c, (arow, ad), (lrow, ld), _ in eps_cells:
            cache[c] = drop(arow, ad, lrow, ld, en, ed)
        log.append((m, eps))

    tri = Triangulation(pts, s.ambient, tuple(sorted(rows)))
    return tri, RegularityWitness(tuple(vals)), log
