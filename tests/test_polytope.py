"""Polytope core tests: volumes, duality, faces, membership oracles."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sylvtri import exact, polytope
from sylvtri.errors import DegenerateGeometry, DomainError
from sylvtri.polytope import LatticeSimplex, RationalSimplex

import oracles
from oracles import BoxLimitExceeded, CellPolytope, Membership
from test_subdivision import pre_sweep

UNIT_TRIANGLE = ((0, 0), (1, 0), (0, 1))
QUAD = ((0, 0), (1, 0), (0, 1), (1, 1))


def test_nvol_examples():
    assert polytope.nvol(UNIT_TRIANGLE) == 1
    assert polytope.nvol(((0, 0), (2, 0), (0, 3))) == 6
    assert polytope.nvol(((-1,), (1,))) == 2
    with pytest.raises(DegenerateGeometry):
        polytope.nvol(((0, 0), (1, 0)))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda d: st.tuples(
            st.lists(
                st.lists(st.integers(-6, 6), min_size=d, max_size=d),
                min_size=d + 1,
                max_size=d + 1,
            ),
            st.integers(-3, 3),
        )
    )
)
def test_signed_nvol_equals_homogenised_det(case):
    # the d x d difference determinant times (-1)^d is the det of the
    # rows (v, 1), sign included; zero volume still raises
    verts, k = case
    d = len(verts[0])
    want = oracles.bareiss_det([v + [1] for v in verts])
    if want:
        assert polytope.signed_nvol(verts) == want
    else:
        with pytest.raises(DegenerateGeometry):
            polytope.signed_nvol(verts)
    # the last vertex moved onto the line through v_0 and v_(d-1), inside
    # the affine hull of the others
    flat = verts[:-1] + [[b + k * (b - a) for a, b in zip(verts[0], verts[d - 1])]]
    with pytest.raises(DegenerateGeometry):
        polytope.signed_nvol(flat)


def _random_unimodular(rng, dim):
    # product of elementary shears and coordinate swaps has det +-1
    m = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for _ in range(6):
        i, j = rng.sample(range(dim), 2)
        c = rng.randint(-2, 2)
        for k in range(dim):
            m[i][k] += c * m[j][k]
    return m


def test_nvol_unimodular_invariance():
    rng = random.Random(7)
    verts = ((0, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0, 3))
    base = polytope.nvol(verts)
    for _ in range(20):
        m = _random_unimodular(rng, 3)
        image = tuple(
            tuple(sum(m[i][k] * v[k] for k in range(3)) for i in range(3))
            for v in verts
        )
        assert polytope.nvol(image) == base


def test_lattice_simplex_validation():
    with pytest.raises(DegenerateGeometry):
        LatticeSimplex(((0, 0), (1, 1), (2, 2)))
    s = LatticeSimplex(UNIT_TRIANGLE)
    assert s.dim == 2 and s.is_full_dim


def test_barycentric_functionals_match_interpolants():
    # the simplex's inverse rows over D are its barycentric coordinates
    verts = ((0, 0, 0), (3, 1, 0), (1, -2, 5), (-1, 4, 2))
    rows, d = polytope.simplex_inverse(verts)
    for i, row in enumerate(rows):
        unit = [1 if j == i else 0 for j in range(len(verts))]
        fn = oracles.AffineFunctional(
            tuple(Fraction(x, d) for x in row[:-1]), Fraction(row[-1], d)
        )
        assert fn == oracles.affine_interpolant(verts, unit)


def test_halfspaces_saturation():
    s = LatticeSimplex(((1, 0), (0, 1), (-1, -1)))
    rows = oracles.inner_functionals(s.vertices)
    for i, row in enumerate(rows):
        for j, v in enumerate(s.vertices):
            val = polytope.row_at(row, v)
            assert (val == 0) == (i != j)
            assert val >= 0


def test_polar_dual_reflexive():
    s = LatticeSimplex(((1, 0), (0, 1), (-3, -2)))
    d = polytope.polar_dual(s)
    assert isinstance(d, LatticeSimplex)
    assert set(d.vertices) == {(1, -1), (-1, 2), (-1, -1)}


def test_polar_dual_non_reflexive_stays_rational():
    s = LatticeSimplex(((2, 0), (0, 2), (-2, -2)))
    d = polytope.polar_dual(s)
    assert isinstance(d, RationalSimplex)


def test_polar_dual_needs_interior_origin():
    with pytest.raises(DomainError):
        polytope.polar_dual(LatticeSimplex(((1, 0), (0, 1), (1, 1))))


def test_polar_dual_involution():
    s = LatticeSimplex(((1, 0), (0, 1), (-3, -2)))
    dd = polytope.polar_dual(polytope.polar_dual(s))
    assert set(dd.vertices) == set(s.vertices)


@st.composite
def lattice_simplices(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    coord = st.integers(min_value=-3, max_value=3)
    point = st.tuples(*[coord] * dim)
    verts = draw(st.lists(point, min_size=dim + 1, max_size=dim + 1))
    assume(exact.affine_rank(verts) == dim)
    return LatticeSimplex(tuple(verts))


@settings(max_examples=200, deadline=None)
@example(LatticeSimplex(((1, 0), (0, 1), (-3, -2))))  # reflexive
@example(LatticeSimplex(((2, 0), (0, 2), (-2, -2))))  # rational dual
@example(LatticeSimplex(((-2, -2), (-2, 0), (-1, -1))))  # outside, then on
@example(LatticeSimplex(((-2, -2), (-2, 0), (-1, 0))))  # on, then outside
@given(lattice_simplices())
def test_polar_dual_matches_gauss_jordan(s):
    # dual vertex i solves <u, v_j> = -1 for every j != i; facets are taken
    # in vertex order, and the first whose system is singular, or whose
    # vertex has <u, v_i> + 1 <= 0, names the refusal
    want, error = [], None
    for i, vi in enumerate(s.vertices):
        others = [v for j, v in enumerate(s.vertices) if j != i]
        u = oracles.gauss_jordan(others, [-1] * len(others))
        if u is None:
            error = "origin lies on a facet hyperplane"
            break
        if sum(c * x for c, x in zip(u, vi)) + 1 <= 0:
            error = "origin is not strictly interior"
            break
        want.append(tuple(u))
    if error is not None:
        with pytest.raises(DomainError) as e:
            polytope.polar_dual(s)
        assert str(e.value) == error
        return
    got = polytope.polar_dual(s)
    assert got.vertices == tuple(want)
    integral = all(c.denominator == 1 for u in want for c in u)
    assert isinstance(got, LatticeSimplex if integral else RationalSimplex)


def test_faces_of_triangle_and_quad():
    tri = oracles.faces(CellPolytope(UNIT_TRIANGLE))
    assert len(tri) == 6  # 3 vertices + 3 edges
    quad = oracles.faces(CellPolytope(QUAD))
    assert len(quad) == 8  # 4 vertices + 4 edges


def test_inner_functionals_orientation():
    for verts in (UNIT_TRIANGLE, QUAD):
        rows = oracles.inner_functionals(verts)
        interior = tuple(
            Fraction(sum(v[i] for v in verts), len(verts))
            for i in range(2)
        )
        assert all(polytope.row_at(row, interior) > 0 for row in rows)
        assert all(min(polytope.row_at(row, v) for v in verts) == 0 for row in rows)


def test_contains_classifications():
    cell = CellPolytope(QUAD)
    assert oracles.contains(cell, (Fraction(1, 2), Fraction(1, 2))) is Membership.INTERIOR
    assert oracles.contains(cell, (0, 0)) is Membership.BOUNDARY
    assert oracles.contains(cell, (2, 0)) is Membership.OUTSIDE
    edge = CellPolytope(((0, 0), (2, 0)))
    assert oracles.contains(edge, (1, 0)) is Membership.INTERIOR
    assert oracles.contains(edge, (1, 1)) is Membership.OUTSIDE


coord = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=6, unique=True),
       st.tuples(coord, coord))
def test_contains_agrees_with_caratheodory(pts, p):
    verts = oracles.vertex_filter(pts)
    if exact.affine_rank(verts) != 2:
        return
    geom = oracles.contains(CellPolytope(verts), p) is not Membership.OUTSIDE
    assert geom == oracles.in_hull_caratheodory(p, verts)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=7, unique=True),
       st.tuples(coord, coord, coord))
def test_hull_lp_agrees_with_caratheodory(pts, p):
    assert oracles.in_hull_lp(p, pts) == oracles.in_hull_caratheodory(p, pts)


def test_vertex_filter_drops_interior_points():
    pts = list(QUAD) + [(0, 0), (1, 1)]
    assert oracles.vertex_filter(pts + [(0, 0)]) == tuple(sorted(QUAD))
    tri = list(UNIT_TRIANGLE)
    assert oracles.vertex_filter(tri + [(0, 0)]) == tuple(sorted(UNIT_TRIANGLE))


def test_lattice_points_bruteforce():
    tri = CellPolytope(((0, 0), (2, 0), (0, 2)))
    pts = oracles.lattice_points_bruteforce(tri)
    assert len(pts) == 6
    assert (1, 1) in pts and (2, 1) not in pts
    big = CellPolytope(((0, 0), (10**4, 0), (0, 10**4)))
    with pytest.raises(BoxLimitExceeded):
        oracles.lattice_points_bruteforce(big, limit=100)


def test_placing_triangulation_fixed_cases():
    pieces = oracles.placing_triangulation(QUAD)
    assert len(pieces) == 2 and oracles.placing_nvol(QUAD) == 2
    hexagon = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
    assert oracles.placing_nvol(hexagon) == 6
    # a 3-D cell whose facets are squares: placing recurses into them
    cube = tuple((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1))
    pieces = oracles.placing_triangulation(cube)
    assert len(pieces) == 6 and all(polytope.nvol(p) == 1 for p in pieces)
    assert oracles.placing_nvol(cube) == 6


def test_incidence_faces_match_oracle_faces():
    # facet rows agree with the supporting-hyperplane scan in affine
    # coordinates, on random polytopes of dimension 1-4 and the polytopal
    # starting columns of p2dual levels 2-4
    rng = random.Random(15)
    polytopes = [
        oracles.random_polytope_subdivision(rng, dim).ambient
        for dim in (1, 2, 3, 4)
        for _ in range(20)
    ]
    columns = []
    for n in (2, 3, 4):
        s, _ = pre_sweep(n)
        columns += [s.cell_points(c) for c in s.cells if len(c) > n + 1]
    assert len(columns) == 47
    for verts in polytopes + columns:
        facets = oracles.facet_vertex_sets(verts)
        rows = oracles.inner_functionals(verts)
        assert all(polytope.row_at(row, v) >= 0 for row in rows for v in verts)
        zeros = [
            tuple(sorted(v for v in verts if polytope.row_at(row, v) == 0))
            for row in rows
        ]
        assert sorted(zeros) == facets


def test_affine_coordinates_preserve_combinatorics():
    pts = [(0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 1, 0)]
    mapped = oracles.affine_coordinates(pts)
    assert exact.affine_rank(mapped) == len(mapped[0]) == 2
    # midpoint relations survive the map
    assert all(
        2 * m == a + b
        for m, a, b in zip(mapped[1], mapped[0], mapped[2])
    )


@st.composite
def degenerate_point_sets(draw):
    # lattice points of dimension 1-5, doubled, with the midpoints of random
    # pairs: points that are not vertices, on edges, on facets and inside,
    # and repeated points
    dim = draw(st.integers(1, 5))
    coord = st.integers(-2, 2)
    base = draw(
        st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=dim + 4)
    )
    pts = [tuple(2 * x for x in p) for p in base]
    for a, b in draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)),
                              max_size=4)):
        pts.append(tuple((x + y) // 2 for x, y in zip(a, b)))
    return draw(st.permutations(pts))


def _facet_points(verts):
    """Facets of conv(verts) from hull, with zero heights: sorted point
    tuples mapped to primitive rows, checking each row against its set."""
    out = {}
    for fs, row in polytope.hull(verts, [0] * len(verts))[0].items():
        vals = [polytope.row_at(row, v) for v in verts]
        assert min(vals) >= 0
        assert fs == {i for i, x in enumerate(vals) if x == 0}
        g = math.gcd(*row)
        out[tuple(sorted(verts[i] for i in fs))] = tuple(x // g for x in row)
    return out


@settings(max_examples=150, deadline=None)
@example([(0,), (2,), (1,), (0,), (2,)], 0)  # a segment, its midpoint, repeats
@example([(0, 0), (2, 0), (0, 2), (2, 2), (1, 0), (1, 1), (2, 1)], 1)
@example([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 0, 0)], 2)
@given(degenerate_point_sets(), st.integers(0, 2**16))
def test_facets_match_cofactor_scan(verts, seed):
    # beneath-beyond facets equal the cofactor scan in affine coordinates,
    # points off the vertices included; shuffled input gives the same facet
    # sets with rows equal up to a positive factor; input that does not
    # span R^d is refused
    dim = len(verts[0])
    if exact.affine_rank(verts) < dim:
        with pytest.raises(DegenerateGeometry):
            polytope.hull(verts, [0] * len(verts))
        return
    facets = _facet_points(verts)
    assert sorted(facets) == oracles.facet_vertex_sets(verts)
    shuffled = list(verts)
    random.Random(seed).shuffle(shuffled)
    assert _facet_points(shuffled) == facets


def test_facets_refuse_lower_dimensional_input():
    # no rank check runs first: simplex_inverse refuses a flat simplex,
    # hull a flat polytopal cell
    for verts in (
        [(0, 0), (1, 1), (2, 2), (1, 1)],  # collinear in the plane
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 3, 0)],  # coplanar
        [(1, 2, 3)] * 5,  # one point, repeated
        [(0, 0), (1, 1), (3, 3)],  # a flat triangle
        [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],  # a flat tetrahedron
        [(0, 0, 0), (1, 2, 0), (2, 4, 0)],  # too few points to span R^3
    ):
        for fn in (lambda vs: polytope.hull(vs, [0] * len(vs)),
                   oracles.inner_functionals):
            with pytest.raises(DegenerateGeometry):
                fn(verts)


def test_facet_rows_match_cofactor_scan_in_dimension_5():
    # beneath-beyond facets against the cofactor scan on random
    # 5-polytopes, points off their vertices included, columns over
    # 4-simplices from t = -1 to a top that may be -1 too (the level-5
    # starting columns: prisms, and columns with collapsed edges), and
    # prisms with one more point above them
    rng = random.Random(22)
    cells = []
    while len(cells) < 12:
        pts = list({tuple(rng.randint(-1, 1) for _ in range(5)) for _ in range(9)})
        if exact.affine_rank(pts) == 5:
            cells.append(pts)
    while len(cells) < 28:
        base = [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(5)]
        tops = [rng.randint(-1, 2) for _ in base]
        column = sorted({(*v, t) for v, top in zip(base, tops) for t in (-1, top)})
        if exact.affine_rank(base) == 4 and len(column) > 6:
            cells.append(column)
            cells.append(sorted({(*v, t) for v in base for t in (-1, 0)} | {(0,) * 4 + (3,)}))
    for verts in cells:
        assert sorted(_facet_points(verts)) == oracles.facet_vertex_sets(verts)
