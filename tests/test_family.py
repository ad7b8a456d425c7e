"""Sylvester families: sequence, vertices, duality, point enumeration."""

import pytest

from sylvtri import family, pipeline, polytope
from sylvtri.errors import DomainError, FeasibilityLimit
from sylvtri.family import Family, FamilySpec

import oracles


def test_sylvester_sequence():
    assert [family.sylvester(k) for k in range(6)] == [2, 3, 7, 43, 1807, 3263443]
    assert family.sylvester_product(2) == 42
    with pytest.raises(DomainError):
        family.sylvester(-1)


def test_recurrence():
    for k in range(1, 8):
        assert family.sylvester(k) == family.sylvester_product(k - 1) + 1


def test_degrees():
    assert family.degrees(1) == (2, 2)
    assert family.degrees(2) == (4, 6)
    assert family.degrees(3) == (12, 42)
    with pytest.raises(DomainError):
        family.degrees(0)


def test_weight_vertices():
    assert family.weight_vertex_w1(2) == (-2, -1)
    assert family.weight_vertex_w2(2) == (-3, -2)
    assert family.weight_vertex_w1(3) == (-6, -4, -1)
    assert family.weight_vertex_w2(3) == (-21, -14, -6)


def test_build_vertex_order():
    p2 = family.build(FamilySpec(Family.P2, 2))
    assert p2.vertices == ((1, 0), (0, 1), (-3, -2))
    p1 = family.build(FamilySpec(Family.P1, 2))
    assert p1.vertices == ((1, 0), (0, 1), (-2, -1))
    dual = family.build(FamilySpec(Family.P2DUAL, 2))
    assert dual.vertices == ((-1, -1), (1, -1), (-1, 2))
    with pytest.raises(DomainError):
        FamilySpec(Family.P1, 0)
    # p1 at level n cones over p2 at level n - 1, so it starts at level 2
    with pytest.raises(DomainError, match="^family p1 needs n >= 2$"):
        FamilySpec(Family.P1, 1)


@pytest.mark.parametrize("fam", list(Family))
def test_cell_count_is_the_normalized_volume(fam):
    # the closed form against the simplex's determinant, and the limit:
    # the count itself passes, one less refuses, and a huge level is
    # refused after a few factors
    for n in range(2, 7):
        spec = FamilySpec(fam, n)
        count = polytope.nvol(family.build(spec).vertices)
        assert family.cell_count(spec, count) == count
        assert family.cell_count(spec, count - 1) is None
    assert family.cell_count(FamilySpec(fam, 10**6), 10**6) is None


def test_volumes_small():
    for n in range(1, 5):
        p2 = family.build(FamilySpec(Family.P2, n))
        assert polytope.nvol(p2) == family.sylvester(n) - 1


def test_duality_map_det_and_vertex_bijection():
    for n in range(1, 6):
        t = family.duality_map(n)
        p2 = family.build(FamilySpec(Family.P2, n))
        dual = polytope.polar_dual(p2)
        image = {t.apply(v) for v in p2.vertices}
        assert image == set(dual.vertices)


def test_duality_map_inverse_round_trip():
    for n in (2, 3, 4):
        t = family.duality_map(n)
        inv = t.inverse()
        for v in family.build(FamilySpec(Family.P2, n)).vertices:
            assert inv.apply(t.apply(v)) == v


def test_duality_map_inverse_refuses_non_unimodular():
    # |det| 2: the inverse is not integral, and no map may round it
    with pytest.raises(DomainError):
        family.DualityMap(((2, 0), (0, 1))).inverse()


def test_column_height_examples():
    # level 1 -> 2 columns over -1, 0, 1
    assert [family.column_height(2, (y,)) for y in (-1, 0, 1)] == [2, 0, -1]
    assert family.hyperplane_height(2, (-1,)) == 1
    with pytest.raises(DomainError):
        family.column_height(2, (5,))
    with pytest.raises(DomainError):
        family.column_height(2, (0, 0))


def test_column_height_apex_column():
    for n_plus_1 in (2, 3, 4):
        n = n_plus_1 - 1
        assert (
            family.column_height(n_plus_1, (-1,) * n)
            == family.sylvester(n) - 1
        )
    # sum_{i<k} 1/s_i = 1 - 1/(s_k - 1): the apex column's only point above
    # the slanted hyperplane is its top
    for n_plus_1 in range(2, 9):
        n = n_plus_1 - 1
        assert family.hyperplane_height(n_plus_1, (-1,) * n) == family.sylvester(n) - 2


def test_lattice_points_p2dual_strictly_increasing():
    for n in (1, 2, 3, 4):
        pts = family.lattice_points_p2dual(n)
        assert all(a < b for a, b in zip(pts, pts[1:]))


def test_lattice_points_match_bruteforce():
    for n in (1, 2, 3):
        simplex = family.build(FamilySpec(Family.P2DUAL, n))
        oracle = oracles.lattice_points_bruteforce(simplex)
        assert list(family.lattice_points_p2dual(n)) == oracle


def test_lattice_points_p2_via_duality():
    # the shipped store: the p2dual store mapped through the inverse duality map
    for n in (1, 2, 3):
        simplex = family.build(FamilySpec(Family.P2, n))
        oracle = oracles.lattice_points_bruteforce(simplex)
        assert list(pipeline.triangulate_p2(n).triangulation.points) == oracle


def test_p1_store_structure():
    # the shipped store: the p2 store embedded at last coordinate 0, plus
    # the two apexes e_last and w1
    for n_plus_1 in (2, 3):
        pts = pipeline.triangulate_p1(n_plus_1).triangulation.points
        simplex = family.build(FamilySpec(Family.P1, n_plus_1))
        assert list(pts) == oracles.lattice_points_bruteforce(simplex)
        n = n_plus_1 - 1
        p2 = pipeline.triangulate_p2(n).triangulation.points
        embedded = {(*p, 0) for p in p2}
        apexes = {
            tuple(1 if i == n else 0 for i in range(n_plus_1)),
            family.weight_vertex_w1(n_plus_1),
        }
        assert set(pts) == embedded | apexes


def test_enumeration_limit_refusal(monkeypatch):
    monkeypatch.setattr(family, "MAX_ENUMERATION_POINTS", 10)
    family.lattice_points_p2dual.cache_clear()  # levels enumerated earlier
    with pytest.raises(FeasibilityLimit):
        family.lattice_points_p2dual(5)
