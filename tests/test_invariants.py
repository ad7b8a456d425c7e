"""Invariant tables and resolution fan tests."""

from dataclasses import replace
from itertools import combinations
from math import gcd

import pytest

from sylvtri import cli, exact, family, invariants, pipeline, polytope
from sylvtri import subdivision as sd
from sylvtri.errors import DomainError

import oracles


@pytest.fixture(autouse=True)
def _fresh_cache():
    pipeline.clear_cache()
    yield
    pipeline.clear_cache()


def test_index_table():
    assert [invariants.index_formula(n) for n in range(1, 8)] == [
        1,
        6,
        66,
        3486,
        6521466,
        21300104111286,
        226847426110811738551148466,
    ]
    with pytest.raises(DomainError):
        invariants.index_formula(0)


def test_index_matches_closed_form():
    for n in range(1, 10):
        s = family.sylvester(n - 1)
        assert invariants.index_formula(n) == (s - 1) * (2 * s - 3)


def test_betti_sum_table():
    table = invariants.invariant_table(6)
    assert [r.betti_sum for r in table] == [
        4,
        24,
        1008,
        1820448,
        5940926462016,
        63271205161020798539584896,
    ]
    assert table[4].betti_sum == 2 * 1 * 2 * 6 * 42 * 1806 * 3263442


def test_euler_numbers():
    # even n: Euler equals the Betti sum for both hypersurfaces
    for n in (2, 4, 6):
        r = invariants.betti_euler(n)
        assert r.euler(1) == r.euler(2) == r.betti_sum
        assert r.middle_hodge(1) is None and r.middle_hodge(2) is None
    # odd n closed forms
    r3 = invariants.betti_euler(3)
    assert r3.euler(1) == -12 * (2 * 43 - 6) == -960 and r3.euler(2) == 0
    assert r3.middle_hodge(1) == 12 * (2 * 43 - 4) == 984
    assert r3.middle_hodge(2) == 504
    r5 = invariants.betti_euler(5)
    prefix = 1 * 2 * 6 * 42 * 1806
    assert r5.euler(1) == -prefix * (2 * 3263443 - 6) == -5940922821120
    assert r5.middle_hodge(1) == prefix * (2 * 3263443 - 4)
    assert r5.middle_hodge(2) == prefix * 3263442


def test_hodge_diamond_consistency():
    for key in ((3, 1), (3, 2), (4, 1), (4, 2)):
        d = invariants.hodge_diamond(*key)
        n = key[0]
        assert len(d) == 2 * n + 1
        # symmetric rows
        assert d == tuple(reversed(d))
        assert all(row == tuple(reversed(row)) for row in d)
    # h^{1,1} spot checks
    assert invariants.hodge_diamond(3, 1)[2][1] == 11
    assert invariants.hodge_diamond(3, 2)[2][1] == 251
    assert invariants.hodge_diamond(4, 1)[2][1] == 252
    assert invariants.hodge_diamond(4, 2)[2][1] == 151700


def test_hodge_diamond_not_tabulated():
    with pytest.raises(DomainError):
        invariants.hodge_diamond(5, 1)


def test_fan_p2_level2():
    art = pipeline.triangulate_p2(2)
    fan = invariants.fan_from_triangulation(art)
    assert len(fan.rays) == 6 and len(fan.cones) == 6
    assert fan.complete and fan.smooth and fan.crepant


def test_fan_p1_level3():
    art = pipeline.triangulate_p1(3)
    fan = invariants.fan_from_triangulation(art)
    assert len(fan.cones) == 12
    assert fan.complete and fan.smooth and fan.crepant


def test_fan_rays_primitive_and_on_boundary():
    art = pipeline.triangulate_p2(3)
    fan = invariants.fan_from_triangulation(art)
    assert fan.complete and fan.smooth and fan.crepant
    hs = oracles.functionals(art.triangulation.ambient)
    for r in fan.rays:
        assert gcd(*map(abs, r)) == 1
        assert min(h(r) for h in hs) == 0


def test_fan_rejects_origin_on_boundary():
    art = pipeline.triangulate_p2dual(2)
    shifted = pipeline.PipelineArtifact(
        art.spec,
        art.triangulation,
        art.witness,
        art.provenance,
    )
    # the dual simplex does contain the origin strictly, so this one works
    fan = invariants.fan_from_triangulation(shifted)
    assert fan.complete and fan.smooth and fan.crepant
    # translated so that the origin is an ambient vertex, or lies beyond one
    t = art.triangulation
    v = t.ambient[0]
    for k in (1, 2):
        move = lambda p: tuple(x - k * y for x, y in zip(p, v))
        moved = replace(
            art,
            triangulation=sd.Triangulation(
                tuple(map(move, t.points)), tuple(map(move, t.ambient)), t.cells
            ),
        )
        for fan_of in (invariants.fan_from_triangulation, oracles.fan_fraction):
            with pytest.raises(DomainError):
                fan_of(moved)


def test_fan_json_shape():
    fan = invariants.fan_from_triangulation(pipeline.triangulate_p2(2))
    data = invariants.fan_to_json_dict(fan)
    assert set(data) == {"rays", "cones", "flags"}
    assert all(isinstance(x, str) for r in data["rays"] for x in r)
    assert data["flags"] == {"complete": True, "smooth": True, "crepant": True}


@pytest.mark.parametrize(
    "build, n",
    [(pipeline.triangulate_p2dual, n) for n in (1, 2, 3, 4)]
    + [(pipeline.triangulate_p2, n) for n in (1, 2, 3)]
    + [(pipeline.triangulate_p1, n) for n in (2, 3)],
)
def test_fan_matches_fraction_oracle(build, n):
    art = build(n)
    fan = invariants.fan_from_triangulation(art)
    assert fan == oracles.fan_fraction(art)
    assert fan.complete and fan.smooth and fan.crepant


def test_fan_oracle_disagrees_with_a_wrong_facet_row(monkeypatch):
    # the oracle finds the ambient's facets by a cofactor scan, so a wrong
    # simplex_inverse row (facet 0 shifted off its lattice points) shows
    art = pipeline.triangulate_p2dual(3)
    ambient = art.triangulation.ambient
    simplex_inverse = polytope.simplex_inverse

    def shifted(verts):
        y, d = simplex_inverse(verts)
        if tuple(verts) == ambient:
            y = [(*y[0][:-1], y[0][-1] + 1), *y[1:]]
        return y, d

    monkeypatch.setattr(polytope, "simplex_inverse", shifted)
    fan = invariants.fan_from_triangulation(art)
    want = oracles.fan_fraction(art)
    assert want.complete and not fan.complete
    assert fan != want


def _with_cells(art, cells):
    t = art.triangulation
    return replace(art, triangulation=sd.Triangulation(t.points, t.ambient, cells))


def _boundary_facet(art, cell):
    """A cell's facet lying in one ambient facet, as store indices, with
    that facet's functional; None for an interior cell."""
    t = art.triangulation
    hs = oracles.functionals(t.ambient)
    for h in hs:
        on = [i for i in cell if h(t.points[i]) == 0]
        if len(on) == len(cell) - 1:
            return on, h
    return None


def test_fan_dropped_boundary_cell_is_incomplete():
    art = pipeline.triangulate_p2dual(3)
    cells = art.triangulation.cells
    drop = next(c for c in cells if _boundary_facet(art, c) is not None)
    holed = _with_cells(art, tuple(c for c in cells if c != drop))
    fan = invariants.fan_from_triangulation(holed)
    assert fan == oracles.fan_fraction(holed)
    assert not fan.complete and fan.smooth and fan.crepant
    assert len(fan.cones) == len(invariants.fan_from_triangulation(art).cones) - 1


def test_fan_non_unimodular_boundary_cell_is_not_smooth():
    # swap a boundary cell's facet for lattice points of the same ambient
    # facet spanning a cone of determinant > 1, keeping its apex
    art = pipeline.triangulate_p2dual(3)
    t = art.triangulation
    cell = next(c for c in t.cells if _boundary_facet(art, c) is not None)
    facet, h = _boundary_facet(art, cell)
    apex = [i for i in cell if i not in facet]
    on_h = [i for i, p in enumerate(t.points) if h(p) == 0]
    wide = next(
        g
        for g in combinations(on_h, len(facet))
        if abs(exact.det_int([list(t.points[i]) for i in g])) > 1
    )
    swapped = _with_cells(
        art, tuple(sorted({*t.cells, tuple(sorted(wide + tuple(apex)))} - {cell}))
    )
    fan = invariants.fan_from_triangulation(swapped)
    assert fan == oracles.fan_fraction(swapped)
    assert not fan.smooth and fan.crepant


def test_fan_ray_outside_the_polytope_is_not_crepant():
    # a boundary cell's vertex moved far along its facet's hyperplane:
    # still in one ambient facet, but outside the polytope
    art = pipeline.triangulate_p2dual(3)
    t = art.triangulation
    cell = next(c for c in t.cells if _boundary_facet(art, c) is not None)
    facet, h = _boundary_facet(art, cell)
    a, b = (t.points[i] for i in facet[:2])
    q = tuple(x + 100 * (x - y) for x, y in zip(a, b))
    assert h(q) == 0
    cells = [t.cell_points(c) for c in t.cells if c != cell]
    cells.append(tuple(q if p == b else p for p in t.cell_points(cell)))
    bad = replace(
        art, triangulation=sd.make_subdivision([*t.points, q], t.ambient, cells)
    )
    fan = invariants.fan_from_triangulation(bad)
    assert fan == oracles.fan_fraction(bad)
    assert not fan.crepant


def test_fan_overlap_and_gap_is_not_complete(tmp_path, capsys):
    # level-2 p2dual with cells (1, 2, 5) -> (0, 2, 5) and (4, 5, 6) ->
    # (1, 4, 5): the cone over (-1, -1), (-1, 0) lies inside the one over
    # (-1, -1), (-1, 1), none covers the sector between (0, -1) and
    # (1, -1), and the |det|s still sum to D = 6
    art = pipeline.triangulate_p2dual(2)
    swap = {(1, 2, 5): (0, 2, 5), (4, 5, 6): (1, 4, 5)}
    bad = _with_cells(art, tuple(swap.get(c, c) for c in art.triangulation.cells))
    fan = invariants.fan_from_triangulation(bad)
    assert fan == oracles.fan_fraction(bad)
    assert not fan.complete and not fan.smooth and fan.crepant
    assert sum(
        abs(exact.det_int([list(fan.rays[i]) for i in c])) for c in fan.cones
    ) == 6
    path = tmp_path / "swapped.json"
    pipeline.save(bad, str(path))
    assert cli.main(["fan", str(path), "--out", str(tmp_path / "fan.json")]) == 3
    assert capsys.readouterr().out == "crepant rays=6 cones=5\n"


def test_fan_folded_cones_are_not_complete():
    # in the triangle (-1, -1), (3, -1), (-1, 3), of D = 16: the bottom
    # edge's rays b0..b4 joined b0 b2 b4 b3 b1 b0 cover its sector twice,
    # the hypotenuse's h1, h2, h3 joined in a triangle cover theirs twice,
    # and the rest is bare; every ray lies in exactly two cones and the
    # |det|s sum to 16, so only the sides of the ridges tell
    b = [(i - 1, -1) for i in range(5)]
    h1, h2, h3 = (2, 0), (1, 1), (0, 2)
    cones = [(b[0], b[2]), (b[2], b[4]), (b[4], b[3]), (b[3], b[1]), (b[1], b[0])]
    cones += [(h1, h2), (h2, h3), (h1, h3)]
    cells = [(*c, (0, 0)) for c in cones]
    folded = replace(
        pipeline.triangulate_p2dual(2),
        triangulation=sd.make_subdivision(
            {p for c in cells for p in c}, ((-1, -1), (3, -1), (-1, 3)), cells
        ),
    )
    fan = invariants.fan_from_triangulation(folded)
    assert fan == oracles.fan_fraction(folded)
    assert not fan.complete and fan.crepant
    assert len(fan.cones) == 8
    assert all(sum(i in c for c in fan.cones) == 2 for i in range(len(fan.rays)))
    assert sum(
        abs(exact.det_int([list(fan.rays[i]) for i in c])) for c in fan.cones
    ) == 16


def test_fan_flat_cones_are_not_complete():
    # level-3 p2dual plus a zero-volume cell on four points of the ambient
    # edge x = y = -1, every other one: its four facets are boundary cones
    # of three collinear rays, det 0, and each of their ridges lies in two
    # of them and in no cone of the fan.  The |det|s still sum to D and
    # every ridge lies in exactly two cones, so only the flat cones' zero
    # sides tell
    art = pipeline.triangulate_p2dual(3)
    t = art.triangulation
    edge = tuple(t.index[(-1, -1, z)] for z in (-1, 1, 3, 5))
    flat = _with_cells(art, t.cells + (edge,))
    fan = invariants.fan_from_triangulation(flat)
    assert fan == oracles.fan_fraction(flat)
    assert not fan.complete and not fan.smooth and fan.crepant
    dets = [exact.det_int([list(fan.rays[i]) for i in c]) for c in fan.cones]
    assert dets.count(0) == 4
    assert sum(map(abs, dets)) == family.sylvester(3) - 1
    clean = invariants.fan_from_triangulation(art)
    assert clean.complete and len(fan.cones) == len(clean.cones) + 4
