"""Regularity witness tests: certificates through every constructor."""

import random
from fractions import Fraction

import pytest

from sylvtri import exact, family, pipeline, polytope, subdivision as sd, witness as wt
from sylvtri.errors import (
    DegenerateGeometry,
    DimensionMismatch,
    DomainError,
    UnsupportedStore,
)
from sylvtri.polytope import HalfSpace
from sylvtri.witness import RegularityWitness

import oracles
from test_subdivision import build_level2, segment_triangulation


def test_verify_regularity_1d():
    s = segment_triangulation()
    assert wt.verify_regularity(s, RegularityWitness((1, 0, 1))).regular
    rep = wt.verify_regularity(s, RegularityWitness((0, 0, 0)))
    assert not rep.regular and rep.violating_pairs


def test_verify_regularity_report_pinned():
    # a raised corner breaks convexity at 51+ pairs; the report keeps the
    # first 51 in (cell, store point) order, with exact margins
    art = pipeline.triangulate_p2dual(3)
    vals = list(art.witness.values)
    vals[0] += 10**6
    rep = wt.verify_regularity(art.triangulation, RegularityWitness(tuple(vals)))
    assert not rep.regular
    assert len(rep.violating_pairs) == 51
    assert rep.violating_pairs[0] == (
        (0, 1, 12, 22),
        (-1, 0, -1),
        Fraction(-98303999869, 24576),
    )


def test_witness_length_mismatch():
    s = segment_triangulation()
    with pytest.raises(DimensionMismatch):
        wt.verify_regularity(s, RegularityWitness((1, 0)))


def test_scaling_preserves_verdict():
    s = segment_triangulation()
    w = RegularityWitness((1, 0, 1))
    assert wt.verify_regularity(s, w.scaled(17)).regular
    with pytest.raises(DomainError):
        w.scaled(0)


def test_witness_pullback_column_constancy():
    base = segment_triangulation()
    w = RegularityWitness((1, 0, 1))
    pb, _, _ = build_level2()
    lifted = wt.witness_pullback(w, base, pb)
    by_column = {}
    for p, v in zip(pb.points, lifted.values):
        by_column.setdefault(p[0], set()).add(v)
    assert all(len(vals) == 1 for vals in by_column.values())
    # bottom-face values equal base values
    idx = pb.index
    assert lifted.values[idx[(-1, -1)]] == 1
    assert lifted.values[idx[(0, -1)]] == 0
    assert oracles.check_intermediate(pb, lifted).regular


def test_witness_pullback_missing_base_point():
    base = segment_triangulation()
    w = RegularityWitness((1, 0, 1))
    stray = sd.make_subdivision(
        [(5, 0), (5, 1)], [(5, 0), (5, 1)], [[(5, 0), (5, 1)]]
    )
    with pytest.raises(DomainError):
        wt.witness_pullback(w, base, stray)


def test_witness_cone_free_omega():
    base = sd.make_subdivision(
        [(-1, 0), (0, 0), (1, 0)],
        [(-1, 0), (1, 0)],
        [[(-1, 0), (0, 0)], [(0, 0), (1, 0)]],
        simplicial=True,
    )
    w = RegularityWitness((1, 0, 1))
    cone = sd.cone_subdivision((0, 1), base)
    for omega in (-5, 0, 7):
        wc = wt.witness_cone(w, base, cone, (0, 1), omega)
        assert len(wc.values) == 4
        assert wc.value_at(cone, (0, 1)) == omega
        assert oracles.check_intermediate(cone, wc).regular


def test_witness_cone_rejects_interior_store_points():
    base = sd.make_subdivision(
        [(0, 0), (2, 0)], [(0, 0), (2, 0)], [[(0, 0), (2, 0)]], simplicial=True
    )
    w = RegularityWitness((0, 0))
    apex = (0, 2)
    bloated = sd.make_subdivision(
        [(0, 0), (2, 0), (0, 2), (1, 1)],
        [(0, 0), (2, 0), (0, 2)],
        [[(0, 0), (2, 0), (0, 2)]],
    )
    with pytest.raises(UnsupportedStore):
        wt.witness_cone(w, base, bloated, apex)


def test_witness_glue_omega_exceeds_all_interpolants():
    pb, cone, glued = build_level2()
    base = segment_triangulation()
    w_pb = wt.witness_pullback(RegularityWitness((1, 0, 1)), base, pb)
    z = (-1, 2)
    w_glued, omega = wt.witness_glue(w_pb, pb, glued, z)
    assert omega == 1 + max(
        oracles.cell_interpolant(pb, c, w_pb)(z) for c in pb.cells
    )
    assert oracles.check_intermediate(glued, w_glued).regular


def test_witness_glue_too_small_omega_fails():
    pb, cone, glued = build_level2()
    base = segment_triangulation()
    w_pb = wt.witness_pullback(RegularityWitness((1, 0, 1)), base, pb)
    z = (-1, 2)
    w_glued, omega = wt.witness_glue(w_pb, pb, glued, z)
    low = list(w_glued.values)
    low[glued.index[z]] = omega - 2  # below the max of the cell interpolants
    assert not oracles.check_intermediate(glued, RegularityWitness(tuple(low))).regular


def test_witness_pull_1d_example():
    s = sd.make_subdivision([(-1,), (0,), (1,)], [(-1,), (1,)], [[(-1,), (1,)]])
    w = RegularityWitness((1, 1, 1))
    s2, w2, eps = oracles.witness_pull(w, s, 1)
    assert [s2.cell_points(c) for c in s2.cells] == [
        ((-1,), (0,)),
        ((0,), (1,)),
    ]
    assert eps == 1
    assert wt.verify_regularity(s2, w2).regular
    # locality: only the pulled value changed
    assert w2.values[0] == 1 and w2.values[2] == 1


def test_witness_pull_at_vertex_preserves_regularity():
    s = segment_triangulation()
    w = RegularityWitness((1, 0, 1))
    s2, w2, eps = oracles.witness_pull(w, s, 0)
    assert s2.cells == s.cells
    assert wt.verify_regularity(s2, w2).regular


def test_pull_sweep_certifies_level2():
    _, _, glued = build_level2()
    base = segment_triangulation()
    w_pb = wt.witness_pullback(
        RegularityWitness((1, 0, 1)), base, build_level2()[0]
    )
    w_glued, _ = wt.witness_glue(w_pb, build_level2()[0], glued, (-1, 2))
    tri, w_tri, log = wt.pull_sweep(glued, w_glued)
    assert len(tri.cells) == 6
    assert wt.verify_regularity(tri, w_tri).regular
    assert [p for p, _ in log] == list(glued.points)


def test_pull_sweep_matches_iterated_witness_pull():
    _, _, glued = build_level2()
    base = segment_triangulation()
    pb = build_level2()[0]
    w_pb = wt.witness_pullback(RegularityWitness((1, 0, 1)), base, pb)
    w_glued, _ = wt.witness_glue(w_pb, pb, glued, (-1, 2))
    tri, w_tri, log = wt.pull_sweep(glued, w_glued)
    cur, wcur = glued, w_glued
    for i in range(len(glued.points)):
        cur, wcur, eps = oracles.witness_pull(wcur, cur, i)
        assert eps == log[i][1]
    assert cur.cell_point_sets() == tri.cell_point_sets()
    assert wcur.values == w_tri.values


def test_negative_monotonicity_detected():
    # raising a shared vertex breaks convexity; so does sinking an interior
    # point below its incident interpolants
    s = segment_triangulation()
    bad = RegularityWitness((1, 2, 1))
    assert not wt.verify_regularity(s, bad).regular
    single = sd.make_subdivision(
        [(-1,), (0,), (1,)], [(-1,), (1,)], [[(-1,), (1,)]]
    )
    sunk = RegularityWitness((1, Fraction(-1), 1))
    assert not oracles.check_intermediate(single, sunk).regular


def test_transport_through_lattice_map():
    tri = segment_triangulation()
    w = RegularityWitness((1, 0, 1))
    mapped = sd.apply_lattice_map(tri, [[-1]], [3])
    w2 = wt.remap_witness(w, tri, mapped, lambda p: (3 - p[0],))
    assert wt.verify_regularity(mapped, w2).regular


def _solve_bary(verts, p):
    """Oracle barycentric coordinates of p by one exact solve."""
    rows = [[v[k] for v in verts] for k in range(len(p))] + [[1] * len(verts)]
    return exact.solve(rows, list(p) + [1])


def test_pull_sweep_point_location_matches_solve():
    # on a level-3 store: the sweep's integer inverse locates every store
    # point exactly where barycentric coordinates from exact.solve do
    tri = pipeline.triangulate_p2dual(3).triangulation
    located = 0
    for c in tri.cells:
        verts = tri.cell_points(c)
        adj, d = polytope.simplex_inverse(verts)
        assert d == 1  # unimodular cells
        for p in tri.points:
            want = _solve_bary(verts, p)
            nums = [wt._row_at(row, p) for row in adj]
            assert [Fraction(x, d) for x in nums] == want
            if min(nums) >= 0:
                located += 1
    # each point lies in its star's cells, vertices included
    assert located == sum(len(c) for c in tri.cells)


def _level3_glue():
    """The level-3 column pullback, its witness, the glue and its apex."""
    prev = pipeline.triangulate_p2dual(2)
    h = lambda y: family.hyperplane_height(3, y)
    clipped = [p for p in family.lattice_points_p2dual(3) if p[-1] <= h(p[:-1])]
    pb = sd.pullback_restricted(prev.triangulation, h, clipped)
    w_pb = wt.witness_pullback(prev.witness, prev.triangulation, pb)
    half = pipeline._clip_hyperplane(3)
    z = (-1, -1, family.sylvester(2) - 1)
    cone = sd.cone_subdivision(
        z,
        sd.restrict_to_hyperplane(
            pb, half, [v for v in pb.ambient if half.eval(v) == 0]
        ),
    )
    return pb, w_pb, sd.glue(pb, cone), z


def test_pyramid_inverse_matches_direct_inverse():
    # on the level-3 glued store the sweep starts from: replacing vertex j
    # of a simplex cell by any store point m with a positive coordinate
    # there, the derived inverse equals a fresh one
    _, _, glued, _ = _level3_glue()
    checked = 0
    for c in glued.cells:
        verts = glued.cell_points(c)
        if len(verts) != len(verts[0]) + 1:
            continue
        adj, d = polytope.simplex_inverse(verts)
        for m in glued.points:
            if m in verts:
                continue
            lam = [wt._row_at(row, m) for row in adj]
            assert [Fraction(x, d) for x in lam] == _solve_bary(verts, m)
            for j, lj in enumerate(lam):
                if lj > 0:
                    child = verts[:j] + (m,) + verts[j + 1 :]
                    assert (wt._pyramid_inverse(adj, d, lam, j), lj) == (
                        polytope.simplex_inverse(child)
                    )
                    checked += 1
    assert checked > 0


def test_drop_matches_fraction_arithmetic():
    # the sweep's integer update A0 - eps * Lam lands in the lowest terms
    # AffineFunctional computes from its Fraction data
    a0 = exact.AffineFunctional((Fraction(3, 4), Fraction(-5, 6)), Fraction(7, 10))
    lam = exact.AffineFunctional((Fraction(2, 5), Fraction(-1, 5)), Fraction(3, 5))
    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 2**40), Fraction(3, 7)):
        want = exact.AffineFunctional(
            tuple(a - eps * b for a, b in zip(a0.coeffs, lam.coeffs)),
            a0.constant - eps * lam.constant,
        )
        got = wt._drop((a0.row, a0.denominator), (lam.row, lam.denominator), eps)
        assert got == (want.row, want.denominator)


def _agree(s, w):
    """The integer check's report equals the Fraction oracle's, exactly."""
    got = wt.verify_regularity(s, w)
    assert got == oracles.verify_regularity_fraction(s, w)
    return got


def test_verify_regularity_matches_fraction_oracle_on_pipeline_levels():
    for n in (1, 2, 3):
        for art in (
            pipeline.triangulate_p2dual(n),
            pipeline.triangulate_p2(n),
            pipeline.triangulate_p1(n + 1),
        ):
            assert _agree(art.triangulation, art.witness).regular


def test_verify_regularity_matches_fraction_oracle_on_perturbations():
    rng = random.Random(20261018)
    arts = [pipeline.triangulate_p2dual(3), pipeline.triangulate_p2(2),
            pipeline.triangulate_p1(3)]
    verdicts = set()
    for trial in range(60):
        art = arts[trial % len(arts)]
        t, vals = art.triangulation, list(art.witness.values)
        if trial % 2:
            # raise or lower one height by a random rational
            pi = rng.randrange(len(vals))
            delta = Fraction(rng.randint(1, 10**6), rng.choice((1, 3, 2**20)))
            vals[pi] += delta if rng.random() < 0.5 else -delta
            s = t
        else:
            # replace one cell vertex by another store point
            cells = list(t.cells)
            k = rng.randrange(len(cells))
            j = rng.randrange(len(cells[k]))
            q = rng.choice([i for i in range(len(t.points)) if i not in cells[k]])
            cells[k] = tuple(sorted(cells[k][:j] + (q,) + cells[k][j + 1 :]))
            s = sd.Triangulation(t.points, t.ambient, tuple(cells))
            if exact.affine_rank(s.cell_points(cells[k])) < s.ambient_dim:
                continue
        verdicts.add(_agree(s, RegularityWitness(tuple(vals))).regular)
    assert verdicts == {True, False}


def test_verify_regularity_matches_fraction_oracle_on_polytopal_cells():
    # the level-3 glued store pull_sweep starts from: column cells and
    # simplices, with the glue witness and perturbations of it at points
    # that are vertices of no cell (so each cell stays affine)
    pb, w_pb, glued, z = _level3_glue()
    w_glued, _ = wt.witness_glue(w_pb, pb, glued, z)
    assert any(len(c) > glued.ambient_dim + 1 for c in glued.cells)
    _agree(pb, w_pb)
    _agree(glued, w_glued)
    free = sorted(set(range(len(glued.points))) - {i for c in glued.cells for i in c})
    assert free
    rng = random.Random(7)
    for _ in range(10):
        vals = list(w_glued.values)
        pi = rng.choice(free)
        vals[pi] += Fraction(rng.randint(-50, 50), rng.choice((1, 7, 64)))
        _agree(glued, RegularityWitness(tuple(vals)))
    # one random polytope as a single cell, heights affine on its vertices
    for dim in (1, 2, 3):
        s = oracles.random_polytope_subdivision(rng, dim)
        coeffs = [rng.randint(-3, 3) for _ in range(dim)]
        vals = [
            sum(a * x for a, x in zip(coeffs, p))
            + (0 if p in s.ambient else Fraction(rng.randint(-2, 2), 3))
            for p in s.points
        ]
        _agree(s, RegularityWitness(tuple(vals)))


def test_verify_regularity_rejects_degenerate_cell():
    pts = [(0, 0), (0, 1), (1, 0), (2, 0)]
    # the second cell's vertices are collinear
    flat = sd.Triangulation(
        tuple(pts), tuple(pts[:2] + pts[3:]), ((0, 1, 3), (0, 2, 3))
    )
    w = RegularityWitness((0, 1, 0, 1))
    for check in (wt.verify_regularity, oracles.verify_regularity_fraction):
        with pytest.raises(DegenerateGeometry):
            check(flat, w)
