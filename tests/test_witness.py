"""Regularity witness tests: certificates through every constructor."""

import hashlib
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylvtri import (
    exact, invariants, pipeline, polytope, subdivision as sd, witness as wt,
)
from sylvtri.errors import (
    DegenerateGeometry,
    DimensionMismatch,
    DomainError,
    VerificationFailure,
)
from sylvtri.family import Family
from sylvtri.witness import RegularityWitness

import oracles
from test_subdivision import (
    SHEAR,
    apex,
    lattice_image,
    off_apex,
    pre_sweep,
    segment_triangulation,
)


def test_verify_regularity_1d():
    s = segment_triangulation()
    assert wt.verify_regularity(s, RegularityWitness((1, 0, 1))).regular
    rep = wt.verify_regularity(s, RegularityWitness((0, 0, 0)))
    assert not rep.regular and rep.violating_pairs


def test_witness_keeps_fractions_and_converts_the_rest():
    half = Fraction(1, 2)
    w = RegularityWitness((half, 3, "-5/4"))
    assert w.values == (half, Fraction(3), Fraction(-5, 4))
    assert w.values[0] is half
    assert all(type(v) is Fraction for v in w.values)


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


def _form(verts, heights):
    """The interpolant half of polytope.volume_form."""
    return polytope.volume_form(verts, heights)[1]


def _hull_form(verts, heights):
    """The interpolant half of polytope.hull."""
    return polytope.hull(verts, heights)[1]


def check_polytopal_cell_form(data, dim):
    """d + 2 to 2d distinct points with affine integer heights: hull's
    form is the oracle's; a height moved off it, or the points flattened
    onto a hyperplane, is refused."""
    coord = st.integers(min_value=-4, max_value=4)
    k = data.draw(st.integers(min_value=dim + 2, max_value=2 * dim))
    point = st.tuples(*[coord] * dim)
    verts = data.draw(st.lists(point, min_size=k, max_size=k, unique=True))
    affine = data.draw(st.lists(st.integers(-5, 5), min_size=dim + 1, max_size=dim + 1))
    heights = [polytope.row_at(affine, v) for v in verts]
    c = data.draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
    flat = [(*v[:-1], polytope.row_at(c, v[:-1])) for v in verts]
    with pytest.raises(DegenerateGeometry):
        _hull_form(flat, heights)
    if exact.affine_rank(verts) < dim:
        with pytest.raises(DegenerateGeometry):
            _hull_form(verts, heights)
        return
    store = tuple(sorted(verts))
    s = sd.Subdivision(store, store, (tuple(range(k)),))
    w = RegularityWitness(tuple(heights[verts.index(p)] for p in store))
    fn = oracles.cell_interpolant(s, s.cells[0], w)
    row, den = _hull_form(verts, heights)
    assert den > 0 and all(type(x) is int for x in row)
    assert tuple(Fraction(x, den) for x in row[:-1]) == fn.coeffs
    assert Fraction(row[-1], den) == fn.constant
    i = data.draw(st.integers(min_value=0, max_value=k - 1))
    if exact.affine_rank(verts[:i] + verts[i + 1 :]) == dim:  # the others fix it
        bent = list(heights)
        bent[i] += data.draw(st.integers(min_value=1, max_value=5))
        with pytest.raises(DegenerateGeometry):
            _hull_form(verts, bent)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_cell_form_matches_fraction_interpolant(data):
    # random integer simplices in dimensions 1-5, in both orientations, and
    # in dimensions 2-4 random polytopal point sets
    dim = data.draw(st.integers(min_value=1, max_value=5))
    if 2 <= dim <= 4:
        check_polytopal_cell_form(data, dim)
    coord = st.integers(min_value=-4, max_value=4)
    verts = [
        tuple(data.draw(st.lists(coord, min_size=dim, max_size=dim)))
        for _ in range(dim + 1)
    ]
    heights = data.draw(
        st.lists(st.integers(-50, 50), min_size=dim + 1, max_size=dim + 1)
    )
    flipped = [verts[1], verts[0], *verts[2:]]
    flipped_heights = [heights[1], heights[0], *heights[2:]]
    if exact.affine_rank(verts) < dim:
        for vs, hs in ((verts, heights), (flipped, flipped_heights)):
            with pytest.raises(DegenerateGeometry):
                _form(vs, hs)
        return
    store = tuple(sorted(verts))
    s = sd.Subdivision(store, store, (tuple(range(dim + 1)),))
    w = RegularityWitness(tuple(heights[verts.index(p)] for p in store))
    fn = oracles.cell_interpolant(s, s.cells[0], w)
    for vs, hs in ((verts, heights), (flipped, flipped_heights)):
        row, den = _form(vs, hs)
        assert den > 0 and all(type(x) is int for x in row)
        assert tuple(Fraction(x, den) for x in row[:-1]) == fn.coeffs
        assert Fraction(row[-1], den) == fn.constant
    # the last vertex moved onto the first, or onto the line through the
    # first two
    moved = [verts[0]]
    if dim > 1:
        moved.append(tuple(2 * b - a for a, b in zip(verts[0], verts[1])))
    for last in moved:
        with pytest.raises(DegenerateGeometry):
            _form([*verts[:-1], last], heights)


def _raised(call):
    """(type, message) of what call raises, or None."""
    try:
        call()
    except Exception as e:  # compared, not swallowed
        return type(e), str(e)
    return None


def _homogeneous_solve(verts, heights):
    """The form solved on the rows (v_k, 1), an equation per vertex."""
    return oracles.integer_solve([(*v, 1) for v in verts], heights)


def _kernel_agrees(s, c, heights, scale, w):
    """One cell's volume_form equals signed_nvol and the solve on the rows
    (v_k, 1) and, over the common scale, the Fraction oracle's
    interpolant."""
    verts, hs = s.cell_points(c), [heights[i] for i in c]
    det, (row, den) = polytope.volume_form(verts, hs)
    assert det == polytope.signed_nvol(verts)
    assert (row, den) == _homogeneous_solve(verts, hs)
    fn = oracles.cell_interpolant(s, c, w)
    assert [Fraction(x, den * scale) for x in row] == [*fn.coeffs, fn.constant]


def test_volume_form_matches_det_and_solve_on_artifacts():
    # every cell of the twelve benchmark artifacts, dimensions 1-5
    for fam, levels in (("p2dual", (1, 2, 3, 4)), ("p2", (1, 2, 3, 4)),
                        ("p1", (2, 3, 4, 5))):
        for n in levels:
            art = pipeline.triangulate(pipeline.Family(fam), n)
            t, w = art.triangulation, art.witness
            heights, scale = wt._common_scale(w)
            for c in t.cells:
                _kernel_agrees(t, c, heights, scale, w)


def test_volume_form_matches_det_and_solve_on_random_simplices():
    # seeded integer simplices in dimensions 1-5 with ~300-bit heights, in
    # two vertex orders; a flat one is refused by every side
    rng = random.Random(31)
    flat = 0
    for trial in range(200):
        dim = 1 + trial % 5
        verts = [tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(dim + 1)]
        if trial % 7 == 6:
            # the last vertex onto the first, or onto the line through the
            # first two
            a, b = verts[0], verts[1]
            verts[-1] = a if dim == 1 else tuple(2 * y - x for x, y in zip(a, b))
        heights = [rng.randrange(-(2**300), 2**300) for _ in verts]
        if exact.affine_rank(verts) < dim:
            flat += 1
            for kernel in (
                lambda: polytope.volume_form(verts, heights),
                lambda: polytope.signed_nvol(verts),
                lambda: _homogeneous_solve(verts, heights),
            ):
                with pytest.raises(DegenerateGeometry):
                    kernel()
            assert _raised(lambda: polytope.volume_form(verts, heights)) == _raised(
                lambda: _homogeneous_solve(verts, heights)
            )
            continue
        store = tuple(sorted(verts))
        s = sd.Subdivision(store, store, (tuple(range(dim + 1)),))
        stored = [heights[verts.index(p)] for p in store]
        _kernel_agrees(s, s.cells[0], stored, 1, RegularityWitness(tuple(stored)))
        det, form = polytope.volume_form(verts, heights)
        assert (det, form) == (
            polytope.signed_nvol(verts), _homogeneous_solve(verts, heights)
        )
    assert flat >= 28


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cell_form_on_polytopal_glued_starts(n):
    # the level-n start's columns are polytopal cells: hull's form is the
    # Fraction interpolant at every store point, and volume_form's on a
    # simplex; a flat cell and a height moved off the affine map raise
    # what the solve on the rows (v_k, 1) raises.  Too few vertices span
    # no d-simplex for hull, and lack equations for volume_form and that
    # solve alike
    s, w = pre_sweep(n)
    heights, scale = wt._common_scale(w)
    dim = s.ambient_dim
    polytopal = 0
    for c in s.cells:
        verts, hs = s.cell_points(c), [heights[i] for i in c]
        row, den = _hull_form(verts, hs)
        assert den > 0 and all(type(x) is int for x in row)
        if len(c) == dim + 1:
            assert (row, den) == _form(verts, hs)
        fn = oracles.cell_interpolant(s, c, w)
        for p in s.points:
            assert Fraction(polytope.row_at(row, p), den * scale) == fn(p)
        flat = [(*v[:-1], 0) for v in verts]
        cases = [(flat, hs, DegenerateGeometry)]
        if exact.affine_rank(verts[1:]) == dim:  # the others fix the form
            polytopal += 1
            cases.append((verts, [hs[0] + 1, *hs[1:]], DegenerateGeometry))
        for vs, xs, kind in cases:
            got = _raised(lambda: _hull_form(vs, xs))
            assert got is not None and got[0] is kind
            assert got == _raised(lambda: _homogeneous_solve(vs, xs))
        for vs, xs in ((verts[:k], hs[:k]) for k in (1, dim)):
            got = _raised(lambda: _hull_form(vs, xs))
            assert got == (DegenerateGeometry, "singular linear system")
            got = _raised(lambda: _form(vs, xs))
            assert got is not None and got[0] is DimensionMismatch
            assert got == _raised(lambda: _homogeneous_solve(vs, xs))
    assert polytopal > 0


@pytest.mark.parametrize("dim", range(1, exact._KERNEL_MAX_DIM + 2))
def test_volume_form_takes_simplices_only(dim):
    # on both sides of the kernel cap: the unit simplex is solved, one
    # more vertex makes a polytopal cell, which is refused, and at most d
    # vertices keep the message of the solve on the rows (v_k, 1)
    verts = [(0,) * dim, *(tuple(int(i == j) for j in range(dim)) for i in range(dim))]
    heights = list(range(3, 3 + dim + 1))
    det, form = polytope.volume_form(verts, heights)
    assert det == polytope.signed_nvol(verts)
    assert form == _homogeneous_solve(verts, heights)
    got = _raised(lambda: polytope.volume_form([*verts, (1,) * dim], [*heights, 0]))
    assert got is not None and got[0] is DimensionMismatch
    for k in range(1, dim + 1):
        got = _raised(lambda: polytope.volume_form(verts[:k], heights[:k]))
        assert got == (
            DimensionMismatch, "solve requires k >= n equations in n unknowns"
        )
        assert got == _raised(lambda: _homogeneous_solve(verts[:k], heights[:k]))


def test_verify_regularity_refuses_polytopal_cells():
    # the level-3 glued start, columns and simplices: no Triangulation, so
    # refused before any proof or scan
    glued, w = pre_sweep(3)
    assert any(len(c) > glued.ambient_dim + 1 for c in glued.cells)
    assert not isinstance(glued, sd.Triangulation)
    with pytest.raises(DimensionMismatch, match="simplicial cells"):
        wt.verify_regularity(glued, w)


def test_pull_sweep_refuses_a_column_height_off_its_form():
    # a vertex height of a level-3 column moved off the affine map the
    # column's other vertices fix: its start hull call refuses it
    s, w = pre_sweep(3)
    dim = s.ambient_dim
    c = next(c for c in s.cells if len(c) > dim + 1)
    i = next(
        i for i in c
        if exact.affine_rank([s.points[j] for j in c if j != i]) == dim
    )
    vals = list(w.values)
    vals[i] += 1
    with pytest.raises(DegenerateGeometry, match="inconsistent linear system"):
        wt.pull_sweep(s, RegularityWitness(tuple(vals)))


def _volumes_until_flat(t):
    """signed_nvol of each cell in order, up to the first flat one."""
    dets = []
    for c in t.cells:
        try:
            dets.append(polytope.signed_nvol(t.cell_points(c)))
        except DegenerateGeometry:
            break
    return dets


def _fused_pass(t, w):
    """verify with the heights gives verify's report, its checksum the sum
    of signed_nvol's up to the first flat cell and its facets of three or
    more cells facet_join's, in order; returns those volumes and the wall
    verdict, which verify without heights leaves None."""
    got, plain = sd.verify(t, wt._common_scale(w)[0]), sd.verify(t)
    assert got == plain and plain.convex is None
    assert got.first_non_unimodular == plain.first_non_unimodular
    dets = _volumes_until_flat(t)
    whole = len(dets) == len(t.cells)
    assert got.volume_checksum == (sum(map(abs, dets)) if whole else None)
    crowded = [
        f"facet {key} shared by {len(on)} cells"
        for key, on in sd.facet_join(t.cells).items()
        if len(on) > 2
    ]
    assert [f for f in got.failures if " shared by " in f] == crowded
    return dets, got.convex


def test_fused_pass_on_artifacts():
    # the twelve benchmark artifacts: every wall strictly convex
    for fam, levels in (("p2dual", (1, 2, 3, 4)), ("p2", (1, 2, 3, 4)),
                        ("p1", (2, 3, 4, 5))):
        for n in levels:
            art = pipeline.triangulate(pipeline.Family(fam), n)
            t = art.triangulation
            dets, convex = _fused_pass(t, art.witness)
            assert len(dets) == len(t.cells) and convex is True


def test_fused_pass_on_tampered_level3():
    art = pipeline.triangulate_p2dual(3)
    t, w = art.triangulation, art.witness
    # the first cell listed twice: three facets of three cells.  Its
    # boundary facet never enters the pairing map, so no wall is tested
    # there and convex stays True; the checksum refuses the proof, and
    # convex is read only when the proof is valid
    doubled = sd.Triangulation(t.points, t.ambient, t.cells + t.cells[:1])
    dets, convex = _fused_pass(doubled, w)
    assert len(dets) == len(doubled.cells) and convex is True
    assert max(map(len, sd.facet_join(doubled.cells).values())) == 3
    _agree(doubled, w)
    # a coplanar cell first or mid-list: the volumes stop there and the
    # join is still complete
    for at in (0, 20):
        cells = list(t.cells)
        cells[at] = (0, 1, 2, 8)
        flat = sd.Triangulation(t.points, t.ambient, tuple(cells))
        dets, convex = _fused_pass(flat, w)
        assert len(dets) == at and convex is False
        assert not wt.verify_regularity(flat, w).regular
    # a raised height bends a wall; the volumes are read on to the end
    vals = list(w.values)
    vals[5] += 1000
    raised = RegularityWitness(tuple(vals))
    dets, convex = _fused_pass(t, raised)
    assert len(dets) == len(t.cells) and convex is False
    _agree(t, raised)


def test_verify_regularity_builds_one_join(monkeypatch):
    # verify's one loop pairs the facets and eliminates each cell once,
    # and neither it nor the fan builds the whole join on an accepted
    # artifact; a refused one builds it once, for verify's census, and
    # an input verify refuses outright runs no volume_form in it (the
    # scan then solves each cell)
    art = pipeline.triangulate_p2dual(3)
    calls = []
    join, form, proof = sd.facet_join, polytope.volume_form, sd.verify

    def verify(*args):
        calls.append("verify")
        report = proof(*args)
        calls.append("verified")
        return report

    monkeypatch.setattr(sd, "facet_join", lambda cells: calls.append("join") or join(cells))
    monkeypatch.setattr(polytope, "volume_form", lambda *a: calls.append("form") or form(*a))
    monkeypatch.setattr(sd, "verify", verify)
    assert wt.verify_regularity(art.triangulation, art.witness).regular
    assert calls == ["verify", *["form"] * len(art.triangulation.cells), "verified"]
    calls.clear()
    assert invariants.fan_from_triangulation(art).complete and calls == []
    # every cell twice: the pairing refuses it, and the census names why
    t = art.triangulation
    doubled = sd.Triangulation(t.points, t.ambient, t.cells + t.cells)
    rep = wt.verify_regularity(doubled, art.witness)
    assert not rep.structure.valid and calls.count("join") == 1
    assert calls.index("join") < calls.index("verified")
    calls.clear()
    # the fan pairs its ridges, incomplete or not: no whole join either
    holed = sd.Triangulation(t.points, t.ambient, t.cells[1:])
    fan = invariants.fan_from_triangulation(replace(art, triangulation=holed))
    assert not fan.complete and calls == []
    sq = [(0, 0), (1, 0), (0, 1), (1, 1)]
    square = sd.make_subdivision(
        sq, sq, [[(0, 0), (1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)]]
    )
    rep = wt.verify_regularity(square, RegularityWitness((0, 0, 0, 1)))
    assert rep.structure.failures == ["ambient is not a simplex: 4 points span dimension 2"]
    assert rep.regular and calls == ["verify", "verified", "form", "form"]


def test_witness_length_mismatch():
    s = segment_triangulation()
    with pytest.raises(DimensionMismatch):
        wt.verify_regularity(s, RegularityWitness((1, 0)))


def test_scaling_preserves_verdict():
    s = segment_triangulation()
    w = RegularityWitness(tuple(17 * v for v in (1, 0, 1)))
    assert wt.verify_regularity(s, w).regular


def test_witness_pullback_column_constancy():
    # a level's starting witness is w_prev(y) at every column point (y, t)
    for n in (2, 3):
        glued, w = pre_sweep(n)
        prev = pipeline.triangulate_p2dual(n - 1)
        for p, v in zip(glued.points, w.values):
            if p != apex(n):
                assert v == prev.witness.values[prev.triangulation.index[p[:-1]]]
        assert oracles.check_intermediate(glued, w).regular


def test_witness_glue_omega_exceeds_all_interpolants():
    # the closed-form apex height 1 + w_prev(y0) is one more than the
    # largest column interpolant at the apex, and certifies the glue
    for n in (2, 3):
        glued, w = pre_sweep(n)
        z = apex(n)
        columns = off_apex(glued, z)
        assert w.values[glued.index[z]] == 1 + max(
            oracles.cell_interpolant(columns, c, w)(z) for c in columns.cells
        )
        assert oracles.check_intermediate(glued, w).regular


def test_witness_glue_too_small_omega_fails():
    glued, w = pre_sweep(2)
    low = list(w.values)
    low[glued.index[apex(2)]] -= 2  # below the max of the cell interpolants
    assert not oracles.check_intermediate(glued, RegularityWitness(tuple(low))).regular


TOO_SMALL_OMEGA = {
    2: "(-1, -1): cell (2, 3, 5) across facet [2, 5] has margin -2",
    3: "(-1, -1, -1): cell (6, 7, 12, 22) across facet [6, 12, 22] has margin -6",
    4: "(-1, -1, -1, -1): cell (42, 43, 256, 261, 351) "
    "across facet [42, 256, 261, 351] has margin -42",
}


@pytest.mark.parametrize("n", sorted(TOO_SMALL_OMEGA))
def test_pull_sweep_refuses_a_too_small_omega(n):
    # the apex height lowered by 2 bends the walls between the cone
    # simplices and the polytopal columns: the first pull's bound, read
    # off the cone simplex across the facet opposite the pulled point, is
    # not positive, and the error names that margin
    glued, w = pre_sweep(n)
    low = list(w.values)
    low[glued.index[apex(n)]] -= 2
    with pytest.raises(DomainError) as err:
        wt.pull_sweep(glued, RegularityWitness(tuple(low)))
    want = f"witness is not convex before the pull at store point {TOO_SMALL_OMEGA[n]}"
    assert str(err.value) == want


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
    glued, w_glued = pre_sweep(2)
    tri, w_tri, log = wt.pull_sweep(glued, w_glued)
    assert len(tri.cells) == 6
    assert wt.verify_regularity(tri, w_tri).regular
    assert [p for p, _ in log] == list(glued.points)


@pytest.mark.parametrize("n", [2, 3])
def test_pull_sweep_matches_iterated_witness_pull(n):
    # before each pull every cell holding m gives it the same interpolant
    # value, w(m) at a vertex, so pull_sweep may read phi_m off any one
    glued, w_glued = pre_sweep(n)
    tri, w_tri, log = wt.pull_sweep(glued, w_glued)
    cur, wcur = glued, w_glued
    for i, m in enumerate(glued.points):
        values = {
            oracles.cell_interpolant(cur, c, wcur)(m)
            for c in cur.cells
            if i in c
            or oracles.contains(oracles.CellPolytope(cur.cell_points(c)), m)
            is not oracles.Membership.OUTSIDE
        }
        assert len(values) == 1
        if any(i in c for c in cur.cells):
            assert values == {wcur.values[i]}
        cur, wcur, eps = oracles.witness_pull(wcur, cur, i)
        assert eps == log[i][1]
    assert oracles.cell_point_sets(cur) == oracles.cell_point_sets(tri)
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
    art = pipeline.triangulate_p2dual(2)
    tri = art.triangulation
    mapped = lattice_image(tri, SHEAR)
    # each image q = (x, x + y) keeps the height of its preimage (x, y)
    w2 = RegularityWitness(
        tuple(art.witness.values[tri.index[(q[0], q[1] - q[0])]] for q in mapped.points)
    )
    assert wt.verify_regularity(mapped, w2).regular


def _solve_bary(verts, p):
    """Oracle barycentric coordinates of p by one exact solve."""
    rows = [[v[k] for v in verts] for k in range(len(p))] + [[1] * len(verts)]
    return oracles.solve(rows, list(p) + [1])


def test_pull_sweep_point_location_matches_solve():
    # on a level-3 store: the sweep's integer inverse locates every store
    # point exactly where barycentric coordinates from one exact solve do
    tri = pipeline.triangulate_p2dual(3).triangulation
    located = 0
    for c in tri.cells:
        verts = tri.cell_points(c)
        adj, d = polytope.simplex_inverse(verts)
        assert d == 1  # unimodular cells
        for p in tri.points:
            want = _solve_bary(verts, p)
            nums = [polytope.row_at(row, p) for row in adj]
            assert [Fraction(x, d) for x in nums] == want
            if min(nums) >= 0:
                located += 1
    # each point lies in its star's cells, vertices included
    assert located == sum(len(c) for c in tri.cells)


def test_drop_matches_fraction_arithmetic():
    # the sweep's integer update A0 - eps * Lam, the generated drop of
    # exact._row_kernel, lands in the lowest terms AffineFunctional
    # computes from its Fraction data
    drop = exact._row_kernel(2)[2]
    a0 = oracles.AffineFunctional((Fraction(3, 4), Fraction(-5, 6)), Fraction(7, 10))
    lam = oracles.AffineFunctional((Fraction(2, 5), Fraction(-1, 5)), Fraction(3, 5))
    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 2**40), Fraction(3, 7)):
        want = oracles.AffineFunctional(
            tuple(a - eps * b for a, b in zip(a0.coeffs, lam.coeffs)),
            a0.constant - eps * lam.constant,
        )
        got = drop(a0.row, a0.denominator, lam.row, lam.denominator, *eps.as_integer_ratio())
        assert got == (want.row, want.denominator)


def _agree(s, w):
    """The integer check's report equals the Fraction oracle's, exactly,
    and carries the structural proof of s."""
    got = wt.verify_regularity(s, w)
    assert got == oracles.verify_regularity_fraction(s, w)
    assert got.structure == sd.verify(s)
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


PERTURBATIONS = [
    sign * x
    for x in (Fraction(1, 2**60), Fraction(1, 2**20), Fraction(1, 3), 1, 10**6)
    for sign in (1, -1)
]


def perturbed_reports(art, points):
    """verify_regularity's (regular, violating_pairs) on the artifact with
    the heights of `points` seeded store points moved, one at a time, by
    each of PERTURBATIONS, and the witnesses it ran on."""
    t, vals = art.triangulation, art.witness.values
    rng = random.Random(len(t.points))
    out = []
    for pi in rng.sample(range(len(t.points)), points):
        for delta in PERTURBATIONS:
            moved = RegularityWitness(vals[:pi] + (vals[pi] + delta,) + vals[pi + 1 :])
            rep = wt.verify_regularity(t, moved)
            out.append((moved, rep.regular, rep.violating_pairs))
    return out


def test_wall_verdicts_match_fraction_oracle_on_perturbations():
    # levels 2 and 3 against the Fraction oracle; level 4 and p1 at level
    # 5, too large for it, against digests of the reports that the
    # certificate gave with a determinant and a solve per cell
    verdicts = set()
    for art in (pipeline.triangulate_p2dual(2), pipeline.triangulate_p2dual(3)):
        for w, regular, pairs in perturbed_reports(art, 4):
            want = oracles.verify_regularity_fraction(art.triangulation, w)
            assert (regular, pairs) == (want.regular, want.violating_pairs)
            verdicts.add(regular)
    assert verdicts == {True, False}
    for art, want in (
        (pipeline.triangulate_p2dual(4),
         "d1d2b5c968d99d0a8495f5d318fdd17bde1502b77a6254bd4c230cc99781846f"),
        (pipeline.triangulate_p1(5),
         "b6f3ec27951d86d6f97e933f910935e55067bde55780154555339908292596c1"),
    ):
        reports = [(regular, pairs) for _, regular, pairs in perturbed_reports(art, 2)]
        assert {regular for regular, _ in reports} == {True, False}
        assert hashlib.sha256(repr(reports).encode()).hexdigest() == want


def test_verify_convex_matches_fraction_wall_oracle():
    # valid structures only: the twelve benchmark artifacts, every wall
    # convex, and level-2 to 4 copies with one seeded store point's height
    # moved by each of PERTURBATIONS, convex and bent, against the
    # Fraction wall check, which tests both sides of every wall
    def convex(t, w):
        rep = sd.verify(t, wt._common_scale(w)[0])
        assert rep.valid
        return rep.convex

    for fam, levels in (("p2dual", (1, 2, 3, 4)), ("p2", (1, 2, 3, 4)),
                        ("p1", (2, 3, 4, 5))):
        for n in levels:
            art = pipeline.triangulate(pipeline.Family(fam), n)
            assert convex(art.triangulation, art.witness) is True
            assert oracles.walls_convex(art.triangulation, art.witness)
    verdicts = []
    for art in (pipeline.triangulate_p2dual(2), pipeline.triangulate_p2dual(3),
                pipeline.triangulate_p2(3), pipeline.triangulate_p1(4)):
        t, vals = art.triangulation, art.witness.values
        rng = random.Random(len(t.points))
        for pi in rng.sample(range(len(t.points)), 4):
            for delta in PERTURBATIONS:
                moved = RegularityWitness(vals[:pi] + (vals[pi] + delta,) + vals[pi + 1 :])
                got = convex(t, moved)
                assert got is oracles.walls_convex(t, moved)
                verdicts.append(got)
    assert verdicts.count(True) > 10 and verdicts.count(False) > 10


def test_verify_regularity_matches_fraction_oracle_on_tampered_level3():
    # a height raised and a cell vertex replaced by a store point added
    # outside the ambient: the structure fails and the scan reports
    data = pipeline.to_json_dict(pipeline.triangulate_p2dual(3))
    data["witness"][5] = str(Fraction(data["witness"][5]) + 1000)
    data["points"].append([2, 2, 2])
    data["witness"].append("0")
    data["cells"][10] = sorted(data["cells"][10][:-1] + [24])
    art = pipeline.from_json_dict(data)
    got = _agree(art.triangulation, art.witness)
    assert not got.regular and not got.structure.valid


def test_verify_regularity_needs_a_proven_structure():
    # two overlapping segments: every store point is a vertex and no facet
    # is shared, so no wall can bend, but the volumes sum to 4, not 3
    s = sd.Triangulation(((0,), (1,), (2,), (3,)), ((0,), (3,)), ((0, 2), (1, 3)))
    assert not sd.verify(s).valid
    assert not _agree(s, RegularityWitness((0, 0, 0, 0))).regular


def test_nested_triangles_regular_iff_the_wall_lp_is_strict():
    # De Loera-Rambau-Santos' nested triangles (*Triangulations*, 2010),
    # decided without a witness: of the 7-cell triangulations of all six
    # points, maximise t with every wall margin w(q) - A_c(q)
    # >= t, the heights in [0, 100] and t <= 1, an exact LP.  Where t > 0
    # the certificate accepts the LP's heights; where t = 0 no strict
    # witness exists, and it refuses the LP's heights and 300 drawn ones
    lp = pytest.importorskip("sympy.solvers.simplex")
    from sympy import Rational, symbols

    pts = ((0, 0), (0, 4), (1, 1), (1, 2), (2, 1), (4, 0))
    ambient = ((0, 0), (4, 0), (0, 4))
    triangles = [
        c for c in itertools.combinations(range(6), 3)
        if exact.affine_rank([pts[i] for i in c]) == 2
    ]
    nvol = {c: polytope.nvol([pts[i] for i in c]) for c in triangles}
    tris = []
    for cells in itertools.combinations(triangles, 7):
        if sum(nvol[c] for c in cells) == 16:
            t = sd.Triangulation(pts, ambient, cells)
            if sd.verify(t).valid:
                tris.append(t)
    assert len(tris) == 8
    h, top = symbols("h0:6"), symbols("t")
    rng = random.Random(43)
    verdicts = []
    for t in tris:
        margins = []
        for c, d in itertools.combinations(t.cells, 2):
            if len(set(c) & set(d)) == 2:  # a wall; q is d's vertex off it
                (q,) = set(d) - set(c)
                rows = [[pts[i][k] for i in c] for k in range(2)] + [[1, 1, 1]]
                lam = oracles.solve(rows, [*pts[q], 1])
                a_c = sum(Rational(str(x)) * h[i] for x, i in zip(lam, c))
                margins.append(h[q] - a_c)
        bounds = [m >= top for m in margins] + [top <= 1]
        best, at = lp.lpmax(top, bounds + [x >= 0 for x in h] + [x <= 100 for x in h])
        w = RegularityWitness(tuple(Fraction(str(at[x])) for x in h))
        verdicts.append(best > 0)
        if best > 0:
            assert wt.verify_regularity(t, w).regular
            continue
        assert best == 0 and not wt.verify_regularity(t, w).regular
        for _ in range(300):
            vals = [Fraction(rng.randint(-999, 999), rng.randint(1, 9)) for _ in pts]
            assert not wt.verify_regularity(t, RegularityWitness(tuple(vals))).regular
    assert verdicts.count(True) == 6


@pytest.mark.parametrize("h, regular", [(1, True), (0, False), (-1, False)])
def test_verify_regularity_needs_every_store_point_a_vertex(h, regular):
    # one segment over a store point that is no vertex: a valid structure
    # without walls, so only the scan sees the point
    s = sd.Triangulation(((0,), (1,), (2,)), ((0,), (2,)), ((0, 2),))
    assert sd.verify(s).valid
    assert _agree(s, RegularityWitness((0, h, 0))).regular is regular


def test_verify_regularity_rejects_flat_walls():
    # a level-3 vertex v lowered to the largest value at v of the cells
    # beyond its link (each cell across a facet of v's star opposite v):
    # the walls that reach it become flat and no wall bends the other way,
    # so only the strictness of the wall test rejects
    art = pipeline.triangulate_p2dual(3)
    t, w = art.triangulation, art.witness
    v = t.index[(0, 0, -1)]
    beyond = [
        c for c in t.cells if v not in c
        and any(len(set(c) & set(star)) == len(c) - 1 for star in t.cells if v in star)
    ]
    vals = list(w.values)
    vals[v] = max(oracles.cell_interpolant(t, c, w)(t.points[v]) for c in beyond)
    flat = RegularityWitness(tuple(vals))
    report = oracles.verify_regularity_fraction(t, flat)
    margins = {m for _, _, m in report.violating_pairs}
    assert margins == {0}
    assert not _agree(t, flat).regular


def test_verify_regularity_rejects_degenerate_cell():
    pts = [(0, 0), (0, 1), (1, 0), (2, 0)]
    # the second cell's vertices are collinear
    flat = sd.Triangulation(
        tuple(pts), tuple(pts[:2] + pts[3:]), ((0, 1, 3), (0, 2, 3))
    )
    w = RegularityWitness((0, 1, 0, 1))
    with pytest.raises(DegenerateGeometry):
        oracles.verify_regularity_fraction(flat, w)
    # the structural proof refuses the cell, so no regularity is claimed
    rep = wt.verify_regularity(flat, w)
    assert not rep.regular and not rep.violating_pairs
    assert rep.structure == sd.verify(flat)
    assert rep.structure.failures[0] == "degenerate cell: zero-volume simplex"
    assert rep.structure.volume_checksum is None


def _scan_agrees(s, w):
    """The all-pairs scan's report, run directly, equals the Fraction
    oracle's: the same pairs in the same order, exact margins, the stop
    after 51 violations and the verdict."""
    pairs = wt._all_pairs(s, *wt._common_scale(w))
    got = wt.CertificateReport(not pairs, pairs)
    assert got == oracles.verify_regularity_fraction(s, w)
    return got


@pytest.mark.parametrize(
    "build, n, stops",
    [
        (pipeline.triangulate_p2dual, 2, False),
        (pipeline.triangulate_p2dual, 3, True),
        (pipeline.triangulate_p2, 2, False),
        (pipeline.triangulate_p2, 3, True),
        (pipeline.triangulate_p1, 3, False),
        (pipeline.triangulate_p1, 4, True),
    ],
)
def test_all_pairs_matches_fraction_oracle_on_tampered_copies(build, n, stops):
    # each store point's height raised and lowered by a small and a large
    # amount (a lowered point violates against many cells, one pair
    # each), and each cell with one vertex swapped for another store point
    # (a cell of volume > 1, so its form has den > 1); from level 3 on
    # (p1: 4) some copy reaches the stop after 51 violations
    art = build(n)
    t, w = art.triangulation, art.witness
    assert _scan_agrees(t, w).regular
    rng = random.Random(n)
    counts = set()
    for pi in range(len(t.points)):
        for delta in (Fraction(1, 3), Fraction(10**6), Fraction(-1, 3), -(10**6)):
            vals = list(w.values)
            vals[pi] += delta
            got = _scan_agrees(t, RegularityWitness(tuple(vals)))
            counts.add(len(got.violating_pairs))
    dens = set()
    for k, cell in enumerate(t.cells):
        j = rng.randrange(len(cell))
        q = rng.choice([i for i in range(len(t.points)) if i not in cell])
        swapped = tuple(sorted(cell[:j] + (q,) + cell[j + 1 :]))
        cells = t.cells[:k] + (swapped,) + t.cells[k + 1 :]
        s = sd.Triangulation(t.points, t.ambient, cells)
        verts = s.cell_points(swapped)
        if exact.affine_rank(verts) < s.ambient_dim:
            continue
        dens.add(_form(verts, [1] * len(verts))[1])
        counts.add(len(_scan_agrees(s, w).violating_pairs))
    assert 0 in counts and (51 in counts) is stops and len(counts) > 2
    assert max(dens) > 1


@pytest.mark.parametrize("h", [2, 1, Fraction(1, 2), 0, -1])
def test_all_pairs_reports_store_points_off_the_vertices(h):
    # d = 1: one segment over store points that are no vertex, its form 0;
    # at h = 0 point 1 lies on the form, a zero gap off the vertices
    s = sd.Subdivision(((0,), (1,), (2,), (3,)), ((0,), (3,)), ((0, 3),))
    got = _scan_agrees(s, RegularityWitness((0, h, 3, 0)))
    assert got.regular is (h > 0)


def test_all_pairs_matches_fraction_oracle_on_a_wide_simplex():
    # level-2 p2dual as its one cell (0, 3, 6) of normalized volume 6: the
    # form has den 6, and points at, above and below it
    t = pipeline.triangulate_p2dual(2).triangulation
    one = sd.Triangulation(t.points, t.ambient, ((0, 3, 6),))
    assert _form(one.cell_points((0, 3, 6)), [0, 0, 0])[1] == 6
    rng = random.Random(6)
    verdicts = set()
    for _ in range(20):
        vals = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5))) for _ in t.points]
        verdicts.add(_scan_agrees(one, RegularityWitness(tuple(vals))).regular)
    assert verdicts == {True, False}


def _column_store(columns):
    """The triangle (0, 0), (8, 0), (0, 8) as its one cell, over a store of
    its vertices and the given columns {x: [y, ...]}."""
    corners = ((0, 0), (8, 0), (0, 8))
    pts = tuple(sorted({*corners, *((x, y) for x, ys in columns.items() for y in ys)}))
    cell = tuple(pts.index(p) for p in corners)
    return sd.Triangulation(pts, corners, (tuple(sorted(cell)),))


@pytest.mark.parametrize("slope", [2, 0, -1])
@pytest.mark.parametrize("delta", [-1, 0])
def test_all_pairs_finds_a_violation_inside_a_column(slope, delta):
    # d = 2: the form is slope * y (a last coordinate increasing,
    # constant or decreasing along the columns), every store point off the
    # vertices lies 1 above it but (1, 2), inside the column x = 1, which
    # lies delta on it; the column's two ends pass, so only the run's
    # least height finds it
    s = _column_store({1: [0, 1, 2, 3, 4, 5], 4: [1, 2, 3]})
    corners = set(s.ambient)
    w = [slope * y + (0 if (x, y) in corners else 1) for x, y in s.points]
    w[s.index[(1, 2)]] += delta - 1
    got = _scan_agrees(s, RegularityWitness(tuple(w)))
    assert [p for _, p, _ in got.violating_pairs] == [(1, 2)]
    assert got.violating_pairs[0][2] == delta


def test_all_pairs_on_columns_whose_last_coordinates_skip_values():
    # columns with gaps in their last coordinate, and one point alone on
    # its vertical line, under heights scattered around forms of each
    # slope sign: the scan's report is the oracle's every time
    s = _column_store({0: [3, 4, 7], 2: [0, 1, 3, 6], 3: [2], 5: [0, 3]})
    corners = set(s.ambient)
    rng = random.Random(45)
    counts = set()
    for _ in range(60):
        slope = Fraction(rng.randint(-4, 4), rng.choice((1, 3)))
        vals = [
            slope * y + (0 if (x, y) in corners else Fraction(rng.randint(-1, 6), 2))
            for x, y in s.points
        ]
        counts.add(len(_scan_agrees(s, RegularityWitness(tuple(vals))).violating_pairs))
    assert 0 in counts and len(counts) > 3


def test_all_pairs_on_a_single_run_store():
    # d = 1: the whole store is one vertical run, with the segment's two
    # cells; a store point off the vertices, raised or lowered, is found
    s = sd.Triangulation(((0,), (2,), (3,), (5,), (9,)), ((0,), (9,)), ((0, 1), (1, 4)))
    rng = random.Random(1)
    verdicts = set()
    for _ in range(40):
        vals = [Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in s.points]
        verdicts.add(_scan_agrees(s, RegularityWitness(tuple(vals))).regular)
    assert verdicts == {True, False}


def test_all_pairs_on_long_runs_with_den_above_one():
    # level-3 p2dual, whose store is seven vertical runs of up to eight
    # points, scanned by random cells of normalized volume above 1 (den >
    # 1), each under an affine function of every slope sign that its
    # vertices take exactly and the other points miss by -1/3 to 2
    t = pipeline.triangulate_p2dual(3).triangulation
    rng = random.Random(3)
    dens, counts = set(), set()
    for _ in range(100):
        c = tuple(sorted(rng.sample(range(len(t.points)), 4)))
        verts = t.cell_points(c)
        if exact.affine_rank(verts) < 3 or _form(verts, [0] * 4)[1] == 1:
            continue
        dens.add(_form(verts, [0] * 4)[1])
        coeffs = [rng.randint(-3, 3) for _ in range(4)]
        vals = [
            sum(map(mul, coeffs, (*p, 1)))
            + (0 if i in c else Fraction(rng.randint(-1, 6), 3))
            for i, p in enumerate(t.points)
        ]
        s = sd.Triangulation(t.points, t.ambient, (c,))
        counts.add(len(_scan_agrees(s, RegularityWitness(tuple(vals))).violating_pairs))
    assert len(dens) > 3 and len(counts) > 3


@pytest.fixture(scope="module")
def level4():
    art = pipeline.triangulate_p2dual(4)
    return art.triangulation, art.witness


@pytest.mark.parametrize("cell", [0, 3, 9])
def test_all_pairs_full_report_on_raised_level4_heights(level4, cell):
    # a level-4 height raised by 2^32, the benchmark's reject copy: the
    # point is the second-last vertex of an early cell, and the report
    # holds its 51 pairs, each with the oracle's exact margin
    t, w = level4
    vals = list(w.values)
    vals[t.cells[cell][-2]] += 2**32
    got = _scan_agrees(t, RegularityWitness(tuple(vals)))
    assert len(got.violating_pairs) == 51


def test_all_pairs_full_report_on_a_far_vertex_level4_cell(level4):
    # level-4 cell 2 with its vertex 0 swapped for the far store point 43,
    # as in the far-vertex reject smoke test: its form has den > 1 and the
    # report holds 51 pairs, each with the oracle's exact margin
    t, w = level4
    assert t.cells[2] == (0, 1, 205, 228, 351)
    assert t.points[43] == (-1, -1, -1, 42)
    cells = t.cells[:2] + ((1, 43, 205, 228, 351),) + t.cells[3:]
    s = sd.Triangulation(t.points, t.ambient, cells)
    assert _form(s.cell_points(cells[2]), [0] * 5)[1] > 1
    assert len(_scan_agrees(s, w).violating_pairs) == 51


def _criterion10_configs():
    """Acceptance criterion 10's random polytopes under the placing witness."""
    rng = random.Random(20260823)
    for _ in range(100):
        s = oracles.random_polytope_subdivision(rng, rng.randint(1, 3))
        corners = set(s.ambient)
        yield s, RegularityWitness(tuple(0 if p in corners else 1 for p in s.points))


def _level2_glue():
    return pre_sweep(2)


def _level3_start():
    return pre_sweep(3)


def test_pull_sweep_rejects_exactly_where_oracle_rejects(monkeypatch):
    # every store point of the level-3 glue, its height moved both ways by
    # three sizes.  A vertex height the non-strict certificate oracle
    # accepts is certified; one it rejects raises the oracle's exception
    # type: DegenerateGeometry as the start forms are solved, DomainError
    # at a drop bound, after 0, 7 or 8 drops.  A height off the vertices
    # is never read: the output is the unperturbed sweep's, whatever the
    # oracle says
    glued, w = _level3_start()
    base = wt.pull_sweep(glued, w)
    vertices = set().union(*glued.cells)
    pulls = []
    power_drop = wt._largest_power_drop
    monkeypatch.setattr(
        wt, "_largest_power_drop", lambda up: pulls.append(up) or power_drop(up)
    )
    rejected = 0
    for pi in range(len(glued.points)):
        for delta in (10**6, Fraction(1, 3), Fraction(1, 2**20)):
            for sign in (1, -1):
                vals = list(w.values)
                vals[pi] += sign * delta
                w2 = RegularityWitness(tuple(vals))
                try:
                    ok = oracles.check_intermediate(glued, w2).regular
                    want = None if ok else DomainError
                except DegenerateGeometry:
                    want = DegenerateGeometry
                pulls.clear()
                if pi not in vertices:
                    assert want is not DegenerateGeometry
                    assert wt.pull_sweep(glued, w2) == base
                elif want is None:
                    tri, w_tri, _ = wt.pull_sweep(glued, w2)
                    assert wt.verify_regularity(tri, w_tri).regular
                else:
                    rejected += 1
                    with pytest.raises(want):
                        wt.pull_sweep(glued, w2)
                    assert len(pulls) in (0, 7, 8)
    assert 0 < rejected < 6 * len(glued.points)


@pytest.mark.parametrize("start", [_level2_glue, _level3_start])
@pytest.mark.parametrize("last_only", [False, True])
def test_pull_sweep_rejects_drops_at_the_bound(start, last_only, monkeypatch):
    # a drop equal to its bound leaves a flat wall, which a later pull's
    # bound phase catches inside the sweep; a flat wall left by the last
    # pull only the certificate catches, which the build runs before it
    # serves the level
    s, w = start()
    n = len(s.points[0])
    calls = []
    power_drop = wt._largest_power_drop

    def at_bound(upper):
        calls.append(upper)
        if upper is None or last_only and len(calls) < len(s.points):
            return power_drop(upper)
        return upper

    monkeypatch.setattr(wt, "_largest_power_drop", at_bound)
    if not last_only:
        with pytest.raises(DomainError):
            wt.pull_sweep(s, w)
        return
    tri, w_tri, _ = wt.pull_sweep(s, w)
    assert not wt.verify_regularity(tri, w_tri).regular
    calls.clear()
    monkeypatch.delitem(pipeline._CACHE, (Family.P2DUAL, n), raising=False)
    flat = {
        2: "cell (0, 4, 5) point (1, -1)",
        3: "cell (0, 17, 18, 22) point (1, -1, -1)",
    }
    steps = ", ".join(["base"] + ["pullback, glue, pull_all"] * (n - 1))
    with pytest.raises(VerificationFailure) as e:
        pipeline.triangulate_p2dual(n)
    assert str(e.value) == (
        f"regularity violation: {flat[n]} margin 0; provenance steps: {steps}"
    )
    assert (Family.P2DUAL, n) not in pipeline._CACHE


def test_pull_sweep_bound_failure_names_point_cell_and_facet(monkeypatch):
    # the level-2 drop at its bound leaves the wall [2, 5] flat, which the
    # second pull's bound phase finds: margin phi_m - B(m) = 0
    s, w = _level2_glue()
    power_drop = wt._largest_power_drop
    monkeypatch.setattr(
        wt, "_largest_power_drop", lambda up: power_drop(up) if up is None else up
    )
    with pytest.raises(DomainError) as err:
        wt.pull_sweep(s, w)
    assert str(err.value) == (
        "witness is not convex before the pull at store point (-1, 0): "
        "cell (2, 3, 5) across facet [2, 5] has margin 0"
    )


def _sweep_bounds(s, w, monkeypatch):
    """The bound pull_sweep passes to _largest_power_drop at each pull."""
    bounds = []
    power_drop = wt._largest_power_drop

    def record(upper):
        bounds.append(upper)
        return power_drop(upper)

    monkeypatch.setattr(wt, "_largest_power_drop", record)
    wt.pull_sweep(s, w)
    return bounds


def test_pull_sweep_level4_bounds_pinned(monkeypatch):
    # the 353 bounds of the level-4 sweep, pinned by digest: a bound that
    # moved but rounds to the same power of two leaves every eps unchanged
    bounds = _sweep_bounds(*pre_sweep(4), monkeypatch)
    assert len(bounds) == 353
    digest = hashlib.sha256("\n".join(map(str, bounds)).encode()).hexdigest()
    assert digest == "a825d68ed3f5e5113d18f2f58b4adbe301377ed32d41c67240876c1b3f86b05c"


def _power_drop_loop(upper):
    """The halving loop _largest_power_drop replaced, kept as reference."""
    eps = Fraction(1)
    while upper is not None and eps >= upper:
        eps /= 2
    return eps


def test_largest_power_drop_examples():
    for upper in (None, Fraction(7, 2), Fraction(1), Fraction(1, 2), Fraction(1, 2**40),
                  Fraction(2, 3), Fraction(3, 2**80 + 1)):
        assert wt._largest_power_drop(upper) == _power_drop_loop(upper)
    assert wt._largest_power_drop(Fraction(1)) == Fraction(1, 2)
    assert wt._largest_power_drop(Fraction(1, 8)) == Fraction(1, 16)
    assert wt._largest_power_drop(Fraction(9, 8)) == 1


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**64), st.integers(1, 2**64), st.integers(0, 200))
def test_largest_power_drop_matches_halving_loop(num, den, shift):
    # positive bounds from above 1 down past 2^-200, and the power of two
    # 2^-shift itself, where the drop must stay strictly below
    for upper in (Fraction(num, den << shift), Fraction(1, 1 << shift)):
        assert wt._largest_power_drop(upper) == _power_drop_loop(upper)


def _assert_bounds_match_oracle(s, w, monkeypatch):
    bounds = _sweep_bounds(s, w, monkeypatch)
    cur, wcur = s, w
    for i in range(len(s.points)):
        nxt, wnxt, _ = oracles.witness_pull(wcur, cur, i)
        assert bounds[i] == oracles.drop_bound(cur, wcur, i, nxt)
        cur, wcur = nxt, wnxt
    return bounds


def test_pull_sweep_drop_bounds_equal_oracle_supremum(monkeypatch):
    # the facet-local bound equals the whole-store supremum at every pull,
    # not merely the eps it rounds to
    for start in (_level2_glue, _level3_start):
        bounds = _assert_bounds_match_oracle(*start(), monkeypatch)
        assert any(b is not None for b in bounds)
    for s, w in _criterion10_configs():
        _assert_bounds_match_oracle(s, w, monkeypatch)
    # a square pyramid whose apex is the first store point: the first pull
    # keeps the polytopal cell, a pyramid with apex m, as it is
    pts = [(0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
    s = sd.make_subdivision(pts, pts, [pts])
    w = RegularityWitness((0,) * len(pts))
    _assert_bounds_match_oracle(s, w, monkeypatch)
    lit = s
    for i in range(len(pts)):
        lit = oracles.pull_literal(lit, i)
    tri = wt.pull_sweep(s, w)[0]
    assert oracles.cell_point_sets(tri) == oracles.cell_point_sets(lit)


def _facets_of(verts, idx):
    """Facets of a cell from inner_functionals: vertex indices and rows."""
    return [
        (frozenset(i for i, v in zip(idx, verts) if polytope.row_at(row, v) == 0), row)
        for row in oracles.inner_functionals(verts)
    ]


def _primitive(row):
    g = math.gcd(*row)
    return tuple(x // g for x in row)


def _simplex_facets(c):
    """A simplex's facets as store-index sets, in vertex order: facet k
    is the cell without its vertex k."""
    return [frozenset(c[:k] + c[k + 1 :]) for k in range(len(c))]


def _cell_facets(pts, c):
    """A cell's facet sets and rows, found directly: a simplex's inverse rows
    in vertex order, a polytopal cell's inner functionals."""
    verts = [pts[i] for i in c]
    if len(c) == len(verts[0]) + 1:
        return _simplex_facets(c), polytope.simplex_inverse(verts)[0]
    facets = _facets_of(verts, c)
    return [fs for fs, _ in facets], [row for _, row in facets]


def _pyramid_stores():
    """The level-3 glue and criterion 10's configurations."""
    return [_level3_start()[0]] + [s for s, _ in _criterion10_configs()]


def _check_pyramids(pts, c, depth):
    """Split cell c of store pts at each store point m over each facet m
    sees, and the polytopal pyramids inside those depth - 1 levels deeper,
    checking every pyramid against a direct computation: its facets come
    sorted by their least vertex off them; its rows are primitive and equal
    a simplex's simplex_inverse rows in vertex order, or a polytopal cell's
    inner functionals, up to a positive factor.  A simplex c's inverse rows
    over D are checked against an exact solve first.  Returns the simplex
    and polytopal pyramids checked."""
    dim = len(pts[0])
    if len(c) == dim + 1:  # inverse rows over D: barycentric coordinates
        verts = [pts[i] for i in c]
        adj, d = polytope.simplex_inverse(verts)
        for m in pts:
            want = _solve_bary(verts, m)
            assert [Fraction(polytope.row_at(row, m), d) for row in adj] == want
    simplices = polytopal = 0
    sets, rows = _cell_facets(pts, c)
    todo = [(c, sets, list(map(_primitive, rows)), depth)]
    while todo:
        cell, sets, rows, depth = todo.pop()
        for mi, m in enumerate(pts):
            lam = [polytope.row_at(r, m) for r in rows]
            if len(cell) > dim + 1 and min(lam) < 0:
                continue  # polytopal parents split at their own points
            for f in range(len(rows)):
                if lam[f] <= 0:
                    continue
                got_sets, got_rows = wt._pyramid(sets, rows, lam, f, mi)
                got_rows = list(map(tuple, got_rows))
                child = tuple(sorted(sets[f] | {mi}))
                want_sets, want_rows = _cell_facets(pts, child)
                off = [min(set(child) - fs) for fs in got_sets]
                assert off == sorted(off)
                assert got_rows == list(map(_primitive, got_rows))
                if len(child) == dim + 1:
                    assert got_sets == want_sets
                    assert got_rows == list(map(_primitive, want_rows))
                    simplices += 1
                else:
                    assert dict(zip(got_sets, got_rows)) == dict(
                        zip(want_sets, map(_primitive, want_rows))
                    )
                    polytopal += 1
                    if depth > 1:
                        todo.append((child, got_sets, got_rows, depth - 1))
    return simplices, polytopal


def test_pyramid_inverse_matches_direct_inverse():
    # the simplex cells of the level-3 glue and of criterion 10's
    # configurations, split at each store point m over each facet m sees:
    # the inverse rows give an exact solve's barycentric coordinates, and the
    # pyramid's rows equal the child's simplex_inverse rows in vertex order
    checked = 0
    for s in _pyramid_stores():
        for c in s.cells:
            if len(c) == s.ambient_dim + 1:
                checked += _check_pyramids(s.points, c, 1)[0]
    assert checked > 100


def test_pyramid_facets_match_inner_functionals():
    # the polytopal cells of the level-3 glue and of criterion 10's
    # configurations, split at each of their store points over each facet
    # it sees, and the polytopal pyramids inside those: the pyramid's facets
    # equal the child's inner functionals up to a positive factor
    checked = 0
    for s in _pyramid_stores():
        for c in s.cells:
            if len(c) > s.ambient_dim + 1:
                checked += _check_pyramids(s.points, c, 2)[1]
    assert checked > 100


def test_split_simplex_matches_pyramid(monkeypatch):
    # every simplex split of the level-3 and level-4 sweeps: the split by
    # position gives _pyramid's child over _simplex_facets, its rows in
    # vertex order and the facet F the bound phase reads; a parent with
    # more than dim + 1 vertices (a pyramid over a quadrilateral in R^3 has
    # as many facets as vertices) is never split this way
    split = wt._split_simplex
    checked = []

    def compared(parent, rows, lam, k, m_index):
        key, child_rows, fk = split(parent, rows, lam, k, m_index)
        assert len(parent) == dim + 1
        sets = _simplex_facets(parent)
        want_sets, want_rows = wt._pyramid(sets, rows, lam, k, m_index)
        assert key == tuple(sorted(sets[k] | {m_index}))
        assert want_sets == _simplex_facets(key)
        assert list(child_rows) == list(want_rows)
        assert fk == tuple(sorted(sets[k]))
        checked.append(parent)
        return key, child_rows, fk

    starts = {n: pre_sweep(n) for n in (3, 4)}
    monkeypatch.setattr(wt, "_split_simplex", compared)
    for n, (s, w) in starts.items():
        dim = s.ambient_dim
        del checked[:]
        wt.pull_sweep(s, w)
        assert len(checked) > {3: 40, 4: 3000}[n]


def test_pyramid_with_apex_m_is_a_fixed_point(monkeypatch):
    # pull_sweep splits a polytopal pyramid with apex m like any cell: m
    # sees only its base, and _pyramid over it returns the parent's vertex
    # set, facet sets and rows, the rows perhaps reordered.  Checked on a
    # square pyramid in R^3 and on the level-4 sweep's calls whose child is
    # its parent
    pyramid = wt._pyramid
    fixed = []

    def compared(sets, rows, lam, f, m_index):
        got_sets, got_rows = pyramid(sets, rows, lam, f, m_index)
        if sets[f] | {m_index} == frozenset().union(*sets):
            assert set(got_sets) == set(sets) and len(got_sets) == len(sets)
            assert set(map(tuple, got_rows)) == set(map(tuple, rows))
            fixed.append(m_index)
        return got_sets, got_rows

    pts = [(-1, -1, 0), (-1, 1, 0), (0, 0, 2), (1, -1, 0), (1, 1, 0)]
    sets, rows = _cell_facets(pts, tuple(range(len(pts))))
    rows = list(map(_primitive, rows))
    lam = [polytope.row_at(r, pts[2]) for r in rows]
    seen = [f for f, x in enumerate(lam) if x > 0]
    assert len(sets) == 5 and len(seen) == 1
    assert sets[seen[0]] == frozenset({0, 1, 3, 4})
    compared(sets, rows, lam, seen[0], 2)
    assert fixed == [2]

    monkeypatch.setattr(wt, "_pyramid", compared)
    del fixed[:]
    wt.pull_sweep(*pre_sweep(4))
    assert len(fixed) == 7


def _walk_state(s):
    """The rows, facet sets and vertex stars of a subdivision's cells, as
    pull_sweep keeps them, found directly."""
    rows, sets = {}, {}
    star = [set() for _ in s.points]
    for c in s.cells:
        sets[c], rows[c] = _cell_facets(s.points, c)
        for i in c:
            star[i].add(c)
    return rows, sets, star


def test_walk_finds_the_cells_containing_each_point():
    # from every cell of the level-2 and level-3 glue, of the level-3
    # triangulation and of criterion 10's configurations, the walk to each
    # store point ends at exactly the cells the membership oracle puts it in
    starts = [_level2_glue()[0], _level3_start()[0]]
    starts.append(pipeline.triangulate_p2dual(3).triangulation)
    starts += [s for s, _ in _criterion10_configs()]
    walks = 0
    for s in starts:
        rows, sets, star = _walk_state(s)
        geoms = {c: oracles.CellPolytope(s.cell_points(c)) for c in s.cells}
        for p in s.points:
            want = {
                c for c, geom in geoms.items()
                if oracles.contains(geom, p) is not oracles.Membership.OUTSIDE
            }
            for c in s.cells:
                assert wt._walk(p, c, rows, sets, star) == want
                walks += 1
    assert walks > 2000


def test_walk_refuses_a_point_outside_the_cells():
    # a point outside P leaves the cells through a boundary facet; pull_sweep
    # refuses a store point that no cell covers the same way
    s, _ = _level3_start()
    rows, sets, star = _walk_state(s)
    for p in [(5, 0, 0), (-2, -1, -1), (0, 0, 9)]:
        for c in s.cells:
            with pytest.raises(DomainError, match="not covered by any cell"):
                wt._walk(p, c, rows, sets, star)
    pts = [(0, 0), (0, 1), (1, 0), (3, 3)]
    uncovered = sd.make_subdivision(pts, pts[:3], [pts[:3]])
    with pytest.raises(DomainError, match=r"store point \(3, 3\) is not covered"):
        wt.pull_sweep(uncovered, RegularityWitness((0, 0, 0, 1)))


def _non_vertex_values(s, w):
    """For each store point p that is no vertex of s, by store index: the
    cells holding p and the set of their interpolants' values at p."""
    boxes = {c: list(zip(*s.cell_points(c))) for c in s.cells}
    interpolants = {c: oracles.cell_interpolant(s, c, w) for c in s.cells}
    vertices = set().union(*s.cells)
    out = {}
    for pi, p in enumerate(s.points):
        if pi in vertices:
            continue
        cells = [  # a point outside a cell's box is outside the cell
            c for c, box in boxes.items()
            if all(min(xs) <= x <= max(xs) for x, xs in zip(p, box))
            and oracles.contains(oracles.CellPolytope(s.cell_points(c)), p)
            is not oracles.Membership.OUTSIDE
        ]
        out[pi] = cells, {interpolants[c](p) for c in cells}
    return out


def test_pull_sweep_reads_each_point_off_one_cell():
    # the non-vertex points of the level-3 and level-4 starts, each in two
    # or more cells (up to 11 at level 4): every cell holding p gives the
    # same value g(p), so the pull at p reads it off one of them.  Heights
    # at g(p) are certified; all of them lowered by 2^-60 at once are never
    # read, so the sweep's output is the unperturbed one
    most = 0
    for n in (3, 4):
        s, w = pre_sweep(n)
        at_g, lowered = list(w.values), list(w.values)
        for pi, (cells, values) in _non_vertex_values(s, w).items():
            assert len(cells) >= 2 and len(values) == 1
            most = max(most, len(cells))
            (at_g[pi],) = values
            lowered[pi] = at_g[pi] - Fraction(1, 2**60)
        tri, w_tri, _ = wt.pull_sweep(s, RegularityWitness(tuple(at_g)))
        assert wt.verify_regularity(tri, w_tri).regular
        got = wt.pull_sweep(s, RegularityWitness(tuple(lowered)))
        assert got == wt.pull_sweep(s, w)
    assert most == 11


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pull_sweep_never_reads_a_non_vertex_start_height(n):
    # every store point that is no vertex of the start set to g(p) - 1,
    # below every cell holding it, and then to g(p) + 10^6: the pull at p
    # overwrites its height with phi_m - eps, so the cells, witness values
    # and drop log are those of the unperturbed sweep
    s, w = pre_sweep(n)
    g = {pi: min(values) for pi, (_, values) in _non_vertex_values(s, w).items()}
    assert g
    want_tri, want_w, want_log = wt.pull_sweep(s, w)
    for shift in (-1, 10**6):
        vals = [g[pi] + shift if pi in g else v for pi, v in enumerate(w.values)]
        tri, w_tri, log = wt.pull_sweep(s, RegularityWitness(tuple(vals)))
        assert tri.cells == want_tri.cells
        assert w_tri.values == want_w.values
        assert log == want_log
