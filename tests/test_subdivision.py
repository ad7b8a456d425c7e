"""Subdivision engine tests: constructors, pulling, structural verification."""

import random
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from operator import and_

import pytest

from sylvtri import (
    exact, family, invariants, pipeline, polytope, subdivision as sd, witness as wt,
)
from sylvtri.errors import DegenerateGeometry, DimensionMismatch, DomainError
from sylvtri.witness import RegularityWitness

import oracles
from oracles import IncompatibleSubdivision


def segment_triangulation():
    return sd.make_subdivision(
        [(-1,), (0,), (1,)],
        [(-1,), (1,)],
        [[(-1,), (0,)], [(0,), (1,)]],
    )


def clip_halfspace(n):
    """The level-n clip hyperplane sum((s_{n-1} - 1)/s_i) y_i + t = 0,
    t = h(y) on it, as an affine functional."""
    sn = family.sylvester(n - 1)
    coeffs = [Fraction((sn - 1) // family.sylvester(i)) for i in range(n - 1)]
    return oracles.AffineFunctional((*coeffs, Fraction(1)), Fraction(0))


LEVEL2_HALF = oracles.AffineFunctional((Fraction(1), Fraction(1)), Fraction(0))
LEVEL2_VERTICES = ((-1, -1), (1, -1), (-1, 2))


def apex(n):
    """The apex z = (-1, ..., -1, s_{n-1} - 1) that level n cones to."""
    return (-1,) * (n - 1) + (family.sylvester(n - 1) - 1,)


class _Captured(Exception):
    pass


def pre_sweep(n):
    """The level-n p2dual subdivision and witness pull_sweep starts from:
    the columns over level n - 1 and the cone over their tops."""
    pipeline.triangulate_p2dual(n - 1)
    starts = []

    def capture(s, w):
        starts.append((s, w))
        raise _Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.delitem(pipeline._CACHE, (family.Family.P2DUAL, n), raising=False)
        mp.setattr(wt, "pull_sweep", capture)
        with pytest.raises(_Captured):
            pipeline.triangulate_p2dual(n)
    return starts[0]


def off_apex(s, z):
    """The cells of s without the vertex z, over s's store and ambient."""
    zi = s.index[z]
    return sd.Subdivision(s.points, s.ambient, tuple(c for c in s.cells if zi not in c))


def test_store_must_be_sorted_unique():
    # a store out of order, and a sorted store with a point repeated
    for points in (((1,), (0,)), ((0,), (0,), (1,))):
        with pytest.raises(DegenerateGeometry):
            sd.Subdivision(points, ((0,), (1,)), ((0, 1),))


def test_triangulation_rejects_non_simplex_cells():
    with pytest.raises(DegenerateGeometry):
        sd.Triangulation(
            ((0, 0), (0, 1), (1, 0), (1, 1)),
            ((0, 0), (0, 1), (1, 0), (1, 1)),
            ((0, 1, 2, 3),),
        )


def test_pullback_columns():
    # the level-2 columns over the segment's two cells, in the closed-form
    # ambient of the level-2 simplex
    glued, _ = pre_sweep(2)
    assert oracles.cell_point_sets(off_apex(glued, apex(2))) == {
        frozenset({(-1, -1), (0, -1), (-1, 1), (0, 0)}),
        frozenset({(0, -1), (1, -1), (0, 0)}),
    }
    assert glued.ambient == LEVEL2_VERTICES


def test_restrict_to_hyperplane():
    glued, _ = pre_sweep(2)
    s = oracles.restrict_to_hyperplane(glued, LEVEL2_HALF, [(-1, 1), (1, -1)])
    assert oracles.cell_point_sets(s) == {
        frozenset({(-1, 1), (0, 0)}),
        frozenset({(0, 0), (1, -1)}),
    }
    assert s.ambient == ((-1, 1), (1, -1))


def test_restrict_rejects_crossing_cells():
    quad = sd.make_subdivision(
        [(0, 0), (2, 0), (0, 2), (2, 2)],
        [(0, 0), (2, 0), (0, 2), (2, 2)],
        [[(0, 0), (2, 0), (0, 2), (2, 2)]],
    )
    with pytest.raises(IncompatibleSubdivision):
        oracles.restrict_to_hyperplane(
            quad,
            oracles.AffineFunctional((Fraction(1), Fraction(0)), Fraction(-1)),
            [(1, 0), (1, 2)],
        )


def test_glue_level2():
    glued, _ = pre_sweep(2)
    assert len(glued.cells) == 4
    # the facet join proves only simplices: a Subdivision with polytopal
    # cells raises before any volume is computed, and the all-pairs oracle
    # checks what they do form
    assert not isinstance(glued, sd.Triangulation)
    with pytest.raises(DimensionMismatch, match="simplicial cells"):
        sd.verify(glued)
    assert oracles.pairwise_verdict(glued)


def test_pull_matches_literal_definition_on_trace():
    glued, w_glued = pre_sweep(2)
    tri, _, _ = wt.pull_sweep(glued, w_glued)
    lit = glued
    for i in range(len(glued.points)):
        lit = oracles.pull_literal(lit, i)
    assert oracles.cell_point_sets(tri) == oracles.cell_point_sets(lit)


def test_pull_outside_point_rejected():
    s = sd.make_subdivision(
        [(-5,), (0,), (1,)], [(0,), (1,)], [[(0,), (1,)]]
    )
    with pytest.raises(DomainError):
        wt.pull_sweep(s, RegularityWitness((1, 0, 0)))


def test_pull_at_vertex_is_identity():
    s = segment_triangulation()
    assert wt.pull_sweep(s, RegularityWitness((1, 0, 1)))[0].cells == s.cells


SHEAR = [[1, 0], [1, 1]]  # (x, y) -> (x, x + y)


def lattice_image(s, matrix):
    """The image of s under the linear lattice map with these rows, built
    by make_subdivision from the mapped store, ambient and cells."""
    img = lambda p: tuple(sum(r * x for r, x in zip(row, p)) for row in matrix)
    return sd.make_subdivision(
        map(img, s.points),
        [img(p) for p in s.ambient],
        [[img(p) for p in s.cell_points(c)] for c in s.cells],
    )


def test_triangulate_p2_transports_the_dual_level():
    # at levels 1-4, every p2 cell is the image of a p2dual cell under the
    # inverse duality map, one for one, and every p2 point q keeps the
    # p2dual height at its preimage, the duality map's image of q
    for n in (1, 2, 3, 4):
        dual, p2 = pipeline.triangulate_p2dual(n), pipeline.triangulate_p2(n)
        dmap = family.duality_map(n)
        inverse = dmap.inverse().apply
        t_dual, t2 = dual.triangulation, p2.triangulation
        assert len(t2.cells) == len(t_dual.cells)
        assert oracles.cell_point_sets(t2) == {
            frozenset(map(inverse, cell))
            for cell in oracles.cell_point_sets(t_dual)
        }
        for q, w in zip(t2.points, p2.witness.values):
            assert w == dual.witness.values[t_dual.index[dmap.apply(q)]]


def test_triangulate_p1_cones_the_p2_level():
    # at levels 2-5, every p1 cell is a p2 cell sigma embedded at last
    # coordinate 0 and coned to one apex, e_last or w1, one for one; every
    # embedded point keeps p2's height at its preimage, e_last has height
    # 0 and w1 omega = 1 + 2 w_p2(w2)
    for n_plus_1 in (2, 3, 4, 5):
        n = n_plus_1 - 1
        p2, p1 = pipeline.triangulate_p2(n), pipeline.triangulate_p1(n_plus_1)
        t2, t1 = p2.triangulation, p1.triangulation
        e_last = tuple(int(i == n) for i in range(n_plus_1))
        w1 = family.weight_vertex_w1(n_plus_1)
        cones = {
            frozenset((*p, 0) for p in cell) | {apex}
            for cell in oracles.cell_point_sets(t2)
            for apex in (e_last, w1)
        }
        assert len(t1.cells) == len(cones) == 2 * len(t2.cells)
        assert oracles.cell_point_sets(t1) == cones
        h2 = dict(zip(t2.points, p2.witness.values))
        heights = {(*p, 0): w for p, w in h2.items()}
        heights[e_last] = 0
        heights[w1] = 1 + 2 * h2[family.weight_vertex_w2(n)]
        assert dict(zip(t1.points, p1.witness.values)) == heights


def test_verify_detects_gap_and_overlap():
    # the triangle of side 2 in its four unit triangles, with the middle
    # one dropped (a gap), or with the triangle (0, 0), (2, 0), (1, 1)
    # laid over two of them (an overlap); store indices: (0, 0) 0,
    # (0, 1) 1, (0, 2) 2, (1, 0) 3, (1, 1) 4, (2, 0) 5
    pts = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)]
    ambient = [(0, 0), (2, 0), (0, 2)]
    cells = [
        [(0, 0), (1, 0), (0, 1)],
        [(1, 0), (2, 0), (1, 1)],
        [(0, 1), (1, 1), (0, 2)],
        [(1, 0), (1, 1), (0, 1)],
    ]
    assert sd.verify(sd.make_subdivision(pts, ambient, cells)).unimodular
    gap = sd.make_subdivision(pts, ambient, cells[:3])
    assert sd.verify(gap).failures == [
        "volume checksum 3 != ambient nvol 4",
        "facet (1, 3) unmatched and not on the boundary",
        "facet (1, 4) unmatched and not on the boundary",
        "facet (3, 4) unmatched and not on the boundary",
    ]
    assert not oracles.pairwise_verdict(gap)
    overlap = sd.make_subdivision(pts, ambient, cells + [[(0, 0), (2, 0), (1, 1)]])
    assert sd.verify(overlap).failures == [
        "volume checksum 6 != ambient nvol 4",
        "facet (0, 4) unmatched and not on the boundary",
        "cells (0, 4, 5) and (3, 4, 5) lie on one side of their common facet (4, 5)",
    ]
    assert not oracles.pairwise_verdict(overlap)


def test_verify_reports_cell_vertex_outside_ambient():
    # (1, 1) is one lattice step outside the unit triangle; the ambient test
    # names it once per cell that uses it, in cell order.  It lies on no
    # facet of the triangle (x + y <= 1 is -1 there, not 0), so the two
    # facets through it are unmatched and off the boundary
    pts = [(0, 0), (0, 1), (1, 0), (1, 1)]
    s = sd.make_subdivision(
        pts, pts[:3], [[(0, 0), (1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)]]
    )
    rep = sd.verify(s)
    assert rep.failures == [
        "volume checksum 2 != ambient nvol 1",
        "cell vertex (1, 1) outside ambient",
        "facet (2, 3) unmatched and not on the boundary",
        "facet (1, 3) unmatched and not on the boundary",
    ]
    assert not oracles.pairwise_verdict(s)


def test_common_face_ok_cases():
    a = ((0, 0), (1, 0), (0, 1))
    b = ((1, 0), (0, 1), (1, 1))
    assert oracles.common_face_ok(a, b)
    c = ((0, 0), (1, 1), (2, 0))  # cuts through the interior of a
    assert not oracles.common_face_ok(a, c)
    assert not oracles.common_face_ok(a, a)
    # shared vertex only
    d = ((1, 0), (2, 0), (2, 1))
    assert oracles.common_face_ok(a, d)


def test_common_face_wraparound_fan():
    # four triangles around the origin: pairwise ok even for opposite pairs,
    # which no facet hyperplane of either separates
    cells = [
        ((0, 0), (1, 0), (0, 1)),
        ((0, 0), (0, 1), (-1, 0)),
        ((0, 0), (-1, 0), (0, -1)),
        ((0, 0), (0, -1), (1, 0)),
    ]
    for i in range(4):
        for j in range(i + 1, 4):
            assert oracles.common_face_ok(cells[i], cells[j])
    # overlapping wedge pair must fail
    assert not oracles.common_face_ok(cells[0], ((0, 0), (1, 1), (1, -1)))


def fold_cases():
    """Folded configurations with matched facet counts and checksum nvol 4.

    [0,1], [0,2], [1,2] in [0,4]: every facet is shared by two cells and
    the volumes sum to nvol 4, so facet counts and the checksum pass, but
    [0,2] folds back over [0,1] and [1,2] and (2, 4) is left uncovered;
    the boundary facet 0 is shared by two cells on its one inner side.
    Each case comes with the two (cell, cell, facet) triples on one side.
    """
    pts = [(x,) for x in range(5)]
    fold = sd.make_subdivision(
        pts, [(0,), (4,)], [[(0,), (1,)], [(0,), (2,)], [(1,), (2,)]]
    )
    # the same fold coned to an apex off the segment's line, in the plane
    z = (5, 1)
    cone = sd.make_subdivision(
        [(x, 0) for x in range(5)] + [z],
        [(0, 0), (4, 0), z],
        [[(a, 0), (b, 0), z] for a, b in ((0, 1), (0, 2), (1, 2))],
    )
    return [
        (fold, ((0, 1), (0, 2), (0,)), ((0, 2), (1, 2), (2,))),
        (cone, ((0, 1, 5), (0, 2, 5), (0, 5)), ((0, 2, 5), (1, 2, 5), (2, 5))),
    ]


def test_verify_facets_rejects_cells_folded_onto_one_side():
    for s, pair_a, pair_b in fold_cases():
        rep = sd.verify(s)
        assert rep.volume_checksum == 4
        assert rep.failures == [
            f"cells {a} and {b} lie on one side of their common facet {key}"
            for a, b, key in (pair_a, pair_b)
        ]
        assert not rep.valid and not rep.unimodular
        assert not oracles.pairwise_verdict(s)


def test_facet_join_reads_the_parity_rule():
    # points (0, 0), (1, 0), (0, 1), (1, 1), (-1, 1): the edge (1, 2) is
    # entry 0 of (0, 1, 2) and entry 2 of (1, 2, 3) and (1, 2, 4); the
    # square's two triangles lie on opposite sides of it, the fold (0, 1, 2)
    # and (1, 2, 4) on one side.  A cell whose sign is 0 gets side 0.
    pts = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1)]
    cells = [(0, 1, 2), (1, 2, 3), (1, 2, 4)]
    dets = [polytope.signed_nvol([pts[i] for i in c]) for c in cells]
    assert dets == [1, -1, 1]
    join = sd.facet_join(cells)
    assert join[(1, 2)] == [(0, 0), (1, 2), (2, 2)]
    assert sd.sides(join[(1, 2)], dets) == [1, -1, 1]
    others = [
        x for on in join.values()
        for (i, _), x in zip(on, sd.sides(on, [1, 0, 0])) if i != 0
    ]
    assert others == [0] * 6


def _plain_and(c, masks):
    """The entries of c whose facets' d-fold mask AND is nonzero."""
    return [
        k for k in range(len(c))
        if reduce(and_, (masks[i] for i in c[:k] + c[k + 1 :]))
    ]


def test_boundary_facets_is_the_mask_and_on_the_artifacts():
    # every cell of the twelve benchmark artifacts has exactly one vertex
    # of mask 0, the origin, so the rule takes one AND per cell; on every
    # facet it agrees with the plain d-fold AND
    for fam, levels in (("p2dual", (1, 2, 3, 4)), ("p2", (1, 2, 3, 4)),
                        ("p1", (2, 3, 4, 5))):
        for n in levels:
            t = pipeline.triangulate(pipeline.Family(fam), n).triangulation
            rows = polytope.simplex_inverse(t.ambient)[0]
            masks = polytope.facet_table(rows, t.points)[0]
            origin = t.index[(0,) * t.ambient_dim]
            assert [i for i, m in enumerate(masks) if m == 0] == [origin]
            for c in t.cells:
                assert origin in c
                assert sd.boundary_facets(c, masks) == _plain_and(c, masks)


@pytest.mark.parametrize("ambient, cells", [
    # the triangle of side 4: (1, 1), (2, 1) and (1, 2) are interior
    (((0, 0), (4, 0), (0, 4)), {
        ((0, 0), (1, 0), (0, 1)): [1, 2],  # no mask-0 vertex, a corner
        ((0, 0), (4, 0), (0, 4)): [0, 1, 2],  # no mask-0 vertex, all of P
        ((1, 0), (3, 0), (2, 2)): [2],  # no mask-0 vertex, one facet
        ((1, 0), (3, 0), (1, 1)): [2],  # one, its opposite facet on y = 0
        ((1, 0), (0, 1), (1, 1)): [],  # one, its opposite facet inside
        ((0, 0), (1, 1), (2, 1)): [],  # two: every facet has one
        ((1, 1), (2, 1), (1, 2)): [],  # three
    }),
    # the tetrahedron of side 5: (1, 1, 1) and (2, 1, 1) are interior
    (((0, 0, 0), (5, 0, 0), (0, 5, 0), (0, 0, 5)), {
        ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)): [1, 2, 3],
        ((1, 0, 0), (3, 0, 0), (1, 2, 0), (1, 1, 3)): [3],
        ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)): [3],
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)): [],
        ((0, 0, 0), (5, 0, 0), (1, 1, 1), (2, 1, 1)): [],
    }),
])
def test_boundary_facets_on_built_cells(ambient, cells):
    # the branches no artifact reaches: no mask-0 vertex, and two or more
    pts = sorted({p for c in cells for p in c})
    rows = polytope.simplex_inverse(ambient)[0]
    masks = polytope.facet_table(rows, pts)[0]
    for verts, want in cells.items():
        c = tuple(pts.index(p) for p in verts)
        assert sd.boundary_facets(c, masks) == want == _plain_and(c, masks), verts
        # the one-facet rule the census applies to each unmatched facet
        for k in range(len(c)):
            facet = c[:k] + c[k + 1 :]
            assert sd.on_boundary(masks[i] for i in facet) is (k in want), (verts, k)


def test_pair_facets_reports_folds_zero_sides_and_open_facets():
    # the points of test_facet_join_reads_the_parity_rule: the square's
    # two triangles (0, 1, 2), det 1, and (1, 2, 3), det -1, lie on
    # opposite sides of their edge (1, 2); (1, 2, 4), det 1, lies on the
    # side of (0, 1, 2)
    def run(simplices, masks=None):
        pending = {}
        return list(sd.pair_facets(simplices, masks, pending)), pending

    square = [((0, 1, 2), 1), ((1, 2, 3), -1)]
    pops, pending = run(square)
    assert pops == [(False, 0)]  # the earlier triangle's vertex off (1, 2)
    # the faces left over, each with its simplex's side and vertex off it
    assert pending == {(0, 2): (-1, 1), (0, 1): (1, 2), (2, 3): (-1, 1), (1, 3): (1, 2)}
    assert run([((0, 1, 2), 1), ((1, 2, 4), 1)])[0] == [(True, 0)]  # a fold
    # a zero side folds, whichever simplex has it, and so do two
    for a, b in ((0, -1), (1, 0), (0, 0)):
        assert run([((0, 1, 2), a), ((1, 2, 3), b)])[0] == [(True, 0)], (a, b)
    # a third simplex on the popped edge opens it again
    pops, pending = run(square + [((1, 2, 4), 1)])
    assert pops == [(False, 0)] and pending[(1, 2)] == (1, 4)
    # inside the triangle (0, 0), (2, 0), (0, 2) the square's edges on the
    # axes lie on the boundary and never open; (1, 3) and (2, 3) do
    rows = polytope.simplex_inverse([(0, 0), (2, 0), (0, 2)])[0]
    masks = polytope.facet_table(rows, [(0, 0), (1, 0), (0, 1), (1, 1)])[0]
    pops, pending = run(square, masks)
    assert pops == [(False, 0)] and pending == {(2, 3): (-1, 1), (1, 3): (1, 2)}


def test_unshared_vertex_on_a_separating_facet_is_no_common_face():
    # p1 level 3 with cells (0, 1, 2, 5) and (1, 2, 5, 6) merged into
    # (0, 2, 5, 6), whose edge (0, 5) passes through point 1: the volume
    # checksum still holds, but (0, 1, 3, 5) meets the new cell in the
    # triangle (0, 1, 5), and the two share only vertices 0 and 5.  A facet
    # hyperplane of (0, 1, 3, 5) weakly separates the two with vertex 2 of
    # the other cell on it, unshared, so it proves no common face
    t = pipeline.triangulate_p1(3).triangulation
    assert t.points[1] == (-3, -2, 0) and t.points[0] == (-6, -4, -1)
    cells = [c for c in t.cells if c not in ((0, 1, 2, 5), (1, 2, 5, 6))]
    merged = sd.Triangulation(t.points, t.ambient, tuple(sorted(cells + [(0, 2, 5, 6)])))
    a, b = merged.cell_points((0, 1, 3, 5)), merged.cell_points((0, 2, 5, 6))
    assert not oracles.common_face_ok(a, b)
    assert not oracles.common_face_ok(b, a)
    assert not oracles.pairwise_verdict(merged)
    rep = sd.verify(merged)
    assert rep.volume_checksum == 12 and rep.failures == [
        f"facet {key} unmatched and not on the boundary"
        for key in ((0, 1, 5), (0, 5, 6), (1, 5, 6))
    ]
    assert rep == oracles.verify_whole_join(merged)


def pairing_copies(n):
    """Copies of p2dual n that reach each case of verify's pairing, as
    (name, triangulation, heights): one boundary cell listed twice, whose
    copy closes its boundary facet; every cell listed twice, so each
    interior facet has four cells popped as two opposite pairs; a cell
    with one vertex swapped for a far store point; a flat cell first and
    mid-list; a raised height."""
    art = pipeline.triangulate_p2dual(n)
    t = art.triangulation
    heights = wt._common_scale(art.witness)[0]
    d = t.ambient_dim
    facets = oracles.simplex_facet_functionals(t.ambient)
    boundary = next(
        c for c in t.cells
        if any(sum(h(p) == 0 for p in t.cell_points(c)) == d for h in facets)
    )
    # the CI reject steps' swaps: vertex 0 of cell 10 (level 3) or cell 2
    # (level 4) for store point 12 or 43
    at, was, far = {3: (10, (0, 19, 20, 22), 12), 4: (2, (0, 1, 205, 228, 351), 43)}[n]
    assert t.cells[at] == was
    swapped = list(t.cells)
    swapped[at] = tuple(sorted((far, *was[1:])))
    flat = tuple(range(d + 1))  # the first d + 1 points of the y0 column
    assert exact.det_int([[*t.points[i], 1] for i in flat]) == 0
    vals = list(art.witness.values)
    vals[5] += 1000
    raised = wt._common_scale(RegularityWitness(tuple(vals)))[0]
    copies = [
        ("boundary cell twice", t.cells + (boundary,), heights),
        ("every cell twice", t.cells + t.cells, heights),
        ("swapped cell", swapped, heights),
        ("raised height", t.cells, raised),
    ]
    for at in (0, len(t.cells) // 2):
        cells = list(t.cells)
        cells[at] = flat
        copies.append((f"flat cell at {at}", cells, heights))
    return art, [
        (name, sd.Triangulation(t.points, t.ambient, tuple(cells)), hs)
        for name, cells, hs in copies
    ]


@pytest.mark.parametrize("n", [3, 4])
def test_verify_pairing_matches_whole_join_scan(n):
    # the pairing keeps only the facets met once, so an input it refuses
    # is named by the census; on every copy verify's report, with heights
    # or without, is the whole-join scan's, and the fan's is the Fraction
    # oracle's
    art, copies = pairing_copies(n)
    for name, t, hs in copies:
        want = oracles.verify_whole_join(t)
        for got in (sd.verify(t), sd.verify(t, hs)):
            assert got == want, name
            assert got.first_non_unimodular == want.first_non_unimodular, name
        if name == "raised height":
            assert want.valid and sd.verify(t, hs).convex is False
            continue
        assert not want.valid, name
        copy = replace(art, triangulation=t)
        assert invariants.fan_from_triangulation(copy) == oracles.fan_fraction(copy), name
    # every interior facet of the doubled copy has four cells, popped as
    # two pairs on opposite sides, and its boundary facets never enter the
    # map: only the checksum refuses it, and the census names the folds
    t = dict((name, t) for name, t, _ in copies)["every cell twice"]
    signs = [polytope.signed_nvol(t.cell_points(c)) for c in t.cells]
    four = [on for on in sd.facet_join(t.cells).values() if len(on) == 4]
    assert four and all(
        a == -b and c == -e
        for a, b, c, e in (sd.sides(on, signs) for on in four)
    )
    failures = sd.verify(t).failures
    nvol = len(t.cells) // 2
    assert failures[0] == f"volume checksum {2 * nvol} != ambient nvol {nvol}"
    assert any(f.endswith(" shared by 4 cells") for f in failures)
    assert failures[-1].startswith("cells ") and " lie on one side " in failures[-1]


def test_verify_names_only_cell_vertices_outside():
    # a store point far outside P that no cell uses: the facet table reads
    # every store point, but only cell vertices are reported, so the
    # proof still accepts, with heights or without, and the fan is unchanged
    art = pipeline.triangulate_p2dual(3)
    t, w = art.triangulation, art.witness
    far = (100, 100, 100)
    assert far > t.points[-1]
    t2 = sd.Triangulation(t.points + (far,), t.ambient, t.cells)
    w2 = RegularityWitness(w.values + (Fraction(0),))
    want = oracles.verify_whole_join(t2)
    assert want.valid
    for got in (sd.verify(t2), sd.verify(t2, wt._common_scale(w2)[0])):
        assert got == want
        assert not any("outside ambient" in f for f in got.failures)
    copy = replace(art, triangulation=t2, witness=w2)
    assert invariants.fan_from_triangulation(copy) == invariants.fan_from_triangulation(art)


def test_verify_unimodular_reads_signed_volumes():
    # a valid triangulation with a cell of volume 2 is not unimodular: the
    # unimodularity pass reads the checksum's volumes
    pts = [(0, 0), (0, 1), (2, 0)]
    bumped = sd.make_subdivision(pts, pts, [pts])
    rep = sd.verify(bumped)
    assert rep.valid and not rep.unimodular and rep.volume_checksum == 2
    assert oracles.pairwise_verdict(bumped)


def test_verify_refuses_polytopal_cells():
    # two copies of one unit square in the 2x1 rectangle, whose volumes
    # would sum to the rectangle's: the proof takes a Triangulation only,
    # so it raises before any volume is computed
    sq = [(0, 0), (0, 1), (1, 0), (1, 1)]
    rect = [(0, 0), (0, 1), (2, 0), (2, 1)]
    s = sd.Subdivision(
        ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)),
        tuple(rect),
        ((0, 1, 2, 3), (0, 1, 2, 3)),
    )
    assert [s.cell_points(c) for c in s.cells] == [tuple(sq)] * 2
    with pytest.raises(DimensionMismatch, match="simplicial cells"):
        sd.verify(s)
    assert not oracles.pairwise_verdict(s)
    # triangle cells under a square ambient: a triangulation, but the
    # ambient is no simplex, so it is refused with nothing computed
    square = sd.make_subdivision(
        sq, sq, [[(0, 0), (1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)]]
    )
    rep = sd.verify(square)
    assert rep.failures == ["ambient is not a simplex: 4 points span dimension 2"]
    assert rep.volume_checksum is None
    assert not rep.valid and not rep.unimodular
    assert oracles.pairwise_verdict(square)


def test_verify_refuses_lower_dimensional_ambient():
    # a segment subdivided inside the plane: its cells have two vertices
    # in R^2, so it is no Triangulation and the proof raises
    s = sd.make_subdivision(
        [(0, 0), (1, 1), (2, 2)],
        [(0, 0), (2, 2)],
        [[(0, 0), (1, 1)], [(1, 1), (2, 2)]],
    )
    assert not isinstance(s, sd.Triangulation)
    with pytest.raises(DimensionMismatch, match="simplicial cells"):
        sd.verify(s)
    assert not oracles.pairwise_verdict(s)


def test_verify_refuses_heights_of_another_length():
    # heights are one per store point: a list one short or one long raises
    # DimensionMismatch, not IndexError, on an input the proof refuses too;
    # with heights of the right length a refused input tests no wall
    s = segment_triangulation()
    assert sd.verify(s, [1, 0, 1]).convex is True
    assert sd.verify(s, [0, 0, 0]).convex is False
    sq = [(0, 0), (1, 0), (0, 1), (1, 1)]
    square = sd.make_subdivision(
        sq, sq, [[(0, 0), (1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)]]
    )
    assert sd.verify(square, [0, 0, 0, 1]).convex is None
    for t, heights in ((s, [1, 0]), (s, [1, 0, 1, 0]), (square, [0, 0, 0])):
        with pytest.raises(DimensionMismatch, match="heights length"):
            sd.verify(t, heights)


AGREEMENT_BUILDS = (
    [(pipeline.triangulate_p2dual, n) for n in (1, 2, 3)]
    + [(pipeline.triangulate_p2, n) for n in (1, 2, 3)]
    + [(pipeline.triangulate_p1, n) for n in (2, 3)]
)


def perturbed(t: sd.Triangulation, rng) -> sd.Triangulation:
    """t with one cell vertex replaced, one cell duplicated or one dropped."""
    cells = list(t.cells)
    k = rng.randrange(len(cells))
    kind = rng.choice(("replace", "duplicate", "drop"))
    if kind == "replace":
        # prefer a new vertex that keeps the cell's volume, so the checksum
        # still passes and the facet join has to find the fault
        c = cells[k]
        j = rng.randrange(len(c))
        vol = lambda cell: abs(exact.det_int([list(t.points[i]) + [1] for i in cell]))
        options = [
            tuple(sorted(c[:j] + c[j + 1 :] + (i,)))
            for i in range(len(t.points))
            if i not in c
        ]
        same = [o for o in options if vol(o) == vol(c)]
        cells[k] = rng.choice(same or options)
    elif kind == "duplicate":
        cells.insert(k, cells[k])
    else:
        del cells[k]
    return sd.Triangulation(t.points, t.ambient, tuple(cells))


def test_verify_agrees_with_pairwise_oracle():
    # the facet join against all-pairs common_face_ok + checksum + ambient
    # membership: on levels 1-3 of every family, on seeded perturbations of
    # the ones with fewer than 42 cells and of level-3 p2dual, and on the
    # fold cases
    rng = random.Random(20261018)
    verdicts = []
    for build, n in AGREEMENT_BUILDS:
        t = build(n).triangulation
        cases = [t] + [perturbed(t, rng) for _ in range(6 if len(t.cells) < 42 else 0)]
        for s in cases:
            verdicts.append(oracles.pairwise_verdict(s))
            assert sd.verify(s).valid == verdicts[-1], (build.__name__, n, s.cells)
    t3 = pipeline.triangulate_p2dual(3).triangulation
    for _ in range(12):
        s = perturbed(t3, rng)
        assert sd.verify(s).valid == oracles.pairwise_verdict(s), s.cells
    for s, _, _ in fold_cases():
        assert not sd.verify(s).valid and not oracles.pairwise_verdict(s)
    assert True in verdicts and False in verdicts


def test_make_subdivision_is_a_triangulation_iff_its_cells_are_simplices():
    # make_subdivision derives the class from the cells: the level-3 glue
    # holds polytopal columns (as does its image under a lattice map) and
    # the slice's simplices span a plane in R^3; a cone over the slice and
    # the image of a triangulation have ambient_dim + 1 vertices per cell
    glued, _ = pre_sweep(3)
    z = apex(3)
    half = clip_halfspace(3)
    interface = oracles.vertex_filter(p for p in glued.points if half(p) == 0)
    slice_ = oracles.restrict_to_hyperplane(glued, half, interface)
    cone = sd.make_subdivision(
        slice_.points + (z,),
        interface + (z,),
        [slice_.cell_points(c) + (z,) for c in slice_.cells],
    )
    flip = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    cases = [
        (glued, False),
        (slice_, False),
        (cone, True),
        (lattice_image(glued, flip), False),
        (lattice_image(pipeline.triangulate_p2dual(3).triangulation, flip), True),
    ]
    for s, simplices in cases:
        assert all(len(c) == s.ambient_dim + 1 for c in s.cells) is simplices
        assert isinstance(s, sd.Triangulation) is simplices
