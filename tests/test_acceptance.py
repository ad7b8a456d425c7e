"""Acceptance gate: one test and one printed pass/fail line per criterion."""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from sylvtri import (
    cli,
    exact,
    family,
    invariants,
    pipeline,
    polytope,
    subdivision as sd,
    witness as wt,
)
from sylvtri.family import Family, FamilySpec
from sylvtri.witness import RegularityWitness

import oracles


@pytest.fixture
def _line(capfd):
    def emit(num: int, name: str, ok: bool, extra: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        tail = f" {extra}" if extra else ""
        with capfd.disabled():
            print(f"criterion {num:02d} {name}: {status}{tail}", flush=True)

    return emit


@pytest.fixture(scope="module")
def dual_arts():
    pipeline.clear_cache()
    arts, times = {}, {}
    for n in range(1, 5):
        t0 = time.monotonic()
        arts[n] = pipeline.triangulate_p2dual(n)
        times[n] = time.monotonic() - t0
    return arts, times


@pytest.fixture(scope="module")
def p2_arts(dual_arts):
    return {n: pipeline.triangulate_p2(n) for n in range(1, 5)}


@pytest.fixture(scope="module")
def p1_arts(p2_arts):
    return {k: pipeline.triangulate_p1(k) for k in range(2, 6)}


def test_criterion_01_volume_identities(_line):
    ok = True
    for n in range(1, 6):
        p2 = family.build(FamilySpec(Family.P2, n))
        p1 = family.build(FamilySpec(Family.P1, n + 1))
        ok &= polytope.nvol(p2) == family.sylvester(n) - 1
        ok &= polytope.nvol(p1) == 2 * polytope.nvol(p2)
    _line(1, "volume identities n=1..5", ok)
    assert ok


def test_criterion_02_self_duality(_line):
    ok = True
    for n in range(1, 6):
        t = family.duality_map(n)
        ok &= exact.det_int([list(r) for r in t.matrix]) == 1
        p2 = family.build(FamilySpec(Family.P2, n))
        dual = polytope.polar_dual(p2)
        ok &= {t.apply(v) for v in p2.vertices} == set(dual.vertices)
    _line(2, "self-duality map n=1..5", ok)
    assert ok


def test_criterion_03_lattice_point_structure(_line):
    ok = True
    for n in (1, 2, 3):
        simplex = family.build(FamilySpec(Family.P2DUAL, n))
        ok &= list(family.lattice_points_p2dual(n)) == (
            oracles.lattice_points_bruteforce(simplex)
        )
    for n_plus_1 in (2, 3, 4):
        n = n_plus_1 - 1
        columns: dict[tuple, int] = {}
        for p in family.lattice_points_p2dual(n_plus_1):
            y, t = p[:-1], p[-1]
            columns[y] = max(t, columns.get(y, t))
        for y, top in columns.items():
            ok &= top == family.column_height(n_plus_1, y)
        ok &= columns[(-1,) * n] == family.sylvester(n) - 1
    _line(3, "lattice-point structure", ok)
    assert ok


def test_criterion_04_triangulation_construction(dual_arts, _line):
    arts, times = dual_arts
    ok = True
    for n, expected in ((1, 2), (2, 6), (3, 42), (4, 1806)):
        tri = arts[n].triangulation
        ok &= len(tri.cells) == expected
        rep = sd.verify(tri)
        ok &= rep.valid and rep.unimodular
        ok &= rep.volume_checksum == family.sylvester(n) - 1
    elapsed = sum(times.values())
    _line(4, "triangulation construction n=1..4", ok, f"({elapsed:.1f}s)")
    assert ok


def _scan(t, w):
    """The all-pairs scan verify_regularity falls back on, run directly."""
    return wt._all_pairs(t, *wt._common_scale(w))


def test_criterion_05_regularity_certificates(dual_arts, p2_arts, p1_arts, _line):
    # the shipped check and its all-pairs scan, each with its own verdict
    arts, _ = dual_arts
    ok = True
    for n in range(1, 5):
        for art in (arts[n], p2_arts[n], p1_arts[n + 1]):
            ok &= wt.verify_regularity(art.triangulation, art.witness).regular
            ok &= _scan(art.triangulation, art.witness).regular
    # perturbed witness must fail
    art = arts[2]
    bad = list(art.witness.values)
    bad[1] += 10
    bad = RegularityWitness(tuple(bad))
    ok &= not wt.verify_regularity(art.triangulation, bad).regular
    ok &= not _scan(art.triangulation, bad).regular
    _line(5, "regularity certificates n=1..4 + negative", ok)
    assert ok


def test_pipeline_artifacts_accepted_without_the_scan(
    dual_arts, p2_arts, p1_arts, monkeypatch
):
    # every pipeline artifact at levels 1-4 is decided at the walls alone
    def scan(*args):
        raise AssertionError("the all-pairs scan ran on an accepted artifact")

    monkeypatch.setattr(wt, "_all_pairs", scan)
    arts, _ = dual_arts
    for n in range(1, 5):
        for art in (arts[n], p2_arts[n], p1_arts[n + 1]):
            assert wt.verify_regularity(art.triangulation, art.witness).regular


def test_criterion_06_extension_property(dual_arts, _line):
    arts, _ = dual_arts
    ok = True
    for n in (1, 2, 3):
        cur = arts[n + 1].triangulation
        prev = arts[n].triangulation
        bottom = set()
        for c in cur.cells:
            verts = cur.cell_points(c)
            face = tuple(v[:-1] for v in verts if v[-1] == -1)
            if len(face) == len(verts) - 1:
                bottom.add(frozenset(face))
        ok &= bottom == oracles.cell_point_sets(prev)
    _line(6, "extension property n=1..3", ok)
    assert ok


def test_criterion_07_p1_artifacts(p2_arts, p1_arts, _line):
    ok = True
    for n_plus_1 in range(2, 6):
        n = n_plus_1 - 1
        tri = p1_arts[n_plus_1].triangulation
        ok &= len(tri.cells) == 2 * (family.sylvester(n) - 1)
        e_last = tuple(1 if i == n else 0 for i in range(n_plus_1))
        w1 = family.weight_vertex_w1(n_plus_1)
        embedded = {(*p, 0) for p in p2_arts[n].triangulation.points}
        ok &= set(tri.points) == embedded | {e_last, w1}
        if n_plus_1 <= 3:
            simplex = family.build(FamilySpec(Family.P1, n_plus_1))
            ok &= list(tri.points) == oracles.lattice_points_bruteforce(simplex)
        apexes = {tri.index[e_last], tri.index[w1]}
        ok &= all(len(apexes & set(c)) == 1 for c in tri.cells)
    _line(7, "first-family artifacts n+1=2..5", ok)
    assert ok


def test_criterion_08_fan_flags(p2_arts, p1_arts, _line):
    ok = True
    for art in (p2_arts[2], p2_arts[3], p2_arts[4], p1_arts[3], p1_arts[4]):
        fan = invariants.fan_from_triangulation(art)
        ok &= fan.complete and fan.smooth and fan.crepant
    _line(8, "fan flags complete/smooth/crepant", ok)
    assert ok


def test_criterion_09_invariant_tables(_line):
    ok = [invariants.index_formula(n) for n in range(1, 8)] == [
        1,
        6,
        66,
        3486,
        6521466,
        21300104111286,
        226847426110811738551148466,
    ]
    ok &= [r.betti_sum for r in invariants.invariant_table(6)] == [
        4,
        24,
        1008,
        1820448,
        5940926462016,
        63271205161020798539584896,
    ]
    for n in range(1, 7):
        r = invariants.betti_euler(n)
        if n % 2 == 0:
            ok &= r.euler(1) == r.euler(2) == r.betti_sum
        else:
            ok &= r.euler(2) == 0
    # diamond sums reconcile inside hodge_diamond; a raise would fail here
    for key in ((3, 1), (3, 2), (4, 1), (4, 2)):
        diamond = invariants.hodge_diamond(*key)
        ok &= sum(sum(row) for row in diamond) == invariants.betti_euler(key[0]).betti_sum
    _line(9, "invariant tables", bool(ok))
    assert ok


def test_criterion_10_pull_oracle_equivalence(_line):
    # the shipped sweep against iterated literal face-based pulling, on
    # random lattice polytopes of dimension 1-3 under the placing witness
    # (0 at the polytope's vertices, 1 at every other lattice point)
    rng = random.Random(20260823)
    ok = True
    for _ in range(100):
        dim = rng.randint(1, 3)
        s = oracles.random_polytope_subdivision(rng, dim)
        corners = set(s.ambient)
        w = RegularityWitness(tuple(0 if p in corners else 1 for p in s.points))
        tri, w_tri, _ = wt.pull_sweep(s, w)
        lit = s
        for i in range(len(s.points)):
            lit = oracles.pull_literal(lit, i)
        ok &= oracles.cell_point_sets(tri) == oracles.cell_point_sets(lit)
        ok &= wt.verify_regularity(tri, w_tri).regular
        # the structural proof takes simplices over a simplex (55 of the
        # 100) and refuses any other ambient; the oracle checks them all
        rep = sd.verify(tri)
        if len(s.ambient) == dim + 1:
            ok &= rep.valid and rep.simplicial
            ok &= rep.volume_checksum == polytope.nvol(s.ambient)
        else:
            ok &= rep.volume_checksum is None and rep.failures == [
                f"ambient is not a simplex: {len(s.ambient)} points span "
                f"dimension {dim}"
            ]
        ok &= oracles.pairwise_verdict(tri)
    _line(10, "pulling oracle equivalence (100 random)", ok)
    assert ok


# sha256 of every saved artifact, recorded from the Fraction-only kernel:
# a faster kernel must reproduce witness values and provenance epsilons
# byte for byte
ARTIFACT_SHA256 = {
    "p2dual_1": "3bb76ba13b651d68bdc7c6dd3ab86e9a71f0c0862c0676e4b761b312623c159a",
    "p2dual_2": "343bae97cdcf56eb89dbd8f88aa7a03d16e76b23d23151bfa0a1f16a2e5d92bf",
    "p2dual_3": "4ac84b9499c989615595c5c854212901fa6787a959643c95d08670d4e9437dec",
    "p2dual_4": "f0adac0c29bca2b5e3ee481a6e2ee3cbbf7ea8739b55a0be300c4ae034e596f1",
    "p2_1": "40c7909fc26866c9578f6cfbe0fd6b2517c87617e2766fcc3396d96305e5e4f1",
    "p2_2": "fe9a954070a125fd3d3afc169728c24dc5b1699f79ae95986efb37a97e761317",
    "p2_3": "db54e9dd6e4137dbeea2cf2346792469b065711681962ef0a45bd7ec23798ced",
    "p2_4": "130def07f3861eab90daeba20503c9bce14563496d2838312d7c58a6437cb3cf",
    "p1_2": "813168d2227e9c1eb39fb28c394b4e93e51bfa309d27326c97fd156613da553e",
    "p1_3": "c36f5211bc2644c24063b61a187ddbb6d6235120d87fec1aced642de00f3ec33",
    "p1_4": "346b603e862ce3d307311b4921492c3e475df934613c3c27be29a50550d97e3d",
    "p1_5": "74a22852e7cb658ca1d5896d16221d84d8a5032a84a2a7f2f1f205b53a34611e",
}


def test_artifacts_byte_identical(dual_arts, p2_arts, p1_arts, tmp_path):
    arts = {f"p2dual_{n}": a for n, a in dual_arts[0].items()}
    arts.update({f"p2_{n}": a for n, a in p2_arts.items()})
    arts.update({f"p1_{n}": a for n, a in p1_arts.items()})
    got = {}
    for key, art in arts.items():
        path = tmp_path / f"{key}.json"
        pipeline.save(art, str(path))
        got[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == ARTIFACT_SHA256


# sha256 of repr((points, cells)) of each saved artifact as the loader
# decodes it: apart from the file bytes, so that a change to the file or
# witness format can show that the store and the cells did not change
GEOMETRY_SHA256 = {
    "p2dual_1": "c5fedea13497d357994a09a804495a8737da196e3aea056eb7fcdc9b2145edbd",
    "p2dual_2": "36f5d63b7c96c161834d3e8aec0f01fe1356919f5ccb6ba712bbe509ac204549",
    "p2dual_3": "0b76847e00f3ad0da7d37e65ec148baeadbe9e4dac08b8ce4c83fd1b5716ba7e",
    "p2dual_4": "4a203d4b53e44f073db3166ab8a747b471575e463695cb57c34bd2d2d37d52c1",
    "p2_1": "c5fedea13497d357994a09a804495a8737da196e3aea056eb7fcdc9b2145edbd",
    "p2_2": "dfd1c643074543ab609150e2270b1315e9edd7ad9eb7c4afcca0a49473bdd7d4",
    "p2_3": "6b5a88be7ce22c7e27237260816ea65f4904eda2373d840711b354a64badf53a",
    "p2_4": "43a4fc7099df4f45850ba769669abf25d7338f7a4ec60ba405bf3517fb486be5",
    "p1_2": "39f6ba0c2238bf9764a0bb988f04daa54c2e4d76117eebd02ddbabacfd36625d",
    "p1_3": "4723ae98d8623d1a2a1c7bafdde94b91b6f8b1887e9974f0688f95985be569da",
    "p1_4": "ffa50341dc2b9de4114655e82468f113d2b9dfa7ccfd3d3ad9a826f5d041072a",
    "p1_5": "b9f68f423e846efea53c6d57283f4fce4e8f1d6797994d69c6b8a2d485bca566",
}


def test_artifact_points_and_cells_pinned(dual_arts, p2_arts, p1_arts, tmp_path):
    arts = {f"p2dual_{n}": a for n, a in dual_arts[0].items()}
    arts.update({f"p2_{n}": a for n, a in p2_arts.items()})
    arts.update({f"p1_{n}": a for n, a in p1_arts.items()})
    got = {}
    for key, art in arts.items():
        path = tmp_path / f"{key}.json"
        pipeline.save(art, str(path))
        t = pipeline.load(str(path)).triangulation
        got[key] = hashlib.sha256(repr((t.points, t.cells)).encode()).hexdigest()
    assert got == GEOMETRY_SHA256


def test_cli_verify_default_finishes_at_level4(dual_arts, tmp_path, capsys):
    # the default `sylvtri verify` runs the linear facet join, so it takes
    # a level-4 artifact; no flag, --mode full and --mode local give the
    # same exit code, stdout and stderr on a valid level-3 artifact and on
    # a tampered one (one height raised, one cell vertex moved outside)
    arts, _ = dual_arts
    level4 = tmp_path / "p2dual_4.json"
    pipeline.save(arts[4], str(level4))
    assert cli.main(["verify", str(level4)]) == 0
    assert capsys.readouterr() == (
        "valid=true simplicial=true unimodular=true regular=true checksum=1806\n",
        "",
    )
    good = tmp_path / "p2dual_3.json"
    pipeline.save(arts[3], str(good))
    data = pipeline.to_json_dict(arts[3])
    data["witness"][5] = str(Fraction(data["witness"][5]) + 1000)
    data["points"].append([2, 2, 2])  # sorts last: store index 24
    data["witness"].append("0")
    data["cells"][10] = sorted(data["cells"][10][:-1] + [24])
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    for path, code in ((good, 0), (bad, 3)):
        runs = []
        for mode in ([], ["--mode", "full"], ["--mode", "local"]):
            rc = cli.main(["verify", str(path), *mode])
            runs.append((rc, *capsys.readouterr()))
        assert runs[0][0] == code
        assert runs[1] == runs[0] and runs[2] == runs[0]
