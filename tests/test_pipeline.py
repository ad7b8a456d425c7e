"""Pipeline tests: recursive construction, artifacts, caching."""

import json
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sylvtri import exact, family, pipeline, subdivision as sd, witness as wt
from sylvtri.errors import (
    ArtifactFormatError,
    DomainError,
    FeasibilityLimit,
    UnsupportedVersion,
    VerificationFailure,
)
from sylvtri.family import Family, FamilySpec

import oracles
from test_subdivision import apex, clip_halfspace, off_apex


@pytest.fixture(autouse=True)
def _fresh_cache():
    pipeline.clear_cache()
    yield
    pipeline.clear_cache()


def test_p2dual_counts_and_certificates():
    for n in (1, 2, 3):
        art = pipeline.triangulate_p2dual(n)
        assert len(art.triangulation.cells) == family.sylvester(n) - 1
        assert len(art.triangulation.points) == len(
            family.lattice_points_p2dual(n)
        )
        rep = sd.verify(art.triangulation)
        assert rep.valid and rep.unimodular
        assert wt.verify_regularity(art.triangulation, art.witness).regular


def test_p2dual_extension_property():
    # restricting level n to the bottom face x_{n-1} = -1 recovers the
    # level n-1 triangulation of the previous coordinates
    for n in (2, 3):
        cur = pipeline.triangulate_p2dual(n).triangulation
        prev = pipeline.triangulate_p2dual(n - 1).triangulation
        bottom = set()
        for c in cur.cells:
            verts = cur.cell_points(c)
            face = tuple(v[:-1] for v in verts if v[-1] == -1)
            if len(face) == len(verts) - 1:
                bottom.add(frozenset(face))
        assert bottom == oracles.cell_point_sets(prev)


def test_p2dual_apex_cell_count():
    # exactly s_{n-1} - 1 cells touch the apex added at level n
    for n in (2, 3):
        tri = pipeline.triangulate_p2dual(n).triangulation
        z = (-1,) * (n - 1) + (family.sylvester(n - 1) - 1,)
        zi = tri.index[z]
        assert sum(1 for c in tri.cells if zi in c) == family.sylvester(n - 1) - 1


def test_p2_transport():
    for n in (1, 2, 3):
        art = pipeline.triangulate_p2(n)
        assert len(art.triangulation.cells) == family.sylvester(n) - 1
        assert set(art.triangulation.ambient) == set(
            family.build(FamilySpec(Family.P2, n)).vertices
        )
        rep = sd.verify(art.triangulation)
        assert rep.valid and rep.unimodular
        assert wt.verify_regularity(art.triangulation, art.witness).regular


def test_p2_carries_the_dual_certificate():
    # the certificate p2 keeps from its dual level is the one a fresh
    # proof of the mapped cells and heights gives
    for n in (1, 2, 3, 4):
        art = pipeline.triangulate_p2(n)
        carried = art.certificate
        assert carried is pipeline.triangulate_p2dual(n).certificate
        fresh = wt.verify_regularity(art.triangulation, art.witness)
        assert fresh.regular and carried.regular
        assert carried.violating_pairs == fresh.violating_pairs == []
        for key in ("valid", "unimodular", "volume_checksum"):
            assert getattr(carried.structure, key) == getattr(fresh.structure, key)


def test_p2_refuses_a_map_that_misses_the_ambient(monkeypatch):
    # a map of det 1 that does not send the dual simplex onto p2's
    shear = family.DualityMap(((1, 1), (0, 1)))
    monkeypatch.setattr(family, "duality_map", lambda n: shear)
    with pytest.raises(DomainError, match="misses the level-2 p2 simplex"):
        pipeline.triangulate_p2(2)


def test_p1_counts_and_apex_structure():
    for n_plus_1 in (2, 3):
        n = n_plus_1 - 1
        art = pipeline.triangulate_p1(n_plus_1)
        tri = art.triangulation
        assert len(tri.cells) == 2 * (family.sylvester(n) - 1)
        rep = sd.verify(tri)
        assert rep.valid and rep.unimodular
        assert wt.verify_regularity(tri, art.witness).regular
        # each cell contains exactly one of the two cone apexes
        e_last = tuple(1 if i == n else 0 for i in range(n_plus_1))
        apexes = {tri.index[e_last], tri.index[family.weight_vertex_w1(n_plus_1)]}
        for c in tri.cells:
            assert len(apexes & set(c)) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_p2dual_ambients_match_hull_oracle(n):
    # the closed-form ambient equals the extreme points of the columns'
    # ends over the previous simplex's vertices and the apex
    prev = pipeline.triangulate_p2dual(n - 1).triangulation
    h = lambda y: family.hyperplane_height(n, y)
    columns = {(*v, t) for v in prev.ambient for t in (-1, h(v))}
    glued = pipeline.triangulate_p2dual(n).triangulation.ambient
    assert tuple(sorted(glued)) == oracles.vertex_filter(columns | {apex(n)})


@pytest.mark.parametrize("n_plus_1", [3, 4, 5])
def test_p1_ambient_matches_hull_oracle(n_plus_1):
    n = n_plus_1 - 1
    t2 = pipeline.triangulate_p2(n).triangulation
    e_last = tuple(int(i == n) for i in range(n_plus_1))
    cand = [(*v, 0) for v in t2.ambient] + [e_last, family.weight_vertex_w1(n_plus_1)]
    glued = pipeline.triangulate_p1(n_plus_1).triangulation.ambient
    assert tuple(sorted(glued)) == oracles.vertex_filter(cand)


def test_glue_closed_forms_match_oracles(monkeypatch):
    # each level cones to an apex z over an interface: the clip hyperplane
    # for p2dual 2-4, read off the subdivision pull_sweep starts from, and
    # x_{n+1} = 0 for p1 2-5.  The cone cells' bases are the slice the
    # half-space oracle cuts from the cells without z, and z's height, as
    # the provenance records it and the witness holds it, is 1 + their
    # largest interpolant at z; the glued p2dual levels 2-3 pass the
    # all-pairs oracle, and each glued p2dual level's store is the level's
    # lattice points as enumerated
    starts = []
    sweep = wt.pull_sweep
    monkeypatch.setattr(wt, "pull_sweep", lambda s, w: starts.append((s, w)) or sweep(s, w))
    arts = [pipeline.triangulate_p2dual(4)]
    arts += [pipeline.triangulate_p1(n) for n in (2, 3, 4, 5)]
    omegas = {
        tuple(step["apex"]): Fraction(step["omega"])
        for art in arts
        for step in art.provenance
        if step["step"] == "glue"
    }
    # each glue with its apex, interface half-space and the interface's
    # vertices: the previous simplex's, lifted or embedded
    glues = []
    for s, w in starts:
        n = s.ambient_dim
        assert s.points == family.lattice_points_p2dual(n)
        prev = pipeline.triangulate_p2dual(n - 1).triangulation.ambient
        facet = [(*v, family.hyperplane_height(n, v)) for v in prev]
        glues.append((s, w, apex(n), clip_halfspace(n), facet))
    for art in arts[1:]:
        n = art.spec.n
        normal = tuple(Fraction(int(i == n - 1)) for i in range(n))
        facet = [(*v, 0) for v in pipeline.triangulate_p2(n - 1).triangulation.ambient]
        z = family.weight_vertex_w1(n)
        glues.append((art.triangulation, art.witness, z, oracles.AffineFunctional(normal, Fraction(0)), facet))
    assert sorted(len(z) for _, _, z, _, _ in glues) == [2, 2, 3, 3, 4, 4, 5]
    assert omegas.keys() == {z for _, _, z, _, _ in glues}
    for s, w, z, half, facet in glues:
        if z[-1] != -1 and len(z) <= 3:  # p2dual: w1 ends in -1
            assert oracles.pairwise_verdict(s)
        zi = s.index[z]
        minus = off_apex(s, z)
        slice_ = oracles.restrict_to_hyperplane(minus, half, facet)
        bases = [frozenset(s.cell_points(c)) - {z} for c in s.cells if zi in c]
        assert len(bases) == len(slice_.cells)
        assert set(bases) == oracles.cell_point_sets(slice_)
        top = max(oracles.cell_interpolant(minus, c, w)(z) for c in minus.cells)
        assert omegas[z] == 1 + top == w.values[zi]


def test_package_exports_resolve():
    import sylvtri

    assert len(set(sylvtri.__all__)) == len(sylvtri.__all__)
    for name in sylvtri.__all__:
        assert hasattr(sylvtri, name), name


def test_determinism():
    a = pipeline.to_json_dict(pipeline.triangulate_p2dual(3))
    pipeline.clear_cache()
    b = pipeline.to_json_dict(pipeline.triangulate_p2dual(3))
    assert json.dumps(a) == json.dumps(b)


def test_save_load_round_trip(tmp_path):
    art = pipeline.triangulate_p1(3)
    path = tmp_path / "p1_3.json"
    pipeline.save(art, str(path))
    back = pipeline.load(str(path))
    assert back.spec == art.spec
    assert back.triangulation.points == art.triangulation.points
    assert back.triangulation.cells == art.triangulation.cells
    assert back.witness.values == art.witness.values
    assert back.provenance == art.provenance


def test_load_rejects_tampered_cells(tmp_path):
    # an out-of-range index, and a reversed cell: facets are keyed by
    # sorted index tuples, so cells must be strictly increasing
    data = pipeline.to_json_dict(pipeline.triangulate_p2dual(2))
    first = data["cells"][0]
    for cell, match in (
        ([0, 99], "out-of-range"),
        (first[::-1], "not strictly increasing"),
    ):
        data["cells"][0] = cell
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ArtifactFormatError, match=match):
            pipeline.load(str(path))


@pytest.mark.parametrize(
    "edits, message",
    [
        # the first bad cell is named, whatever is wrong with a later one
        ({3: [0, 1, 2, 24], 7: [3, 2, 1, 0]}, r"cell \(0, 1, 2, 24\) has out-of-range"),
        ({3: [3, 2, 1, 0], 7: [0, 1, 2, 24]}, r"cell \(3, 2, 1, 0\) indices are not"),
        ({5: [-1, 0, 1, 2]}, r"cell \(-1, 0, 1, 2\) has out-of-range"),
        ({5: [0, 1, 1, 2]}, r"cell \(0, 1, 1, 2\) indices are not strictly"),
        ({5: [1, 0, 2, 3]}, r"cell \(1, 0, 2, 3\) indices are not strictly"),
        ({5: [0, 1, 3, 2]}, r"cell \(0, 1, 3, 2\) indices are not strictly"),
        ({5: [0, 1, 2], 9: [4, 3, 2, 1]}, r"cell \(0, 1, 2\) has 3 vertices, expected 4"),
        ({41: [0, 1, 2, 3, 4]}, r"cell \(0, 1, 2, 3, 4\) has 5 vertices, expected 4"),
        # within one cell, range before order before length
        ({2: [30, 2, 1]}, "out-of-range"),
        ({2: [2, 1]}, "not strictly increasing"),
        # types: the first bad entry, in order
        ({4: [0, 1, 2, 0.5], 8: [True, 1, 2, 3]}, "0.5 is not a JSON integer"),
        ({4: [True, 1, 2, 3], 8: "0123"}, "True is not a JSON integer"),
        ({4: "0123", 8: [0, 1, 2, 0.5]}, "'0123' is not a JSON array"),
        ({6: {"0": 1}}, r"\{'0': 1\} is not a JSON array"),
    ],
)
def test_load_names_the_first_bad_cell(edits, message):
    # the loader checks all cells at once and names the first failure
    # as the per-cell checks in cell order would
    data = pipeline.to_json_dict(pipeline.triangulate_p2dual(3))
    for k, cell in edits.items():
        data["cells"][k] = cell
    with pytest.raises(ArtifactFormatError, match=message):
        pipeline.from_json_dict(data)


@pytest.mark.parametrize("n", [0, -1])
def test_load_refuses_a_non_positive_level(n):
    # FamilySpec refuses n < 1 inside the loader's field checks, so the
    # level is a malformed field like "n": 3.5
    data = pipeline.to_json_dict(pipeline.triangulate_p2dual(2))
    data["n"] = n
    with pytest.raises(ArtifactFormatError, match="family index n must be >= 1"):
        pipeline.from_json_dict(data)


def test_load_refuses_p1_below_level_2():
    # FamilySpec refuses p1 at level 1, which triangulate refuses too
    data = pipeline.to_json_dict(pipeline.triangulate_p2dual(3))
    data.update(family="p1", n=1)
    with pytest.raises(ArtifactFormatError, match="family p1 needs n >= 2$"):
        pipeline.from_json_dict(data)


def test_load_refuses_p1_past_the_cell_limit():
    # p1 at level 6 has 2 (s_5 - 1) = 6,526,884 cells, above MAX_CELLS,
    # although p2 at level 5, which it cones over, has fewer
    data = pipeline.to_json_dict(pipeline.triangulate_p2dual(3))
    data.update(family="p1", n=6)
    with pytest.raises(
        FeasibilityLimit,
        match=r"^artifact level 6 needs more than 5000000 cells \(loader limit\)$",
    ):
        pipeline.from_json_dict(data)


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe\x80{}",
        b'{"version": 1, "n": ' + b"9" * 5000 + b"}",
        b"[" * 100000 + b"]" * 100000,
    ],
    ids=["not utf-8", "integer past the digit limit", "nested too deep"],
)
def test_load_refuses_undecodable_files(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ArtifactFormatError, match="^cannot read artifact "):
        pipeline.load(str(path))


def test_load_rejects_point_of_wrong_dimension(tmp_path):
    data = pipeline.to_json_dict(pipeline.triangulate_p2dual(2))
    data["points"].append(["5"])  # sorts last
    data["witness"].append("0")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ArtifactFormatError, match=r"point \(5,\) has 1 coordinates"):
        pipeline.load(str(path))


def test_load_rejects_unknown_version(tmp_path):
    art = pipeline.triangulate_p2dual(2)
    data = pipeline.to_json_dict(art)
    data["version"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(UnsupportedVersion):
        pipeline.load(str(path))


def test_cache_refuses_mislabelled_entry(tmp_path):
    # a level-2 artifact filed as the level-3 entry must not be served as
    # level 3, nor feed the p2 transport
    path = tmp_path / "p2dual_3.json"
    pipeline.save(pipeline.triangulate_p2dual(2), str(path))
    pipeline.clear_cache()
    with pytest.raises(ArtifactFormatError, match="p2dual_3.json.*p2dual n=2.*n=3"):
        pipeline.triangulate_p2dual(3, cache_dir=str(tmp_path))
    pipeline.clear_cache()
    with pytest.raises(ArtifactFormatError):
        pipeline.triangulate_p2(3, cache_dir=str(tmp_path))


def test_cache_verifies_entries_on_load(tmp_path):
    # a disk entry is checked before it is served: an edited witness value
    # fails the regularity check, a dropped cell or one non-unimodular
    # cell the cell count, and the
    # last cell overwritten by the first (count and checksum kept) the
    # structural proof, which also names a collinear cell that stops the
    # regularity scan
    cache = str(tmp_path)
    pipeline.triangulate_p2dual(2, cache_dir=cache)
    path = tmp_path / "p2dual_2.json"
    edited = json.loads(path.read_text())
    edited["witness"][1] = "50/1"
    dropped = json.loads(path.read_text())
    dropped["cells"].pop()
    doubled = json.loads(path.read_text())
    doubled["cells"][-1] = doubled["cells"][0]
    collinear = json.loads(path.read_text())
    collinear["cells"][0] = [0, 1, 2]
    # the whole triangle as one cell of normalized volume 6, with a witness
    # it certifies: a valid, regular triangulation whose one cell is not
    # unimodular, refused by its count before any other check
    one_cell = json.loads(path.read_text())
    one_cell["cells"] = [[0, 3, 6]]
    one_cell["witness"] = ["0/1" if i in (0, 3, 6) else "1/1" for i in range(7)]
    for data, match in (
        (edited, "regularity violation: cell"),
        (dropped, "cell count 5 != expected 6"),
        (one_cell, "cell count 1 != expected 6$"),
        (doubled, r"facet \(1, 5\) shared by 3 cells"),
        (collinear, "degenerate cell: zero-volume simplex"),
    ):
        path.write_text(json.dumps(data))
        pipeline.clear_cache()
        with pytest.raises(VerificationFailure, match=rf"p2dual_2\.json: {match}"):
            pipeline.triangulate_p2dual(2, cache_dir=cache)


def test_cache_load_runs_the_structural_proof_once(tmp_path, monkeypatch):
    # a served entry and one refused for a collinear cell, which the
    # regularity scan cannot interpolate on
    cache = str(tmp_path)
    pipeline.triangulate_p2dual(2, cache_dir=cache)
    path = tmp_path / "p2dual_2.json"
    collinear = json.loads(path.read_text())
    collinear["cells"][0] = [0, 1, 2]
    calls = []
    proof = sd.verify
    # verify_regularity hands the proof the integer heights
    monkeypatch.setattr(
        sd, "verify", lambda s, *rest: calls.append(s) or proof(s, *rest)
    )
    pipeline.clear_cache()
    pipeline.triangulate_p2dual(2, cache_dir=cache)
    assert len(calls) == 1
    path.write_text(json.dumps(collinear))
    pipeline.clear_cache()
    with pytest.raises(VerificationFailure, match="degenerate cell: zero-volume"):
        pipeline.triangulate_p2dual(2, cache_dir=cache)
    assert len(calls) == 2


def test_load_rejects_truncated_file(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"version": 1, "family": "p2"')
    with pytest.raises(ArtifactFormatError):
        pipeline.load(str(path))


def test_feasibility_limit():
    with pytest.raises(FeasibilityLimit):
        pipeline.triangulate_p2dual(99, max_cells=10**6)


def test_p1_limit_counts_its_own_cells(monkeypatch):
    # p1 at level 5 has 3,612 cells, twice the 1,806 of the p2 level it
    # rests on; at level 6 its 6,526,884 pass the default limit.  Both are
    # refused before the p2 level is built.
    def build(n, max_cells, cache_dir):
        raise AssertionError(f"built p2 at level {n}")

    monkeypatch.setattr(pipeline, "triangulate_p2", build)
    with pytest.raises(
        FeasibilityLimit, match=r"^level 5 needs more than 2000 cells"
    ):
        pipeline.triangulate_p1(5, max_cells=2000)
    with pytest.raises(
        FeasibilityLimit, match=r"^level 6 needs more than 5000000 cells"
    ):
        pipeline.triangulate_p1(6)


def test_cache_entry_failures_shorten_huge_numbers(tmp_path):
    # a cache entry whose first failure holds a number past Python's
    # int-to-str digit limit: the volume checksum of two huge points, or
    # the margin of a witness whose entries have ~1500-digit denominators
    cache = str(tmp_path)
    pipeline.triangulate_p2dual(2, cache_dir=cache)
    path = tmp_path / "p2dual_2.json"
    good = json.loads(path.read_text())
    huge = 10**3000
    points = good["points"][:-2] + [[str(huge), "1"], [str(huge), str(huge)]]
    witness = [
        str(Fraction(x) + Fraction(1, 10**1500 + 7 * i + 1))
        for i, x in enumerate(good["witness"])
    ]
    witness[3] = str(Fraction(witness[3]) - 1000)
    for edit, message in (
        ({"points": points}, r"volume checksum <19933 bits> != ambient nvol 6$"),
        ({"witness": witness}, r"margin -<\d+ bits>/<\d+ bits>$"),
    ):
        path.write_text(json.dumps(dict(good, **edit)))
        pipeline.clear_cache()
        with pytest.raises(VerificationFailure, match=message):
            pipeline.triangulate_p2dual(2, cache_dir=cache)


def test_cache_entry_is_read_under_the_build_limit(tmp_path, monkeypatch):
    # an entry saved by a build whose max_cells passes the loader's default
    # limit is read back under the build's limit, cell count included (the
    # default is bound when load is defined, so it is patched there)
    monkeypatch.setattr(pipeline.load, "__defaults__", (5,))
    cache = str(tmp_path)
    pipeline.triangulate_p2dual(2, max_cells=100, cache_dir=cache)
    saved = (tmp_path / "p2dual_2.json").read_bytes()
    pipeline.clear_cache()
    again = tmp_path / "again.json"
    art = pipeline.triangulate_p2dual(2, max_cells=100, cache_dir=cache)
    pipeline.save(art, str(again))
    assert again.read_bytes() == saved


def test_cache_dir_reuse(tmp_path):
    cache = str(tmp_path)
    art = pipeline.triangulate_p2dual(2, cache_dir=cache)
    assert (tmp_path / "p2dual_2.json").exists()
    pipeline.clear_cache()
    again = pipeline.triangulate_p2dual(2, cache_dir=cache)
    assert again.triangulation.cells == art.triangulation.cells
    assert again.witness.values == art.witness.values


def test_provenance_replayable_epsilons():
    art = pipeline.triangulate_p2dual(2)
    steps = [p["step"] for p in art.provenance]
    assert steps == ["base", "pullback", "glue", "pull_all"]
    pulls = art.provenance[-1]["epsilons"]
    assert len(pulls) == len(art.triangulation.points)
    assert [tuple(e["point"]) for e in pulls] == list(art.triangulation.points)


def test_feasibility_limit_applies_to_cached_levels():
    pipeline.triangulate_p2dual(3)
    pipeline.triangulate_p1(4)
    for build in (
        pipeline.triangulate_p2dual,
        pipeline.triangulate_p2,
        lambda n, max_cells: pipeline.triangulate_p1(n + 1, max_cells),
    ):
        with pytest.raises(FeasibilityLimit):
            build(3, max_cells=10)


def test_cache_write_is_atomic(tmp_path, monkeypatch):
    cache = str(tmp_path)
    pipeline.triangulate_p2dual(2, cache_dir=cache)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "p2dual_1.json",
        "p2dual_2.json",
    ]
    good = (tmp_path / "p2dual_2.json").read_bytes()

    def crash(art, path):
        with open(path, "w") as fh:
            fh.write('{"version": 1, "fam')
        raise KeyboardInterrupt

    pipeline.clear_cache()
    monkeypatch.setattr(pipeline, "save", crash)
    with pytest.raises(KeyboardInterrupt):
        pipeline.triangulate_p2(2, cache_dir=cache)
    # the crashed write left neither a truncated entry nor a temp file
    assert not (tmp_path / "p2_2.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "p2dual_1.json",
        "p2dual_2.json",
    ]
    assert (tmp_path / "p2dual_2.json").read_bytes() == good


def _rational_reference(x):
    """The witness-entry rule through Fraction(x): a string it reads, equal
    to the "p/q" or the str of what it reads.  A value whose str passes
    Python's int-to-str digit limit has no canonical string, since int()
    refuses one that long, so it is refused as non-canonical."""
    if not isinstance(x, str):
        raise TypeError(f"{x!r} is not a rational string")
    v = Fraction(x)
    try:
        canonical = (f"{v.numerator}/{v.denominator}", str(v))
    except ValueError:
        canonical = ()
    if x not in canonical:
        raise ValueError(f"{x!r} is not a canonical rational string")
    return v


def _outcome(parse, x):
    """What parse makes of x: the value with its type, or the refusal."""
    try:
        v = parse(x)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        return type(e), str(e)
    return type(v), v


RATIONAL_TABLE = [
    # accepted: what save writes, and a Fraction's str for an integer
    "-1/8", "0/1", "12/35", "-7/3", "3", "3/1", "0", "-3", str(2**200) + "/3",
    # refused with ValueError
    "-0/1", "-0", "2/4", "0/5", "+1/2", "1/-2", "01/2", "1/02", " -1/8 ",
    "-0.125", "1_0/3", "1/", "/2", "/", "", "1//2", "1/2/3", "abc", "1e3",
    "nan", "inf", "\u0663", "\u0663/1", "1" * 5000,
    # refused with ZeroDivisionError
    "1/0", "0/0", "-1/0", "1/0 ", "+1/0", "01/00",
    # refused with TypeError
    True, 0.5, 1, None, ["1/2"],
    # refused with ValueError: a value no canonical string can hold
    "1e4300",
]


@pytest.mark.parametrize("x", RATIONAL_TABLE)
def test_rational_matches_fraction_reference(x):
    # read directly, a witness entry is accepted or refused exactly as
    # through Fraction(x), with the same exception type and message
    assert _outcome(pipeline._rational, x) == _outcome(_rational_reference, x)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(alphabet="0123456789-+/_ .e", max_size=8),
        st.fractions().map(str),
        st.tuples(st.integers(-40, 40), st.integers(-3, 40)).map(
            lambda pq: f"{pq[0]}/{pq[1]}"
        ),
    )
)
def test_rational_sweep_matches_fraction_reference(x):
    assert _outcome(pipeline._rational, x) == _outcome(_rational_reference, x)


def test_rational_refuses_a_huge_exponent_without_evaluating_it():
    # Fraction("1e999999999") would build a billion-digit power first
    start = time.perf_counter()
    with pytest.raises(ValueError, match="not a canonical rational string"):
        pipeline._rational("1e999999999")
    assert time.perf_counter() - start < 1


def _swept_with(monkeypatch, edit):
    """Make the pulling sweep of every build pass its triangulation
    through edit(tri) before the build's certificate check."""
    sweep = wt.pull_sweep

    def edited(s, w):
        tri, w_out, log = sweep(s, w)
        return edit(tri), w_out, log

    monkeypatch.setattr(wt, "pull_sweep", edited)


def test_build_refuses_a_wrong_cell_count(monkeypatch):
    # a sweep that drops a cell: the count is named, and the provenance by
    # its step names only
    _swept_with(
        monkeypatch, lambda t: sd.Triangulation(t.points, t.ambient, t.cells[:-1])
    )
    with pytest.raises(
        VerificationFailure,
        match=r"^cell count 5 != expected 6; "
        r"provenance steps: base, pullback, glue, pull_all$",
    ):
        pipeline.triangulate_p2dual(2)


def test_build_names_the_first_non_unimodular_cell(monkeypatch):
    # a sweep whose third and fifth cells are replaced by a simplex of
    # normalized volume 2: the count holds, and the structural proof
    # refuses the level by its volume checksum before it is served.  With
    # the count right and the proof valid every cell has volume 1
    # (_first_failure), so no build gets as far as naming the cell.
    pts = pipeline.triangulate_p2dual(2).triangulation.points
    pipeline.clear_cache()
    big = next(
        c
        for c in combinations(range(len(pts)), 3)
        if abs(exact.det_int([[*pts[i], 1] for i in c])) == 2
    )

    def edit(t):
        cells = list(t.cells)
        cells[2] = cells[4] = big
        return sd.Triangulation(t.points, t.ambient, tuple(cells))

    _swept_with(monkeypatch, edit)
    with pytest.raises(VerificationFailure) as e:
        pipeline.triangulate_p2dual(2)
    assert str(e.value) == (
        "volume checksum 8 != ambient nvol 6; "
        "provenance steps: base, pullback, glue, pull_all"
    )
    assert (Family.P2DUAL, 2) not in pipeline._CACHE


@pytest.mark.parametrize("n, bits", [(2, 5), (3, 10), (4, 21)])
def test_closed_form_p2dual_is_the_pulling_result_and_certifies(n, bits):
    # the cone and staircase cells are the pulling refinement's, and the
    # small integer heights W_n certify them
    t, heights = oracles.closed_form_p2dual(n)
    built = pipeline.triangulate_p2dual(n).triangulation
    assert t.points == built.points and t.cells == built.cells
    assert t.ambient == built.ambient
    assert wt.verify_regularity(t, wt.RegularityWitness(heights)).regular
    assert max(map(abs, heights)).bit_length() == bits
