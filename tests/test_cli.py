"""Command-line interface tests: output lines and exit-code contract."""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction

import pytest

from sylvtri import (
    cli, family, invariants, pipeline, subdivision as sd, witness as wt,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    pipeline.clear_cache()
    yield
    pipeline.clear_cache()


def test_triangulate_p2dual(tmp_path, capsys):
    out = tmp_path / "p2dual_3.json"
    code = cli.main(
        ["triangulate", "--family", "p2dual", "--n", "3", "--out", str(out)]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert "cells=42" in text and "regular=true" in text and "unimodular=true" in text
    assert out.exists()
    art = pipeline.load(str(out))
    assert len(art.triangulation.cells) == 42


def test_triangulate_quiet_omits_timing(tmp_path, capsys):
    out = tmp_path / "a.json"
    cli.main(
        ["triangulate", "--family", "p2dual", "--n", "2", "--out", str(out),
         "--quiet"]
    )
    assert "elapsed" not in capsys.readouterr().out


def test_triangulate_infeasible_n(tmp_path, capsys):
    out = tmp_path / "big.json"
    code = cli.main(
        ["triangulate", "--family", "p2dual", "--n", "99", "--out", str(out)]
    )
    assert code == 2
    assert "feasibility refusal" in capsys.readouterr().err
    assert not out.exists()


def test_triangulate_invalid_n(tmp_path):
    assert cli.main(
        ["triangulate", "--family", "p1", "--n", "0", "--out", str(tmp_path / "x")]
    ) == 5


def test_triangulate_p1_refusals_name_its_level(tmp_path, capsys):
    # p1 at level n rests on p2 at level n - 1: n = 1 is outside the
    # family, and the feasibility line names the requested level
    out = str(tmp_path / "x.json")
    base = ["triangulate", "--family", "p1", "--out", out]
    assert cli.main([*base, "--n", "1"]) == 5
    assert capsys.readouterr().err == "domain error: family p1 needs n >= 2\n"
    assert cli.main([*base, "--n", "40"]) == 2
    assert capsys.readouterr().err == (
        "feasibility refusal: level 40 needs more than 5000000 cells "
        "(limit --max-cells)\n"
    )


def test_triangulate_p1_limit_counts_its_own_cells(tmp_path, capsys):
    # p1 at level 5 has 3,612 cells: a limit of 2,000 refuses it, although
    # the p2 level it rests on has 1,806
    out = tmp_path / "x.json"
    argv = ["triangulate", "--family", "p1", "--n", "5", "--max-cells", "2000"]
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "feasibility refusal: level 5 needs more than 2000 cells "
        "(limit --max-cells)\n"
    )
    assert not out.exists()


def test_triangulate_refuses_a_tampered_cache_entry(tmp_path, capsys):
    # a disk-cache entry whose raised height breaks its certificate is not
    # served: one stderr line, exit 3, and no output file
    cache = tmp_path / "cache"
    argv = ["triangulate", "--family", "p2dual", "--n", "3", "--quiet",
            "--cache-dir", str(cache), "--out"]
    assert cli.main([*argv, str(tmp_path / "first.json")]) == 0
    entry = cache / "p2dual_3.json"
    data = json.loads(entry.read_text())
    data["witness"][5] = str(Fraction(data["witness"][5]) + 1000)
    entry.write_text(json.dumps(data))
    pipeline.clear_cache()
    capsys.readouterr()
    out = tmp_path / "second.json"
    assert cli.main([*argv, str(out)]) == 3
    assert capsys.readouterr() == (
        "",
        f"verification failure: cache entry {entry}: regularity violation: "
        "cell (4, 5, 12, 22) point (-1, -1, 5) margin -127999/64\n",
    )
    assert not out.exists()


def test_triangulate_with_a_cache_dir_serializes_once(tmp_path, monkeypatch):
    # with --cache-dir the entry the call served is copied to --out: a
    # build serializes levels 1-3 once each, a disk hit not at all, and a
    # hand-edited but valid entry reaches --out with its own bytes
    calls = []
    to_json_dict = pipeline.to_json_dict
    monkeypatch.setattr(
        pipeline, "to_json_dict", lambda art: calls.append(art) or to_json_dict(art)
    )
    cache = tmp_path / "cache"
    entry = cache / "p2dual_3.json"
    argv = ["triangulate", "--family", "p2dual", "--n", "3", "--quiet",
            "--cache-dir", str(cache), "--out"]
    out = tmp_path / "out.json"
    assert cli.main([*argv, str(out)]) == 0
    assert len(calls) == 3
    assert out.read_bytes() == entry.read_bytes()
    entry.write_text(json.dumps(json.loads(entry.read_text()), indent=1))
    pipeline.clear_cache()
    calls.clear()
    assert cli.main([*argv, str(out)]) == 0
    assert calls == []
    assert out.read_bytes() == entry.read_bytes()
    # --out naming the entry itself leaves it as it is
    pipeline.clear_cache()
    assert cli.main([*argv, str(entry)]) == 0
    assert out.read_bytes() == entry.read_bytes()
    # a level this process already holds is still served by the disk entry
    other = tmp_path / "other"
    assert cli.main([*argv[:-3], "--cache-dir", str(other), "--out", str(out)]) == 0
    assert out.read_bytes() == (other / "p2dual_3.json").read_bytes()


def test_triangulate_names_the_provenance_of_a_refused_artifact(
    tmp_path, capsys, monkeypatch
):
    # an artifact whose certificate refuses it is saved and its line
    # printed, then its provenance goes to stderr and the exit is 3
    data = pipeline.to_json_dict(pipeline.triangulate_p2dual(2))
    data["witness"][1] = "50/1"
    art = pipeline.from_json_dict(data)
    monkeypatch.setattr(pipeline, "triangulate", lambda *args: art)
    out = tmp_path / "p2dual_2.json"
    assert cli.main(
        ["triangulate", "--family", "p2dual", "--n", "2", "--quiet",
         "--out", str(out)]
    ) == 3
    assert capsys.readouterr() == (
        "p2dual 2 cells=6 points=7 regular=false unimodular=true\n",
        f"provenance: {list(art.provenance)}\n",
    )
    assert pipeline.load(str(out)).witness == art.witness


def test_verify_good_artifact(tmp_path, capsys):
    path = tmp_path / "p1_3.json"
    pipeline.save(pipeline.triangulate_p1(3), str(path))
    code = cli.main(["verify", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "valid=true" in out and "regular=true" in out
    assert "checksum=12" in out


def test_verify_perturbed_witness(tmp_path, capsys):
    art = pipeline.triangulate_p2dual(2)
    data = pipeline.to_json_dict(art)
    # raising a shared vertex breaks strict convexity
    data["witness"][1] = "50/1"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = cli.main(["verify", str(path), "--mode", "local"])
    captured = capsys.readouterr()
    assert code == 3
    assert "regular=false" in captured.out
    assert "regularity violation" in captured.err


def test_verify_truncated_file(tmp_path, capsys):
    path = tmp_path / "trunc.json"
    path.write_text('{"version": 1,')
    assert cli.main(["verify", str(path)]) == 4
    assert "parse error" in capsys.readouterr().err


def test_verify_malformed_store_is_a_parse_error(tmp_path, capsys):
    # a point with the wrong number of coordinates, and a cell whose
    # indices are not strictly increasing
    good = pipeline.to_json_dict(pipeline.triangulate_p2dual(2))
    bad_point = json.loads(json.dumps(good))
    bad_point["points"].append(["5"])
    bad_point["witness"].append("0")
    bad_cell = json.loads(json.dumps(good))
    bad_cell["cells"][0] = bad_cell["cells"][0][::-1]
    for data in (bad_point, bad_cell):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        for mode in ([], ["--mode", "local"]):
            assert cli.main(["verify", str(path), *mode]) == 4
            assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, line",
    [
        (lambda d: [d], "artifact must be a JSON object"),
        (
            lambda d: dict(d, points=[d["points"][1], d["points"][0], *d["points"][2:]]),
            "point store is not sorted and deduplicated",
        ),
        (
            lambda d: dict(
                d,
                points=[d["points"][0], *d["points"]],
                witness=[d["witness"][0], *d["witness"]],
            ),
            "point store is not sorted and deduplicated",
        ),
        (
            lambda d: dict(d, witness=d["witness"][:-1]),
            "witness length does not match point store",
        ),
    ],
    ids=["top-level array", "store out of order", "store point repeated", "witness one short"],
)
def test_verify_loader_refusal_is_one_parse_error_line(tmp_path, capsys, edit, line):
    data = pipeline.to_json_dict(pipeline.triangulate_p2dual(2))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(data)))
    assert cli.main(["verify", str(path)]) == 4
    assert capsys.readouterr() == ("", f"parse error: {line}\n")


def test_verify_zero_denominator_witness_is_a_parse_error(tmp_path, capsys):
    data = pipeline.to_json_dict(pipeline.triangulate_p2dual(2))
    data["witness"][0] = "1/0"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main(["verify", str(path)]) == 4
    assert capsys.readouterr().err.startswith("parse error: ")


def _level2_digit_string_cells(d):
    """The level-2 artifact, whose cell indices are single digits, with
    each cell written as a digit string ("015")."""
    d.clear()
    d.update(pipeline.to_json_dict(pipeline.triangulate_p2dual(2)))
    d["cells"] = ["".join(map(str, c)) for c in d["cells"]]


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(n=3.9),
        lambda d: d["cells"][0].__setitem__(1, d["cells"][0][1] + 0.25),
        lambda d: d["points"][0].__setitem__(0, -1.5),
        lambda d: d["cells"][0].__setitem__(0, False),
        lambda d: d["witness"].__setitem__(0, True),
        lambda d: d["witness"].__setitem__(0, 0.5),
        lambda d: d["witness"].__setitem__(0, 1),
        lambda d: d.update(version=True),
        lambda d: d.update(version=1.0),
        _level2_digit_string_cells,
        lambda d: d["points"].__setitem__(d["points"].index(["0", "0", "0"]), "000"),
        lambda d: d.update(witness="0" * len(d["points"])),
        lambda d: d.update(provenance="abc"),
        lambda d: d.update(provenance={"a": 1}),
        lambda d: d.update(provenance=[1, "x"]),
        lambda d: d["cells"][0].__setitem__(0, "0"),
        lambda d: d.update(n="3"),
        lambda d: d.update(n=0),
        lambda d: d.update(n=-1),
        lambda d: d.update(provenance=[{}]),
        lambda d: d.update(provenance=[{"step": 1}]),
        lambda d: d["points"][0].__setitem__(0, " -1 "),
        lambda d: d["points"][0].__setitem__(0, "-0_1"),
        lambda d: d["points"][2].__setitem__(2, "+1"),
        lambda d: d["witness"].__setitem__(0, " -1/8 "),
        lambda d: d["witness"].__setitem__(0, "-0.125"),
        lambda d: d.update(points=[], witness=[], cells=[]),
    ],
    ids=[
        "n",
        "cell index",
        "coordinate",
        "boolean",
        "witness boolean",
        "witness float",
        "witness integer",
        "version boolean",
        "version float",
        "cell digit string",
        "point digit string",
        "witness string",
        "provenance string",
        "provenance object",
        "provenance non-objects",
        "cell entry digit string",
        "n digit string",
        "n zero",
        "n negative",
        "provenance step without step",
        "provenance step non-string step",
        "coordinate padded",
        "coordinate underscore",
        "coordinate plus sign",
        "witness padded",
        "witness decimal",
        "empty store",
    ],
)
def test_verify_non_integer_field_is_a_parse_error(tmp_path, capsys, edit):
    # a float or boolean where the format stores an integer is refused:
    # int() would truncate each of these to the level-3 artifact itself;
    # so is a JSON number or boolean where it stores a "p/q" witness string,
    # which Fraction() would read, a version that only compares equal to 1,
    # a string where it stores a list, whose characters would be read as
    # its entries, a digit string where it stores a JSON integer (n, a cell
    # index; only coordinates are written as strings), provenance that is
    # not a list of JSON objects, each with a "step" string, a coordinate or
    # witness string that int() or Fraction() reads but save never writes,
    # an empty point store, and a level n below 1, which the family spec
    # refuses inside the loader's field checks
    data = pipeline.to_json_dict(pipeline.triangulate_p2dual(3))
    assert data["cells"][0][0] == 0 and data["points"][0][0] == "-1"
    assert data["points"][2][2] == "1" and data["witness"][0] == "-1/8"
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    for command in ("verify", "stats"):
        assert cli.main([command, str(path)]) == 4
        assert capsys.readouterr().err.startswith("parse error: ")


def test_verify_cell_of_wrong_size_is_a_parse_error(tmp_path, capsys):
    # in range and increasing, but two vertices in the plane
    data = pipeline.to_json_dict(pipeline.triangulate_p2dual(2))
    data["cells"][0] = data["cells"][0][:2]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main(["verify", str(path)]) == 4
    assert capsys.readouterr().err.startswith("parse error: ")


def test_loader_refuses_an_unbuildable_level_before_building_it(
    tmp_path, capsys, monkeypatch
):
    # a level-2 artifact relabelled n = 40: the loader refuses the level as
    # triangulate would, before building its ambient, naming its own limit
    # (these commands have no --max-cells)
    data = pipeline.to_json_dict(pipeline.triangulate_p2dual(2))
    data["n"] = 40
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))

    def build(spec):
        raise AssertionError(f"built the ambient of level {spec.n}")

    monkeypatch.setattr(family, "build", build)
    for argv in (["verify"], ["fan", "--out", str(tmp_path / "fan.json")], ["stats"]):
        assert cli.main([*argv, str(path)]) == 2
        assert capsys.readouterr().err == (
            "feasibility refusal: artifact level 40 needs more than 5000000 "
            "cells (loader limit)\n"
        )
    out = tmp_path / "big.json"
    argv = ["triangulate", "--family", "p2dual", "--n", "40", "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "feasibility refusal: level 40 needs more than 5000000 cells "
        "(limit --max-cells)\n"
    )


@pytest.mark.parametrize(
    "n, code, err",
    [
        (1, 4, "parse error: malformed artifact field: family p1 needs n >= 2"),
        (
            6,
            2,
            "feasibility refusal: artifact level 6 needs more than 5000000 "
            "cells (loader limit)",
        ),
    ],
    ids=["level 1", "level 6"],
)
def test_loader_applies_the_p1_rules(tmp_path, capsys, n, code, err):
    # level-3 data relabelled p1: level 1 is outside the family, and level
    # 6 has 2 (s_5 - 1) = 6,526,884 cells, above the loader's limit
    data = pipeline.to_json_dict(pipeline.triangulate_p2dual(3))
    data.update(family="p1", n=n)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    for command in ("verify", "stats"):
        assert cli.main([command, str(path)]) == code
        assert capsys.readouterr().err == err + "\n"


def _huge_margin(data):
    """Entry i of the witness raised by 1/(10^1400 + 7 i + 1), entry 3
    lowered by 1000: some violation margins pass the int-to-str limit."""
    witness = [
        str(Fraction(x) + Fraction(1, 10**1400 + 7 * i + 1))
        for i, x in enumerate(data["witness"])
    ]
    witness[3] = str(Fraction(witness[3]) - 1000)
    data["witness"] = witness


def _huge_points(data):
    """The two lex-largest points replaced by (10^3000, 1) and (10^3000,
    10^3000): the volume checksum passes the int-to-str limit."""
    huge = str(10**3000)
    data["points"][-2:] = [[huge, "1"], [huge, huge]]


@pytest.mark.parametrize(
    "edit, out, line",
    [
        (
            _huge_margin,
            "valid=true simplicial=true unimodular=true regular=false checksum=6",
            "regularity violation: cell (0, 4, 5) point (-1, 2) "
            "margin -<18612 bits>/<18602 bits>",
        ),
        (
            _huge_points,
            "valid=false simplicial=true unimodular=false regular=false "
            "checksum=<19933 bits>",
            "failure: volume checksum <19933 bits> != ambient nvol 6",
        ),
    ],
    ids=["margin", "checksum"],
)
def test_verify_shortens_numbers_past_the_digit_limit(
    tmp_path, capsys, edit, out, line
):
    # the level-2 artifact with a number in its report that str() refuses
    data = pipeline.to_json_dict(pipeline.triangulate_p2dual(2))
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main(["verify", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == out + "\n"
    assert line in captured.err.splitlines()


def test_fan_p2(tmp_path, capsys):
    src = tmp_path / "p2_2.json"
    pipeline.save(pipeline.triangulate_p2(2), str(src))
    dst = tmp_path / "fan.json"
    code = cli.main(["fan", str(src), "--out", str(dst)])
    out = capsys.readouterr().out
    assert code == 0
    assert "complete smooth crepant" in out and "rays=6 cones=6" in out
    data = json.loads(dst.read_text())
    assert data["flags"] == {"complete": True, "smooth": True, "crepant": True}


def test_fan_p1(tmp_path, capsys):
    src = tmp_path / "p1_3.json"
    pipeline.save(pipeline.triangulate_p1(3), str(src))
    code = cli.main(["fan", str(src), "--out", str(tmp_path / "fan.json")])
    assert code == 0
    assert "cones=12" in capsys.readouterr().out


def test_invariants_text(capsys):
    assert cli.main(["invariants", "--n-max", "4"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].split() == [
        "n", "index", "betti_sum", "euler_i1", "euler_i2",
        "middle_hodge_i1", "middle_hodge_i2",
    ]
    assert len(lines) == 5
    assert lines[4].split()[:3] == ["4", "3486", "1820448"]


def test_invariants_csv(capsys):
    assert cli.main(["invariants", "--n-max", "3", "--csv"]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.strip().splitlines()]
    assert rows[1] == ["1", "1", "4", "0", "0", "2", "2"]
    assert rows[3][:5] == ["3", "66", "1008", "-960", "0"]


def test_invariants_refuses_a_table_too_large_to_print(capsys):
    # the level-14 Betti sum is past Python's int-to-str digit limit
    assert cli.main(["invariants", "--n-max", "14"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("feasibility refusal: ")


def test_invariants_refuses_before_computing(capsys, monkeypatch):
    real = invariants.betti_euler

    def capped(n):
        if n > 13:
            raise AssertionError(f"betti_euler({n}) ran")
        return real(n)

    monkeypatch.setattr(invariants, "betti_euler", capped)
    assert cli.main(["invariants", "--n-max", "1000000"]) == 2
    assert capsys.readouterr().err.startswith("feasibility refusal: ")
    assert cli.main(["invariants", "--n-max", "13"]) == 0


def test_invariants_refuses_quiet():
    # invariants prints no timing, so it takes no --quiet (usage error)
    with pytest.raises(SystemExit) as e:
        cli.main(["invariants", "--quiet"])
    assert e.value.code == 2


def test_stats(tmp_path, capsys):
    path = tmp_path / "d2.json"
    pipeline.save(pipeline.triangulate_p2dual(2), str(path))
    assert cli.main(["stats", str(path)]) == 0
    out = capsys.readouterr().out
    assert "p2dual n=2" in out and "cells=6" in out and "dim=2" in out


def test_verify_tampered_level3_lines(tmp_path, capsys):
    # one height raised by 1000, and one cell vertex replaced by a store
    # point added outside the ambient simplex: the exit code, the verdict
    # line and every failure / violation line are pinned
    data = pipeline.to_json_dict(pipeline.triangulate_p2dual(3))
    data["witness"][5] = str(Fraction(data["witness"][5]) + 1000)
    data["points"].append([2, 2, 2])  # sorts last: store index 24
    data["witness"].append("0")
    data["cells"][10] = sorted(data["cells"][10][:-1] + [24])
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    code = cli.main(["verify", str(path), "--mode", "local"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out.splitlines() == [
        "valid=false simplicial=true unimodular=false regular=false checksum=44"
    ]
    assert captured.err.splitlines() == [
        "failure: volume checksum 44 != ambient nvol 42",
        "failure: cell vertex (2, 2, 2) outside ambient",
        "failure: facet (0, 20, 22) unmatched and not on the boundary",
        "failure: facet (0, 19, 22) unmatched and not on the boundary",
        "failure: facet (19, 20, 24) unmatched and not on the boundary",
        "failure: facet (0, 20, 24) unmatched and not on the boundary",
        "failure: facet (0, 19, 24) unmatched and not on the boundary",
        "failure: facet (19, 20, 22) unmatched and not on the boundary",
        "regularity violation: cell (0, 19, 20, 24) point (0, 0, -1) margin -3741/4096",
        "regularity violation: cell (0, 19, 20, 24) point (0, 0, 0) margin -23/12",
        "regularity violation: cell (4, 5, 12, 22) point (-1, -1, 5) margin -127999/64",
        "regularity violation: cell (4, 5, 12, 22) point (-1, -1, 6) margin -11518057/3840",
        "regularity violation: cell (4, 5, 12, 22) point (0, -1, 1) margin -40870837/40960",
        "regularity violation: cell (4, 5, 12, 22) point (0, -1, 2) margin -16366345/8192",
        "regularity violation: cell (4, 5, 12, 22) point (1, -1, -1) margin -8173953/4096",
        "regularity violation: cell (4, 5, 12, 22) point (2, 2, 2) margin -2558197/320",
        "regularity violation: cell (4, 5, 20, 22) point (-1, -1, 5) margin -127999/64",
        "regularity violation: cell (4, 5, 20, 22) point (-1, -1, 6) margin -11518057/3840",
    ]


def test_verify_structural_failure_lines(tmp_path, capsys):
    # the first cell listed twice fails the facet join and the orientation
    # check; a coplanar first cell stops the checksum and the regularity
    # scan, so neither a checksum nor regular=true is claimed
    base = pipeline.to_json_dict(pipeline.triangulate_p2dual(3))
    doubled = json.loads(json.dumps(base))
    doubled["cells"].append(doubled["cells"][0])
    coplanar = json.loads(json.dumps(base))
    coplanar["cells"][0] = [0, 1, 2, 8]
    for data, code, out, err in (
        (
            doubled,
            3,
            ["valid=false simplicial=true unimodular=false regular=true checksum=43"],
            [
                "failure: volume checksum 43 != ambient nvol 42",
                "failure: facet (1, 12, 22) shared by 3 cells",
                "failure: facet (0, 12, 22) shared by 3 cells",
                "failure: facet (0, 1, 22) shared by 3 cells",
                "failure: cells (0, 1, 12, 22) and (0, 1, 12, 22) lie on one "
                "side of their common facet (0, 1, 12)",
            ],
        ),
        (
            coplanar,
            3,
            ["valid=false simplicial=true unimodular=false regular=false checksum=None"],
            [
                "failure: degenerate cell: zero-volume simplex",
                "failure: facet (0, 1, 22) unmatched and not on the boundary",
                "failure: facet (0, 12, 22) unmatched and not on the boundary",
                "failure: facet (1, 12, 22) unmatched and not on the boundary",
            ],
        ),
    ):
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        assert cli.main(["verify", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.out.splitlines() == out
        assert captured.err.splitlines() == err


def test_verify_failure_order_with_every_join_kind(tmp_path, capsys):
    # level 3 with its first cell listed twice and cell 5 dropped: three
    # facets of three cells, three unmatched facets and a fold at once.
    # The fold's facet comes before the unmatched ones in the join, but
    # folds are reported after both count failures
    data = pipeline.to_json_dict(pipeline.triangulate_p2dual(3))
    data["cells"].append(data["cells"][0])
    assert data["cells"][5] == [0, 10, 11, 22]
    del data["cells"][5]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    err = [
        "facet (1, 12, 22) shared by 3 cells",
        "facet (0, 12, 22) shared by 3 cells",
        "facet (0, 1, 22) shared by 3 cells",
        "facet (0, 10, 22) unmatched and not on the boundary",
        "facet (0, 11, 22) unmatched and not on the boundary",
        "facet (10, 11, 22) unmatched and not on the boundary",
        "cells (0, 1, 12, 22) and (0, 1, 12, 22) lie on one side of their "
        "common facet (0, 1, 12)",
    ]
    assert sd.verify(pipeline.load(str(path)).triangulation).failures == err
    assert cli.main(["verify", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "valid=false simplicial=true unimodular=false regular=true checksum=42"
    ]
    assert captured.err.splitlines() == [f"failure: {f}" for f in err]


def test_verify_names_a_non_unimodular_cell(tmp_path, capsys):
    # level-2 p2dual as one cell, the whole triangle: a valid, regular
    # triangulation whose cell has normalized volume 6
    data = pipeline.to_json_dict(pipeline.triangulate_p2dual(2))
    data["cells"] = [[0, 3, 6]]
    data["witness"] = ["0/1" if i in (0, 3, 6) else "1/1" for i in range(7)]
    path = tmp_path / "one_cell.json"
    path.write_text(json.dumps(data))
    assert cli.main(["verify", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "valid=true simplicial=true unimodular=false regular=true checksum=6"
    ]
    assert captured.err.splitlines() == [
        "not unimodular: cell (0, 3, 6) normalized volume 6"
    ]


def test_commands_run_the_structural_proof_once(tmp_path, monkeypatch):
    # verify_regularity returns the one structural proof the verdict reads,
    # on the accept path and on the scan's
    calls = []
    proof = sd.verify
    # verify_regularity hands the proof the integer heights
    monkeypatch.setattr(
        sd, "verify", lambda s, *rest: calls.append(s) or proof(s, *rest)
    )
    path = tmp_path / "p2dual_2.json"
    assert cli.main(
        ["triangulate", "--family", "p2dual", "--n", "2", "--out", str(path)]
    ) == 0
    # one proof per built level, 1 and 2; triangulate prints level 2's
    assert len(calls) == 2
    assert cli.main(["verify", str(path)]) == 0
    assert len(calls) == 3
    data = json.loads(path.read_text())
    data["cells"].append(data["cells"][0])
    path.write_text(json.dumps(data))
    assert cli.main(["verify", str(path)]) == 3
    assert len(calls) == 4
    # a disk-cache hit: the certificate the cache check ran is the one
    # triangulate prints
    argv = ["triangulate", "--family", "p2dual", "--n", "2", "--out", str(path),
            "--cache-dir", str(tmp_path / "cache")]
    pipeline.clear_cache()
    assert cli.main(argv) == 0
    pipeline.clear_cache()
    calls.clear()
    assert cli.main(argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("fam", ["p2dual", "p2"])
def test_triangulate_certifies_each_built_level_once(tmp_path, monkeypatch, fam):
    # each p2dual level is served once its certificate accepts it, p2
    # keeps its dual level's, and triangulate prints the top level's
    # instead of running a second one
    certified = []
    regularity = wt.verify_regularity
    monkeypatch.setattr(
        wt,
        "verify_regularity",
        lambda t, w: certified.append(t.ambient_dim) or regularity(t, w),
    )
    path = tmp_path / f"{fam}_3.json"
    assert cli.main(
        ["triangulate", "--family", fam, "--n", "3", "--out", str(path)]
    ) == 0
    assert certified == [1, 2, 3]


@pytest.mark.parametrize("case", ["triangulate --out", "fan --out", "--cache-dir"])
def test_unwritable_path_is_one_line_and_exit_5(tmp_path, capsys, case):
    # an output file in a missing directory, and a --cache-dir naming a
    # regular file, give one stderr line and exit 5, not a traceback
    missing = str(tmp_path / "missing" / "x.json")
    build = ["triangulate", "--family", "p2dual", "--n", "2"]
    if case == "triangulate --out":
        argv = [*build, "--out", missing]
    elif case == "fan --out":
        art = str(tmp_path / "p2dual_2.json")
        assert cli.main([*build, "--out", art, "--quiet"]) == 0
        capsys.readouterr()
        argv = ["fan", art, "--out", missing]
    else:
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = [*build, "--out", str(tmp_path / "x.json"), "--cache-dir", str(blocker)]
    assert cli.main(argv) == 5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("file error: ") and err.count("\n") == 1


class _Parsed(Exception):
    """Raised in place of a command's run, carrying the parsed arguments."""


def _outcome(parse, argv):
    """vars(Namespace) of a parse, or the SystemExit code with stdout and
    stderr of a parse that exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(list(argv)))
        except SystemExit as e:
            return e.code, out.getvalue(), err.getvalue()
        except _Parsed as e:
            return e.args[0]


_WORDS = [
    *cli.COMMANDS, "help", "tri", "-h", "--help", "--h", "--quiet", "--q",
    "--family", "--fam", "--n", "--n-max", "--n-m", "--out", "--max-cells",
    "--max", "--cache-dir", "--mode", "--mod", "--csv", "--", "-", "",
    "---", "-x", "--bogus", "--n=2", "--family=p1", "--mod=local",
    "p2dual", "p2", "p1", "p3", "full", "local", "3", "-1", "0", "x",
    "a.json", "out.json", "verify=1",
]

_CORPUS = [
    *([name, "-h"] for name in cli.COMMANDS),
    [],
    ["-h"],
    ["frobnicate"],
    ["--quiet", "verify", "a.json"],
    ["verify", "a.json", "extra"],
    ["stats", "a.json", "b.json", "c.json"],
    ["fan", "a.json", "extra", "--out", "f.json"],
    ["triangulate", "--family", "p3", "--n", "2", "--out", "x.json"],
    ["triangulate", "--family", "p2dual", "--n", "two", "--out", "x.json"],
    ["invariants", "--n-max", "six"],
    ["triangulate", "--family", "p2dual", "--n", "2"],
    ["fan", "a.json"],
    ["verify"],
    ["verify", "a.json", "--mod", "local"],
    ["triangulate", "--fam", "p1", "--n", "3", "--out", "x.json", "--q"],
    ["verify", "a.json", "--mode", "fast"],
    ["invariants", "--quiet"],
]


def _random_argv(rng):
    """A command line of one command, its option groups shuffled and long
    options sometimes abbreviated, then 0-2 tokens replaced, inserted or
    dropped; one in ten starts with a word that is no command."""
    name = rng.choice(list(cli.COMMANDS))
    path = [rng.choice(["a.json", "b.json"])]
    groups = {
        "triangulate": [
            ["--family", rng.choice(["p2dual", "p2", "p1"])],
            ["--n", rng.choice(["1", "2", "3", "0"])],
            ["--out", "x.json"], ["--max-cells", "10"], ["--cache-dir", "c"],
            ["--quiet"],
        ],
        "verify": [path, ["--mode", rng.choice(["full", "local"])], ["--quiet"]],
        "fan": [path, ["--out", "f.json"], ["--quiet"]],
        "invariants": [["--n-max", rng.choice(["3", "13"])], ["--csv"]],
        "stats": [path, ["--quiet"]],
    }[name]
    rng.shuffle(groups)
    argv = [name]
    for group in groups:
        if rng.random() < 0.85:
            argv += group
    argv = [
        w[: rng.randrange(3, len(w))]
        if w.startswith("--") and len(w) > 3 and rng.random() < 0.1
        else w
        for w in argv
    ]
    for _ in range(rng.choice([0, 0, 1, 2])):
        i = rng.randrange(len(argv) + 1)
        edit = rng.choice(["replace", "insert", "drop"])
        if edit == "insert" or i == len(argv):
            argv.insert(i, rng.choice(_WORDS))
        elif edit == "replace":
            argv[i] = rng.choice(_WORDS)
        else:
            del argv[i]
    if rng.random() < 0.1:
        argv.insert(0, rng.choice(_WORDS))
    return argv


def test_one_command_parser_matches_the_full_parser(monkeypatch):
    # main parses with build_parser(argv[0]) when argv[0] names a command:
    # its Namespace, or its exit code with stdout and stderr, must be the
    # full parser's on a fixed corpus and on seeded random argvs
    def stop(args):
        raise _Parsed(vars(args))

    monkeypatch.setattr(cli, "_validate", stop)
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(20261019)
    argvs = _CORPUS + [_random_argv(rng) for _ in range(2000)]
    exits = 0
    for argv in argvs:
        want = _outcome(lambda a: cli.build_parser().parse_args(a), argv)
        assert _outcome(cli.main, argv) == want, argv
        exits += isinstance(want, tuple)
    # both kinds of outcome are well represented
    assert 400 < exits < len(argvs) - 400, exits


def test_main_builds_only_the_named_subparser(monkeypatch):
    built = []
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *a: built.append(a) or full(*a))
    with pytest.raises(SystemExit):
        cli.main(["verify", "a.json", "extra"])
    with pytest.raises(SystemExit):
        cli.main(["--quiet", "verify", "a.json"])
    with pytest.raises(SystemExit):
        cli.main([])
    monkeypatch.setattr(sys, "argv", ["sylvtri", "stats", "a.json", "extra"])
    with pytest.raises(SystemExit):
        cli.main()
    assert built == [("verify",), (None,), (None,), ("stats",)]
    # the top-level help lists one line per subparser built
    helps = [help_ for help_, _, _ in cli.COMMANDS.values()]
    assert [h in full("verify").format_help() for h in helps] == [
        h == "verify a stored artifact" for h in helps
    ]
    assert all(h in full().format_help() for h in helps)


def test_main_reads_sys_argv(tmp_path, capsys, monkeypatch):
    path = tmp_path / "d2.json"
    pipeline.save(pipeline.triangulate_p2dual(2), str(path))
    monkeypatch.setattr(sys, "argv", ["sylvtri", "stats", str(path)])
    assert cli.main() == 0
    assert capsys.readouterr().out.startswith("p2dual n=2 points=7 cells=6 dim=2")
    monkeypatch.setattr(sys, "argv", ["sylvtri", "verify", str(path), "extra"])
    with pytest.raises(SystemExit) as e:
        cli.main()
    assert e.value.code == 2
    assert capsys.readouterr().err == (
        "usage: sylvtri [-h] {triangulate,verify,fan,invariants,stats} ...\n"
        "sylvtri: error: unrecognized arguments: extra\n"
    )
