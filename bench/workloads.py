"""The benchmark's two workloads and the checks on their outputs.

Each workload is a closed loop with one client in one thread: an op
starts when the previous op has finished.  Library caches are cleared
before every op (and before every CLI command), so each pays what a fresh
``sylvtri`` process pays.  Every op returns its phase times and the list
of checks it failed; a wrong verdict, exit code, output line or artifact
digest is a failure.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import re
import time

from sylvtri import cli, family, pipeline

import tamper

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# the certify-l4 workload's level-4 artifact, built once per source tree:
# rebuilding it in every run would add 25-40 s to each run
BUILD_DIR = os.path.join(ROOT, ".bench_run", "build")

DIGESTS = os.path.join(HERE, "digests.json")

# cells of each family member: s_n - 1 for p2dual and p2, 2 (s_{n-1} - 1) for p1
CELLS = {
    "p2dual": {1: 2, 2: 6, 3: 42, 4: 1806},
    "p2": {1: 2, 2: 6, 3: 42, 4: 1806},
    "p1": {2: 4, 3: 12, 4: 84, 5: 3612},
}

# the family module's memo tables, captured before any tracing rebinds them
_LRU_CACHES = [f for f in vars(family).values() if hasattr(f, "cache_clear")]


def cold() -> None:
    """Drop every in-process cache of the library."""
    pipeline.clear_cache()
    for f in _LRU_CACHES:
        f.cache_clear()


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@functools.cache
def recorded_digests() -> dict[str, str]:
    with open(DIGESTS) as fh:
        return json.load(fh)


def source_digest() -> str:
    """sha256 over the package sources, so a changed program is rebuilt."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def check_digest(path: str, key: str, failures: list[str]) -> None:
    got, want = sha256(path), recorded_digests()[key]
    if got != want:
        failures.append(f"{key}: artifact sha256 {got} != recorded {want}")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One `sylvtri` command in this process, with cold caches."""
    cold()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def expect(argv, rc, out, want_rc: int, pattern: str, failures: list[str]) -> None:
    line = out.strip().splitlines()[0] if out.strip() else ""
    if rc != want_rc or not re.fullmatch(pattern, line):
        failures.append(
            f"`sylvtri {' '.join(argv)}`: exit {rc}, line {line!r}; "
            f"wanted exit {want_rc}, line /{pattern}/"
        )


def verify_line(cells: int) -> str:
    return (
        "valid=true simplicial=true unimodular=true regular=true "
        f"checksum={cells}"
    )


FAN_LINE = r"complete smooth crepant rays=\d+ cones=\d+"


class BuildL4:
    """Cold level-4 construction of all three families, saved to disk."""

    name = "build-l4"

    def __init__(self, workdir: str, seed: int) -> None:
        self.workdir = workdir

    def setup(self) -> None:
        pass

    def describe(self) -> list[str]:
        return []

    def op(self) -> tuple[dict[str, float], list[str]]:
        failures: list[str] = []
        cold()
        t0 = time.perf_counter()
        arts = [
            pipeline.triangulate_p2dual(4),
            pipeline.triangulate_p2(4),
            pipeline.triangulate_p1(5),
        ]
        paths = []
        for art in arts:
            paths.append(
                os.path.join(self.workdir, f"{art.spec.family.value}_{art.spec.n}.json")
            )
            pipeline.save(art, paths[-1])
        build_s = time.perf_counter() - t0
        for path in paths:
            check_digest(path, os.path.basename(path)[: -len(".json")], failures)
        return {"build_s": build_s}, failures


class CertifyL4:
    """Accept a level-4 artifact, then reject seeded tampered copies of it.

    Set-up takes the level-4 p2dual artifact that the code under test
    builds, from BUILD_DIR when this source tree built it before, and
    makes the tampered copies.
    """

    name = "certify-l4"

    def __init__(self, workdir: str, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.setup_failures: list[str] = []
        self.reported: list[str | None] = []

    def setup(self) -> None:
        self.setup_failures = []
        self.clean = os.path.join(BUILD_DIR, f"p2dual_4-{source_digest()[:16]}.json")
        if not os.path.exists(self.clean):
            os.makedirs(BUILD_DIR, exist_ok=True)
            tmp = f"{self.clean}.{os.getpid()}"
            cold()
            pipeline.save(pipeline.triangulate_p2dual(4), tmp)
            cold()
            os.replace(tmp, self.clean)
        check_digest(self.clean, "p2dual_4", self.setup_failures)
        with open(self.clean) as fh:
            data = json.load(fh)
        self.copies = []
        for k, t in enumerate(tamper.tampered_copies(data, self.seed)):
            path = os.path.join(self.workdir, f"tampered_{k}_{t.kind}.json")
            with open(path, "w") as fh:
                json.dump(t.data, fh, separators=(",", ":"))
            self.copies.append((path, t))

    def op(self) -> tuple[dict[str, float], list[str]]:
        failures = list(self.setup_failures)
        t0 = time.perf_counter()
        self._certify(failures)
        t1 = time.perf_counter()
        self._reject(failures)
        t2 = time.perf_counter()
        return {"certify_s": t1 - t0, "reject_s": t2 - t1}, failures

    def _certify(self, failures: list[str]) -> None:
        fan_out = os.path.join(self.workdir, "fan_4.json")
        for argv, pattern in (
            (["verify", self.clean, "--mode", "local", "--quiet"], verify_line(1806)),
            (["fan", self.clean, "--out", fan_out, "--quiet"], FAN_LINE),
            (["stats", self.clean, "--quiet"],
             r"p2dual n=4 points=\d+ cells=1806 dim=4 provenance_steps=\d+"),
        ):
            rc, out, _ = run_cli(argv)
            expect(argv, rc, out, 0, pattern, failures)

    def _reject(self, failures: list[str]) -> None:
        self.reported = []
        for path, t in self.copies:
            rc, _, err = run_cli(["verify", path, "--mode", "local", "--quiet"])
            got = next(
                (ln for ln in err.splitlines() if ln.startswith("regularity violation:")),
                None,
            )
            self.reported.append(got)
            if rc != 3:
                failures.append(f"tampered copy {t.kind}@{t.position}: exit {rc}, wanted 3")
            if got != t.first_violation:
                failures.append(
                    f"tampered copy {t.kind}@{t.position}: reported {got!r}, "
                    f"wanted {t.first_violation!r}"
                )

    def describe(self) -> list[str]:
        """What each tampered copy changed and what the checker reported."""
        return [
            f"tampered copy {k}: {t.kind} at cell position {t.position}, {t.target}; "
            f"checker reported: {got}"
            for k, ((_, t), got) in enumerate(zip(self.copies, self.reported))
        ]


# p1 --n 4 runs the same path but is left out to bound the run: it alone
# takes over a minute
SMALL = [("p2dual", n) for n in (1, 2, 3)] + [("p2", n) for n in (1, 2, 3)] + [
    ("p1", n) for n in (2, 3)
]


class CliSmall:
    """`triangulate`, `verify`, `fan` and `stats` at levels 1-3, where the
    default verify is all-pairs."""

    name = "cli-small"

    def __init__(self, workdir: str, seed: int) -> None:
        self.workdir = workdir

    def setup(self) -> None:
        pass

    def describe(self) -> list[str]:
        return []

    def op(self) -> tuple[dict[str, float], list[str]]:
        failures: list[str] = []
        built = []
        t0 = time.perf_counter()
        for fam, n in SMALL:
            cells = CELLS[fam][n]
            art = os.path.join(self.workdir, f"{fam}_{n}.json")
            fan_out = os.path.join(self.workdir, f"fan_{fam}_{n}.json")
            for argv, pattern in (
                (["triangulate", "--family", fam, "--n", str(n), "--out", art, "--quiet"],
                 rf"{fam} {n} cells={cells} points=\d+ regular=true unimodular=true"),
                (["verify", art, "--quiet"], verify_line(cells)),
                (["fan", art, "--out", fan_out, "--quiet"], FAN_LINE),
                (["stats", art, "--quiet"],
                 rf"{fam} n={n} points=\d+ cells={cells} dim={n} provenance_steps=\d+"),
            ):
                rc, out, _ = run_cli(argv)
                expect(argv, rc, out, 0, pattern, failures)
            built.append((art, f"{fam}_{n}"))
        cli_pass_s = time.perf_counter() - t0
        for art, key in built:
            check_digest(art, key, failures)
        return {"cli_pass_s": cli_pass_s}, failures


WORKLOADS = {w.name: w for w in (BuildL4, CertifyL4, CliSmall)}
