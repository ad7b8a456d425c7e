"""sylvtri benchmark: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload build-l4 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see workloads.py and NOTES.md):

  build-l4    cold level-4 build of p2dual, p2 and p1 (level 5), saved
  certify-l4  `verify --mode local`, `fan`, `stats` on a level-4 artifact,
              then `verify` on a seeded pair of tampered copies
  cli-small   `triangulate`, `verify`, `fan`, `stats` at levels 1-3

Ops run back to back until ``--seconds`` have passed (at least one op).
With ``--trace 0`` the last line reports the end-to-end metrics: median
op time, set-up time, peak RSS and the share of ops that passed every
check.  Op and set-up times are read from a host-speed clock
(hostclock.py), which scales wall time by a reference kernel sampled
throughout, so that load from other tenants of the host cancels out.
With ``--trace 1`` one op runs with call counting only, then one traced
op; their call counts must agree (the cold-cache self-test), and
the last line reports per-layer metrics.  The spans go to
``.bench_run/trace-<workload>-<seed>.jsonl.gz``.

``--workload all`` runs every workload one after another, each in its own
process, and prints each workload's metrics under the names of its phases
(build_s, certify_s, reject_s, cli_pass_s) with set-up time, peak RSS and
fail ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
SETUPS = 11
PHASES = ("build_s", "certify_s", "reject_s", "cli_pass_s")
ALL = ("build-l4", "certify-l4", "cli-small")


def setup_s(wl, now) -> float:
    """Median time, by the clock `now`, of one set-up.

    A set-up is a fresh interpreter importing the CLI, which every
    `sylvtri` command pays, followed by the workload's own set-up.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUPS):
        t0 = now()
        subprocess.run(
            [sys.executable, "-c", "import sylvtri.cli"],
            env=env, cwd=ROOT, check=True, timeout=60,
        )
        wl.setup()
        times.append(now() - t0)
    return statistics.median(times)


def run_op(wl) -> tuple[float, dict[str, float], list[str]]:
    t0 = time.perf_counter()
    try:
        phases, failures = wl.op()
    except Exception as e:  # a crash inside the library is a failed op
        traceback.print_exc()
        phases, failures = {}, [f"op raised {type(e).__name__}: {e}"]
    return time.perf_counter() - t0, phases, failures


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return {
        "witness.max_bits": "bits",
        "witness.min_eps_log2": "log2",
        "pipeline.artifact_bytes": "bytes",
        "pipeline.l5_projected_rss_mb": "MB",
        "fail_ratio": "ratio",
        "trace.covered_share": "ratio",
    }.get(name, "count")


def traced_ops(wl, tr) -> tuple[list, dict[str, float]]:
    """One op with call counting only, then one traced op.

    Both ops start from cold caches, so every call count must repeat
    exactly (the cold-cache self-test).  The counted op stands in for the
    untraced one in the overhead: counting adds about 0.5 us a call, a
    third of what a span adds.
    """
    ops, counts = [], []
    for spans in (False, True):
        tr.reset()
        tr.install(spans)
        try:
            ops.append(run_op(wl))
        finally:
            tr.uninstall()
        counts.append(tr.counts())
    if counts[0] != counts[1]:
        differ = sorted(k for k in counts[0].keys() | counts[1].keys()
                        if counts[0].get(k) != counts[1].get(k))
        ops[1][2].append(f"cold-cache self-test: counts differ for {differ}")
    layers = tr.layer_metrics(ops[1][0])
    layers["trace.overhead_s"] = ops[1][0] - ops[0][0]
    return ops, layers


def run_all(args) -> int:
    """Each workload in a child process; a summary under the phase names."""
    results, table = {}, []
    for name in ALL:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        res = results[name] = json.loads(lines[-1])
        phases = json.loads(next(ln for ln in lines if ln.startswith("phases: "))[8:])
        m = res["metrics"]
        named = {k: (v, "s") for k, v in phases.items()}
        named["setup_s"] = (m["setup_s"]["value"], "s")
        named["peak_rss_mb"] = (m["peak_rss_mb"]["value"], "MB")
        named["fail_ratio"] = (res["failed"] / res["attempted"], "ratio")
        for k, (v, unit) in named.items():
            table.append((f"{name}.{k}", v, unit))
            print(f"{name:<11} {k:<12} {v:>12.4f} {unit}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {k: metric(v, unit) for k, v, unit in table},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sylvtri", "__init__.py")):
        print(f"bench: no sylvtri package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import hostclock
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(RUN_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](workdir, args.seed)
        if args.trace:
            wl.setup()
            tr = tracer.Tracer()
            ops, layers = traced_ops(wl, tr)
            trace_path = os.path.join(RUN_DIR, f"trace-{args.workload}-{args.seed}.jsonl.gz")
            tr.write(trace_path, {"workload": args.workload, "seed": args.seed})
            print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        else:
            ops, scaled = [], []
            with hostclock.HostClock() as clock:
                setup_median_s = setup_s(wl, clock.now)
                t_start = time.perf_counter()
                while not ops or time.perf_counter() - t_start < args.seconds:
                    t0 = clock.now()
                    ops.append(run_op(wl))
                    scaled.append(clock.now() - t0)
            ref = sorted(clock.samples)
            print(f"host: {len(ref)} reference samples, min {ref[0] * 1e3:.2f} ms, "
                  f"median {statistics.median(ref) * 1e3:.2f} ms, max {ref[-1] * 1e3:.2f} ms; "
                  f"scaled to {hostclock.REFERENCE_S * 1e3:.2f} ms")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # phase times of the untraced ops (the counted op in a traced run)
    untraced = [p for _, p, _ in ops[:1 if args.trace else None]]
    phases = {
        k: statistics.median(p[k] for p in untraced if k in p)
        for k in PHASES
        if any(k in p for p in untraced)
    }

    attempted = len(ops)
    failed = sum(1 for _, _, f in ops if f)
    for i, (wall, op_phases, failures) in enumerate(ops):
        shown = " ".join(f"{k}={v:.3f}" for k, v in op_phases.items())
        host = "" if args.trace else f"scaled={scaled[i]:.3f}s "
        print(f"op {i}: {host}wall={wall:.3f}s {shown}")
        for f in failures:
            print(f"  FAILED: {f}")
    for line in wl.describe():
        print(line)
    print(f"phases: {json.dumps(phases)}")

    if args.trace:
        metrics = {f"op.{k}": metric(phases.get(k, 0.0), "s") for k in PHASES}
        layers["fail_ratio"] = failed / attempted
        metrics.update({k: metric(v, layer_unit(k)) for k, v in layers.items()})
    else:
        metrics = {
            "op_s": metric(statistics.median(scaled), "s"),
            "setup_s": metric(setup_median_s, "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
            "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
