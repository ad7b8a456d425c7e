"""Span tracing of sylvtri's public functions, from outside the package.

`Tracer.install()` rebinds every public module-level function of the
library modules to a wrapper that counts its calls and records one span
per call: name, start, end and the span that was open when it was called.
`install(spans=False)` only counts.  Library code calls its collaborators
through module attributes (``exact.solve``, ``witness.pull_sweep``, ...),
so the rebinding sees every call made that way.  A few wrappers also
record counters that only the call's arguments or result carry (pulls,
witness bit-lengths, bytes written, cones, and the (cell, point) pairs
the regularity check evaluates).

Spans stay in memory and are written out once, after timing ends.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import os
import time

from sylvtri import cli, exact, family, invariants, pipeline, polytope, subdivision, witness

MODULES = (exact, polytope, family, subdivision, witness, pipeline, invariants, cli)

# cells of the level-5 p2dual triangulation (s_5 - 1), the projection target
L5_CELLS = 3_263_442

_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def _rss_mb() -> float:
    """Current resident set size of this process in MB."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * _PAGE / 2**20
    except OSError:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def public_functions(mod):
    """(attribute name, function) for each public function defined in mod."""
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == mod.__name__:
            yield name, obj


class _CountingFunctional:
    """Affine functional that counts its evaluations."""

    __slots__ = ("fn", "counter")

    def __init__(self, fn, counter: list[int]):
        self.fn = fn
        self.counter = counter

    def __call__(self, point):
        self.counter[0] += 1
        return self.fn(point)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []  # per name id
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self.stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters (wrappers stay installed)."""
        self.calls[:] = [0] * len(self.calls)
        self.spans.clear()
        self.stack.clear()
        self.pairs = [0]
        self.pulls = 0
        self.max_bits = 0
        self.min_eps_log2: float | None = None
        self.artifact_bytes = 0
        self.cones = 0
        self.levels: list[tuple[int, int, int, float]] = []  # (span, n, cells, rss)

    # -- wrapping -----------------------------------------------------------

    def install(self, spans: bool = True) -> None:
        after = {"witness.pull_sweep": self._after_pull_sweep}
        if spans:
            after.update({
                "witness.cell_interpolant": self._after_cell_interpolant,
                "pipeline.save": self._after_save,
                "pipeline.triangulate_p2dual": self._after_p2dual,
                "invariants.fan_from_triangulation": self._after_fan,
            })
        for mod in MODULES:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(public_functions(mod)):
                name = f"{short}.{attr}"
                self._originals.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, after.get(name), spans))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def _wrap(self, name, fn, after, record_spans):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        calls, spans, stack, clock = self.calls, self.spans, self.stack, time.perf_counter

        def counted(*args, **kwargs):
            calls[nid] += 1
            result = fn(*args, **kwargs)
            return result if after is None else after(-1, args, result)

        def traced(*args, **kwargs):
            calls[nid] += 1
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                result = after(idx, args, result)
            return result

        return traced if record_spans else counted

    # -- counters read from arguments and results -------------------------------

    def _after_pull_sweep(self, idx, args, result):
        _, w, log = result
        self.pulls += len(log)
        for v in w.values:
            self.max_bits = max(
                self.max_bits, abs(v.numerator).bit_length(), v.denominator.bit_length()
            )
        for _, eps in log:
            e = math.log2(eps)
            if self.min_eps_log2 is None or e < self.min_eps_log2:
                self.min_eps_log2 = e
        return result

    def _after_cell_interpolant(self, idx, args, result):
        parent = self.spans[idx][3]
        if parent >= 0 and self.names[self.spans[parent][0]] == "witness.verify_regularity":
            return _CountingFunctional(result, self.pairs)
        return result

    def _after_save(self, idx, args, result):
        self.artifact_bytes += os.path.getsize(args[1])
        return result

    def _after_p2dual(self, idx, args, result):
        self.levels.append((idx, args[0], len(result.triangulation.cells), _rss_mb()))
        return result

    def _after_fan(self, idx, args, result):
        self.cones += len(result.cones)
        return result

    # -- analysis -------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Calls per function since the last reset, and the pulls made."""
        out = {"witness.pulls": self.pulls}
        for nid, c in enumerate(self.calls):
            if c:
                out[self.names[nid]] = out.get(self.names[nid], 0) + c
        return out

    def layer_metrics(self, op_wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans, names = self.spans, self.names
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        self_t = [d - c for d, c in zip(dur, child)]

        def outermost(i: int, group: set[int]) -> bool:
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] in group:
                    return False
                p = spans[p][3]
            return True

        def ids(*fnames: str) -> set[int]:
            return {k for k, nm in enumerate(names) if nm in fnames}

        def incl(*fnames: str) -> float:
            group = ids(*fnames)
            return sum(
                dur[i] for i in range(n) if spans[i][0] in group and outermost(i, group)
            )

        def calls(fname: str) -> int:
            group = ids(fname)
            return sum(1 for s in spans if s[0] in group)

        def self_of(pred) -> float:
            group = {k for k, nm in enumerate(names) if pred(nm)}
            return sum(self_t[i] for i in range(n) if spans[i][0] in group)

        def module(m: str):
            return lambda nm: nm.split(".", 1)[0] == m

        proj_s, proj_rss = self._l5_projection(dur, child)
        return {
            "family.lattice_points_p2dual.s": incl("family.lattice_points_p2dual"),
            "family.lattice_points_p2dual.calls": calls("family.lattice_points_p2dual"),
            "exact.solve.calls": calls("exact.solve"),
            "exact.affine_interpolant.calls": calls("exact.affine_interpolant"),
            "exact.functional_on_affine_basis.calls": calls(
                "exact.functional_on_affine_basis"
            ),
            "exact.det_int.calls": calls("exact.det_int"),
            "exact.self_s": self_of(module("exact")),
            "polytope.nvol.calls": calls("polytope.nvol"),
            "polytope.inner_functionals.calls": calls("polytope.inner_functionals"),
            "polytope.contains.calls": calls("polytope.contains"),
            "polytope.in_hull_caratheodory.calls": calls("polytope.in_hull_caratheodory"),
            "polytope.self_s": self_of(module("polytope")),
            "subdivision.pullback_restricted.s": incl("subdivision.pullback_restricted"),
            "subdivision.cone_glue.s": incl(
                "subdivision.restrict_to_hyperplane",
                "subdivision.cone_subdivision",
                "subdivision.glue",
            ),
            "subdivision.apply_lattice_map.s": incl("subdivision.apply_lattice_map"),
            "subdivision.verify.s": incl("subdivision.verify"),
            "subdivision.common_face_ok.calls": calls("subdivision.common_face_ok"),
            "subdivision.common_face_ok.s": incl("subdivision.common_face_ok"),
            "witness.pull_sweep.s": incl("witness.pull_sweep"),
            "witness.pulls": self.pulls,
            "witness.witness_glue.s": incl("witness.witness_glue"),
            "witness.max_bits": self.max_bits,
            "witness.min_eps_log2": self.min_eps_log2 or 0.0,
            "witness.verify_regularity.s": incl("witness.verify_regularity"),
            "witness.pairs_checked": self.pairs[0],
            "pipeline.triangulate.self_s": self_of(
                lambda nm: nm.startswith("pipeline.triangulate")
            ),
            "pipeline.save.s": incl("pipeline.save"),
            "pipeline.load.s": incl("pipeline.load"),
            "pipeline.artifact_bytes": self.artifact_bytes,
            "pipeline.l5_projected_s": proj_s,
            "pipeline.l5_projected_rss_mb": proj_rss,
            "invariants.fan_from_triangulation.s": incl("invariants.fan_from_triangulation"),
            "invariants.cones": self.cones,
            "cli.self_s": self_of(module("cli")),
            "trace.spans": n,
            "trace.covered_share": sum(self_t) / op_wall_s if op_wall_s > 0 else 0.0,
        }

    def _l5_projection(self, dur, child) -> tuple[float, float]:
        """Level-5 time and RSS, fitted on the level-n work of n >= 2.

        A level's own time is its triangulate_p2dual span minus the
        recursive call for the level below.  Time is fitted as a power of
        the cell count (least squares in log-log), RSS linearly in cells.
        Without all of levels 2-4 both are 0.
        """
        by_level: dict[int, list[tuple[int, float, float]]] = {}
        for idx, n, cells, rss in self.levels:
            if child[idx] == 0:
                continue  # served from the in-process cache
            own = dur[idx] - sum(
                dur[j]
                for j, s in enumerate(self.spans)
                if s[3] == idx and s[0] == self.spans[idx][0]
            )
            if n >= 2 and own > 0:
                by_level.setdefault(n, []).append((cells, own, rss))
        if not {2, 3, 4} <= by_level.keys():
            return 0.0, 0.0
        xs, ts, rs = [], [], []
        for obs in by_level.values():
            obs.sort(key=lambda o: o[1])
            cells, own, rss = obs[len(obs) // 2]
            xs.append(cells)
            ts.append(own)
            rs.append(rss)
        b, a = _fit([math.log(x) for x in xs], [math.log(t) for t in ts])
        rb, ra = _fit(xs, rs)
        return math.exp(a + b * math.log(L5_CELLS)), ra + rb * L5_CELLS

    def write(self, path: str, header: dict) -> None:
        """Write the spans as gzipped JSON lines: header, then one span a line."""
        t_base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "fields": ["name", "start_s", "end_s", "parent"]}))
            fh.write("\n")
            for nid, t0, t1, parent in self.spans:
                fh.write(
                    f'["{self.names[nid]}",{t0 - t_base:.9f},{t1 - t_base:.9f},{parent}]\n'
                )


def _fit(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares slope and intercept of ys against xs."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0
    return slope, my - slope * mx

