"""Record the sha256 of every saved artifact the benchmark checks.

    python3 bench/record_digests.py

Builds p2dual and p2 at levels 1-4 and p1 at levels 2-5, saves each with
`pipeline.save` and writes their digests to bench/digests.json.  Run it
only when a change is meant to alter artifact bytes (a FORMAT_VERSION
bump); otherwise every benchmark op checks against the recorded digests.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from sylvtri import pipeline  # noqa: E402
from sylvtri.family import Family  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    tmp = os.path.join(ROOT, ".bench_run", f"digests-{os.getpid()}")
    os.makedirs(tmp)
    digests = {}
    try:
        for fam, levels in workloads.CELLS.items():
            for n in levels:
                path = os.path.join(tmp, f"{fam}_{n}.json")
                pipeline.save(pipeline.triangulate(Family(fam), n), path)
                digests[f"{fam}_{n}"] = workloads.sha256(path)
                print(f"{fam}_{n} {digests[f'{fam}_{n}']}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(workloads.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
