"""Check that `sylvtri verify`'s regularity violation lines are the first
ten of the Fraction oracle (oracles.verify_regularity_fraction).

Usage: python tests/violation_lines.py ARTIFACT STDERR

ARTIFACT is the file verify read and STDERR the file its stderr went to.
Exits nonzero unless the oracle finds at least ten violating pairs and
the `regularity violation:` lines in STDERR are its first ten, in order.
"""

import sys

import oracles
from sylvtri import pipeline

art = pipeline.load(sys.argv[1])
report = oracles.verify_regularity_fraction(art.triangulation, art.witness)
want = [
    f"regularity violation: cell {c} point {p} margin {m}"
    for c, p, m in report.violating_pairs[:10]
]
got = [
    ln for ln in open(sys.argv[2]).read().splitlines()
    if ln.startswith("regularity violation:")
]
assert len(want) == 10 and got == want, (got, want)
