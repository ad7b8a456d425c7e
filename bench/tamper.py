"""Seeded tampering of a certified artifact, for the reject path.

Two kinds of tampered copy:

- ``raise``: one witness height is raised by RAISE.  Every cell that has
  the point as a vertex now lifts above some of its neighbours' heights.
- ``cell``: one cell has a vertex replaced by a far store point, so the
  cell overlaps others (bad volume checksum, unmatched facets) and its
  interpolant lies above the heights of the points it swallows.

The regularity check walks the cells in stored order and stops after its
51st violation, so a copy's reject time grows with the position of the
first cell that reaches 51 violations.  The generator only accepts a copy
whose tampered cell is that cell, by evaluating every point against the
tampered cell's interpolant in exact arithmetic, and it predicts the first
violation (cell, point, exact margin) the checker must report.  One seeded
u in [0, 1) places the raised copy at u and the corrupted copy at 1 - u of
a fixed cell range, so the pair's total reject time is nearly the same for
every seed.

Only `fractions` is used, not the library under test.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from fractions import Fraction

RAISE = 2**32
EARLY_EXIT = 51  # violations after which the checker stops


@dataclass(frozen=True)
class Tampered:
    kind: str  # "raise" or "cell"
    position: int  # index of the tampered cell in stored order
    target: str  # the raised point or the replaced cell, for the record
    data: dict  # the tampered artifact JSON
    first_violation: str  # the first "regularity violation" line expected


def _solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gauss-Jordan solve of a square system; None when singular."""
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [a[i][n] for i in range(n)]


def _violations(points, heights, cell) -> list[tuple[int, Fraction]] | None:
    """Store indices with interpolant >= height against one cell, in store order.

    None when the cell is degenerate.
    """
    rows = [[Fraction(x) for x in points[i]] + [Fraction(1)] for i in cell]
    sol = _solve(rows, [heights[i] for i in cell])
    if sol is None:
        return None
    *coeffs, const = sol
    cset = set(cell)
    out = []
    for pi, p in enumerate(points):
        if pi in cset:
            continue
        margin = heights[pi] - (sum(c * x for c, x in zip(coeffs, p)) + const)
        if margin <= 0:
            out.append((pi, margin))
    return out


def _line(cell, point, margin: Fraction) -> str:
    return f"regularity violation: cell {tuple(cell)} point {tuple(point)} margin {margin}"


def _by_distance(target: int, limit: int) -> list[int]:
    return sorted(range(limit), key=lambda k: (abs(k - target), k))


def _raised(data, points, heights, cells, first, target) -> Tampered:
    for pi in sorted(first, key=lambda i: (abs(first[i] - target), i)):
        k = first[pi]
        h = list(heights)
        h[pi] += RAISE
        viol = _violations(points, h, cells[k])
        if viol is None or len(viol) < EARLY_EXIT:
            continue
        out = copy.deepcopy(data)
        out["witness"][pi] = f"{h[pi].numerator}/{h[pi].denominator}"
        qi, margin = viol[0]
        return Tampered(
            "raise", k, f"point {tuple(points[pi])}", out,
            _line(cells[k], points[qi], margin),
        )
    raise RuntimeError("no raised height reaches the early exit")


def _corrupted(data, points, heights, cells, target, limit) -> Tampered:
    for k in _by_distance(target, limit):
        cell = cells[k]
        dim = len(points[0])
        centroid = [sum(points[i][d] for i in cell) for d in range(dim)]
        far = sorted(
            (q for q in range(len(points)) if q not in cell),
            key=lambda q: (-sum((len(cell) * points[q][d] - centroid[d]) ** 2
                                for d in range(dim)), q),
        )
        for q in far[:8]:
            for j in range(len(cell)):
                new = tuple(sorted(cell[:j] + (q,) + cell[j + 1:]))
                viol = _violations(points, heights, new)
                if viol is None or len(viol) < EARLY_EXIT:
                    continue
                out = copy.deepcopy(data)
                out["cells"][k] = list(new)
                qi, margin = viol[0]
                return Tampered(
                    "cell", k, f"cell {cell} -> {new}", out,
                    _line(new, points[qi], margin),
                )
    raise RuntimeError("no corrupted cell reaches the early exit")


def tampered_copies(data: dict, seed: int) -> list[Tampered]:
    """The seeded reject set: one raised height and one corrupted cell."""
    points = [tuple(int(x) for x in p) for p in data["points"]]
    heights = [Fraction(v) for v in data["witness"]]
    cells = [tuple(int(i) for i in c) for c in data["cells"]]
    first: dict[int, int] = {}
    for k, c in enumerate(cells):
        for i in c:
            first.setdefault(i, k)
    # a raised height is found at the first cell holding the point; the pair
    # sits in the first half of the range every point reaches, which bounds
    # the reject time of one op to about half an accepting check
    half = max(first.values()) // 2
    u = random.Random(seed).random()
    return [
        _raised(data, points, heights, cells, first, round(u * half)),
        _corrupted(data, points, heights, cells, round((1 - u) * half), half + 1),
    ]
