"""Toric fan export and closed-form invariant tables.

The fan of a certified triangulation consists of cones over its boundary
cells; completeness, smoothness, and crepancy are recomputed from the ray
and cone data rather than inherited.  The numeric tables (index, Betti,
Euler, middle Hodge numbers) are exact closed forms in the Sylvester
sequence; the small Hodge diamonds are stored literally and reconciled
against the formulas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import exact, polytope
from .errors import DomainError, FeasibilityLimit
from .family import sylvester
from .pipeline import PipelineArtifact
from .polytope import Point
from .subdivision import boundary_facets, pair_facets


@dataclass(frozen=True)
class ResolutionFan:
    """Complete simplicial fan data with independently computed flags."""

    rays: tuple[Point, ...]
    cones: tuple[tuple[int, ...], ...]
    complete: bool
    smooth: bool
    crepant: bool

    @property
    def flags(self) -> dict[str, bool]:
        return {
            "complete": self.complete,
            "smooth": self.smooth,
            "crepant": self.crepant,
        }


def fan_from_triangulation(art: PipelineArtifact) -> ResolutionFan:
    """Fan whose maximal cones lie over the boundary cells of an artifact.

    Each facet of a triangulation cell on the boundary of the ambient
    polytope (subdivision.boundary_facets) contributes the cone over it.
    The origin must be strictly interior.  The fan is smooth when every
    cone has |det| = 1, which makes every ray primitive too: each ray
    lies in a cone, and its gcd divides that cone's det.

    Every test is a sign test on the ambient simplex's integer rows
    (Y, D) = polytope.simplex_inverse, D > 0: Y[k] . (x, 1) / D is the
    barycentric coordinate of x at vertex k, so row k is >= 0 on the
    simplex and 0 exactly on its facet opposite vertex k.  The origin
    is strictly interior iff every row's constant Y[k][-1] is > 0.  A
    ray, on a facet by construction, is crepant iff polytope.facet_table
    does not count it outside.

    The fan is complete when subdivision.pair_facets pairs off every
    ridge (a cone minus one ray, as sorted ray indices), each cone given
    with the determinant of its rays in index order, and the cones'
    |det|s sum to D, the ambient's normalized volume.  Why the cones then
    cover R^d without overlap: by pair_facets' argument the number m(x)
    of cones containing x is constant almost everywhere on R^d.  No cone
    is flat (a zero det gives its ridges side 0, which folds), so m >= 1.
    The rays of a cone over the cell facet G lie on the hyperplane of one
    ambient facet, whose row is 0 there and > 0 at the origin, so the
    cone meets that row's half-space, which contains P, in conv(0, G), of
    normalized volume |det|.  Summing over the cones, m * D <= sum |det|,
    and a sum of D makes m = 1.  So no ridge lies in more than two cones,
    as two of them would lie on one side of it, where m >= 2.  The volume
    sum alone proves nothing: two overlapping cones can make up for a gap.
    """
    t = art.triangulation
    rows, nvol = polytope.simplex_inverse(t.ambient)
    if any(row[-1] <= 0 for row in rows):
        raise DomainError("origin is not strictly interior to the polytope")

    masks, outside = polytope.facet_table(rows, t.points)
    ray_index: dict[int, int] = {}
    rays: list[Point] = []
    cones: set[tuple[int, ...]] = set()
    for c in t.cells:
        for k in boundary_facets(c, masks):
            facet = c[:k] + c[k + 1 :]
            for i in facet:
                if i not in ray_index:
                    ray_index[i] = len(rays)
                    rays.append(t.points[i])
            cones.add(tuple(sorted(ray_index[i] for i in facet)))

    cone_list = tuple(sorted(cones))
    dets = [exact.det_int([rays[i] for i in cone]) for cone in cone_list]
    smooth = all(abs(dv) == 1 for dv in dets)
    pending: dict[tuple[int, ...], tuple[int, int]] = {}
    folded = any(f for f, _ in pair_facets(zip(cone_list, dets), None, pending))
    complete = sum(map(abs, dets)) == nvol and not folded and not pending
    crepant = outside.isdisjoint(ray_index)
    return ResolutionFan(tuple(rays), cone_list, complete, smooth, crepant)


def fan_to_json_dict(fan: ResolutionFan) -> dict:
    return {
        "rays": [[str(x) for x in r] for r in fan.rays],
        "cones": [list(c) for c in fan.cones],
        "flags": fan.flags,
    }


def save_fan(fan: ResolutionFan, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(fan_to_json_dict(fan), separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# closed-form tables


def index_formula(n: int) -> int:
    """The index (s_{n-1} - 1)(2 s_{n-1} - 3): 1, 6, 66, 3486, ..."""
    if n < 1:
        raise DomainError("index_formula requires n >= 1")
    s = sylvester(n - 1)
    return (s - 1) * (2 * s - 3)


def _product_terms(upto: int) -> int:
    """Product (s_0 - 1)(s_1 - 1) ... (s_upto - 1)."""
    out = 1
    for k in range(upto + 1):
        out *= sylvester(k) - 1
    return out


@dataclass(frozen=True)
class InvariantReport:
    """Exact invariants of the two hypersurface families in dimension n.

    The middle Hodge numbers are closed forms for odd n only; for even n
    they are None (the Betti sum equals the Euler number there and the
    middle cohomology is not tabulated by a formula).
    """

    n: int
    index: int
    betti_sum: int
    euler_i1: int
    euler_i2: int
    middle_hodge_i1: int | None
    middle_hodge_i2: int | None

    def euler(self, i: int) -> int:
        return self.euler_i1 if i == 1 else self.euler_i2

    def middle_hodge(self, i: int) -> int | None:
        return self.middle_hodge_i1 if i == 1 else self.middle_hodge_i2


def betti_euler(n: int) -> InvariantReport:
    """Betti sum, Euler numbers, and odd-n middle Hodge numbers at level n."""
    if n < 1:
        raise DomainError("betti_euler requires n >= 1")
    betti = 2 * _product_terms(n)
    if n % 2 == 0:
        return InvariantReport(n, index_formula(n), betti, betti, betti, None, None)
    prefix = _product_terms(n - 1)
    sn = sylvester(n)
    h1 = prefix * (2 * sn - 4)
    h2 = _product_terms(n)
    e1 = -prefix * (2 * sn - 6)
    return InvariantReport(n, index_formula(n), betti, e1, 0, h1, h2)


# Hodge diamonds of the four small crepant resolutions, stored literally
# as rows of the diamond (top to bottom); entries in row k have total
# degree k.
_HODGE_DIAMONDS: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {
    (3, 1): (
        (1,),
        (0, 0),
        (0, 11, 0),
        (1, 491, 491, 1),
        (0, 11, 0),
        (0, 0),
        (1,),
    ),
    (3, 2): (
        (1,),
        (0, 0),
        (0, 251, 0),
        (1, 251, 251, 1),
        (0, 251, 0),
        (0, 0),
        (1,),
    ),
    (4, 1): (
        (1,),
        (0, 0),
        (0, 252, 0),
        (0, 0, 0, 0),
        (1, 303148, 1213644, 303148, 1),
        (0, 0, 0, 0),
        (0, 252, 0),
        (0, 0),
        (1,),
    ),
    (4, 2): (
        (1,),
        (0, 0),
        (0, 151700, 0),
        (0, 0, 0, 0),
        (1, 151700, 1213644, 151700, 1),
        (0, 0, 0, 0),
        (0, 151700, 0),
        (0, 0),
        (1,),
    ),
}


def hodge_diamond(n: int, i: int) -> tuple[tuple[int, ...], ...]:
    """Literal Hodge diamond of the dimension-n family-i resolution.

    Only n in {3, 4} are tabulated; the table is consistency-checked
    against the Betti/Euler closed forms before being returned.
    """
    if (n, i) not in _HODGE_DIAMONDS:
        raise DomainError(f"Hodge diamond not tabulated for (n={n}, i={i})")
    diamond = _HODGE_DIAMONDS[(n, i)]
    report = betti_euler(n)
    total = sum(sum(row) for row in diamond)
    alternating = sum(
        (-1) ** k * sum(row) for k, row in enumerate(diamond)
    )
    if total != report.betti_sum or alternating != report.euler(i):
        raise DomainError(
            f"tabulated diamond (n={n}, i={i}) disagrees with closed forms"
        )
    return diamond


# The table's entries grow doubly exponentially: the level-13 Betti sum has
# 3,335 decimal digits, the level-14 one 6,670, above the 4,300-digit limit
# Python puts on int-to-str conversion, so no table past level 13 prints.
MAX_TABLE_N = 13


def invariant_table(n_max: int) -> list[InvariantReport]:
    if n_max > MAX_TABLE_N:
        raise FeasibilityLimit(
            f"invariant tables stop at n = {MAX_TABLE_N}: past it the Betti sum "
            "has more digits than Python's 4,300-digit int-to-str limit"
        )
    return [betti_euler(n) for n in range(1, n_max + 1)]
