"""End-to-end construction of certified unimodular triangulations.

Builds the triangulation of the dual simplex family recursively (columns
over the previous level and one cone over their tops, assembled at once,
then pulling at every lattice point), transports it to the second family
through the duality map, and extends it to the first family by a pair of
cones.  Every artifact carries its regularity witness and an
ordered provenance log of the steps that built it: each level's
pullback, the glue and cone apexes with their heights, the lattice map,
and every pulled point with its drop.  No command replays the log yet:
verify checks the cells and the witness, not the steps.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import lt
from typing import Any

from . import family, subdivision, witness
from .errors import (
    ArtifactFormatError,
    DomainError,
    FeasibilityLimit,
    UnsupportedVersion,
    VerificationFailure,
)
from .family import Family, FamilySpec
from .subdivision import Cell, Triangulation
from .witness import CertificateReport, RegularityWitness

FORMAT_VERSION = 1
MAX_CELLS = 5_000_000  # default cell limit of every build and of the loader

ProvenanceStep = dict[str, Any]


@dataclass(frozen=True)
class PipelineArtifact:
    """A certified triangulation: family member, cells, witness, build log."""

    spec: FamilySpec
    triangulation: Triangulation
    witness: RegularityWitness
    provenance: tuple[ProvenanceStep, ...]

    @cached_property
    def certificate(self) -> CertificateReport:
        """The regularity check with its structural proof, run once."""
        return witness.verify_regularity(self.triangulation, self.witness)


_CACHE: dict[tuple[Family, int], PipelineArtifact] = {}


def clear_cache() -> None:
    _CACHE.clear()


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def triangulate_p2dual(
    n: int,
    max_cells: int = MAX_CELLS,
    cache_dir: str | None = None,
) -> PipelineArtifact:
    """Certified unimodular triangulation of the level-n dual simplex.

    Base case n = 1 is the segment [-1, 1] split at 0.  Level n is
    assembled in one subdivision of the level-n lattice points: the column
    over each previous cell, with ends (v, -1) and (v, h(v)) at its
    vertices v, and the cone from the apex z = (y0, s_{n-1} - 1),
    y0 = (-1, ..., -1), over the column's top, the cell lifted by
    y -> (y, h(y)).  The store is family.lattice_points_p2dual(n) as it
    comes, since z is the only lattice point above the slanted hyperplane
    t = h(y): sum_{i<k} 1/s_i = 1 - 1/(s_k - 1) gives h(y0) = s_{n-1} - 2,
    the y0 column tops out at z (column_height), and every other column
    at h(y).  Pulling at every lattice point in lexicographic order then
    triangulates it.  The cone cells lie on z's side of the hyperplane and
    the columns on the other, and the two parts agree on it by
    construction, since each cone is built on a column top.  Every level,
    the base case included, is served only once _first_failure accepts
    it, the rule a cache entry passes: the expected cell count and the
    certificate, which the artifact keeps for its callers.

    The witness is w(y, t) = w_prev(y) on the columns and omega at z,
    which must exceed, at z, the interpolant of every column.  A column
    over sigma has height w_prev(v) at both ends of each vertical edge, so
    its interpolant is A_sigma(y), the previous level's cell interpolant.
    Each A_sigma lies below the convex function g that w_prev certifies
    and equals it on sigma (De Loera-Rambau-Santos, *Triangulations*,
    2010, ch. 5), so the largest A_sigma(y0) is g(y0) = w_prev(y0), y0
    being a vertex of the previous polytope; omega = 1 + w_prev(y0).
    """
    spec = FamilySpec(Family.P2DUAL, n)
    cached = _load_cached(spec, max_cells, cache_dir)
    if cached is not None:
        return cached

    if n == 1:
        tri = subdivision.make_subdivision(
            [(-1,), (0,), (1,)],
            family.build(spec).vertices,
            [[(-1,), (0,)], [(0,), (1,)]],
        )
        art = PipelineArtifact(
            spec,
            tri,
            RegularityWitness((Fraction(1), Fraction(0), Fraction(1))),
            ({"step": "base"},),
        )
        return _serve(art, max_cells, cache_dir)

    prev = triangulate_p2dual(n - 1, max_cells, cache_dir)
    t_prev, w_prev = prev.triangulation, prev.witness
    prov: list[ProvenanceStep] = list(prev.provenance)

    h = lambda y: family.hyperplane_height(n, y)
    y0 = (-1,) * (n - 1)
    z = (*y0, family.sylvester(n - 1) - 1)
    cell_lists = []
    for c in t_prev.cells:
        verts = t_prev.cell_points(c)
        cell_lists.append(sorted({(*v, t) for v in verts for t in (-1, h(v))}))
        cell_lists.append([(*v, h(v)) for v in verts] + [z])
    glued = subdivision.make_subdivision(
        family.lattice_points_p2dual(n), family.build(spec).vertices, cell_lists
    )
    omega = 1 + w_prev.values[t_prev.index[y0]]
    heights = [w_prev.values[t_prev.index[p[:-1]]] for p in glued.points]
    heights[glued.index[z]] = omega
    prov.append({"step": "pullback", "level": n})
    prov.append({"step": "glue", "apex": list(z), "omega": _frac_str(omega)})

    tri, w_tri, pulls = witness.pull_sweep(glued, RegularityWitness(heights))
    prov.append(
        {
            "step": "pull_all",
            "order": "lex",
            "epsilons": [
                {"point": list(p), "epsilon": _frac_str(e)} for p, e in pulls
            ],
        }
    )

    art = PipelineArtifact(spec, tri, w_tri, tuple(prov))
    return _serve(art, max_cells, cache_dir)


def triangulate_p2(
    n: int,
    max_cells: int = MAX_CELLS,
    cache_dir: str | None = None,
) -> PipelineArtifact:
    """Triangulation of the level-n second-family simplex.

    Transport of the dual triangulation through the inverse duality map,
    in one make_subdivision call: each dual store point is mapped once,
    and its image keeps its height.  The map has |det| 1
    (DualityMap.inverse) and must send the dual simplex onto this one
    (else DomainError), so it maps store onto store, and the artifact
    keeps the dual certificate that _serve accepted: under such a map,
    with the heights travelling with the points, every fact it reads is
    invariant.  Volumes |det (v, 1)| and facet pairs are kept, every
    orientation takes one global sign, a point lies in a cell iff its
    image lies in the image, so containment and store coverage are kept,
    and a cell's interpolant composed with the map is its image's, so
    every wall inequality compares the same numbers.
    """
    spec = FamilySpec(Family.P2, n)
    cached = _load_cached(spec, max_cells, cache_dir)
    if cached is not None:
        return cached
    dual = triangulate_p2dual(n, max_cells, cache_dir)
    inverse = family.duality_map(n).inverse()
    ambient = family.build(spec).vertices
    if sorted(map(inverse.apply, dual.triangulation.ambient)) != sorted(ambient):
        raise DomainError(f"duality map misses the level-{n} p2 simplex")
    images = [inverse.apply(q) for q in dual.triangulation.points]
    heights = dict(zip(images, dual.witness.values))
    cells = [[images[i] for i in c] for c in dual.triangulation.cells]
    tri = subdivision.make_subdivision(images, ambient, cells)
    w = RegularityWitness(tuple(heights[p] for p in tri.points))
    matrix = [list(row) for row in inverse.matrix]
    prov = dual.provenance + ({"step": "lattice_map", "matrix": matrix},)
    art = PipelineArtifact(spec, tri, w, prov)
    vars(art)["certificate"] = dual.certificate
    return _store_cached(art, cache_dir)


def triangulate_p1(
    n_plus_1: int,
    max_cells: int = MAX_CELLS,
    cache_dir: str | None = None,
) -> PipelineArtifact:
    """Triangulation of the level-(n+1) first-family simplex, n >= 1.

    The second-family triangulation is embedded at last coordinate 0, and
    each embedded cell is coned both to the last basis vector e_last
    (height 0) and to the weight vertex w1 = (2 w2, -1), w2 the second
    family's weight vertex, in one subdivision.  The cones to w1 lie on
    its side of {x_{n+1} = 0} and those to e_last on the other, and the
    two parts agree on the hyperplane by construction, since both are
    built on the embedded cells; verify proves the final result.

    No check runs at the build: the construction fixes what one would
    read.  The second family has s_n - 1 unimodular cells: built, the
    dual level's cells, which _first_failure accepted, under a map of
    |det| 1; loaded, checked by _first_failure.  So there are 2 (s_n - 1)
    cells, one cone to each apex per cell, and each is unimodular:
    expanding det[(x, 1)] along the last coordinate, 0 on the base and
    a_last at the apex, gives nvol(cone) = |a_last| nvol(base), with
    a_last 1 for e_last, -1 for w1.

    The height omega at w1 must exceed the interpolant at w1 of every
    cell of the first cone.  The cell over sigma is 0 at e_last and
    A_sigma(y) = a_sigma . y + b_sigma at (y, 0), A_sigma being the
    second family's cell interpolant, so its interpolant is
    a_sigma . y + b_sigma (1 - t), which at w1 is 2 A_sigma(w2).  Each
    A_sigma lies below the convex function g that w_p2 certifies and
    equals it on sigma (De Loera-Rambau-Santos, *Triangulations*, 2010,
    ch. 5), so the largest of these is 2 g(w2) = 2 w_p2(w2), w2 being a
    vertex of the second family's simplex; omega = 1 + 2 w_p2(w2).
    """
    spec = FamilySpec(Family.P1, n_plus_1)
    cached = _load_cached(spec, max_cells, cache_dir)
    if cached is not None:
        return cached
    n = n_plus_1 - 1
    p2 = triangulate_p2(n, max_cells, cache_dir)
    t2 = p2.triangulation

    e_last = tuple(1 if i == n else 0 for i in range(n_plus_1))
    w1 = family.weight_vertex_w1(n_plus_1)
    omega = 1 + 2 * p2.witness.values[t2.index[family.weight_vertex_w2(n)]]
    heights = {(*p, 0): v for p, v in zip(t2.points, p2.witness.values)}
    heights[e_last], heights[w1] = 0, omega
    base = [tuple((*p, 0) for p in t2.cell_points(c)) for c in t2.cells]
    tri = subdivision.make_subdivision(
        heights.keys(),
        family.build(spec).vertices,
        [(*cell, apex) for apex in (e_last, w1) for cell in base],
    )

    prov = p2.provenance + (
        {"step": "cone", "apex": list(e_last), "omega": "0/1"},
        {"step": "glue", "apex": list(w1), "omega": _frac_str(omega)},
    )
    w = RegularityWitness(tuple(heights[p] for p in tri.points))
    art = PipelineArtifact(spec, tri, w, prov)
    return _store_cached(art, cache_dir)


def triangulate(
    fam: Family,
    n: int,
    max_cells: int = MAX_CELLS,
    cache_dir: str | None = None,
) -> PipelineArtifact:
    """Dispatch to the family-specific construction."""
    if fam is Family.P2DUAL:
        return triangulate_p2dual(n, max_cells, cache_dir)
    if fam is Family.P2:
        return triangulate_p2(n, max_cells, cache_dir)
    return triangulate_p1(n, max_cells, cache_dir)


# ---------------------------------------------------------------------------
# serialization


def to_json_dict(art: PipelineArtifact) -> dict:
    return {
        "version": FORMAT_VERSION,
        "family": art.spec.family.value,
        "n": art.spec.n,
        "points": [[str(x) for x in p] for p in art.triangulation.points],
        "cells": [list(c) for c in art.triangulation.cells],
        "witness": [_frac_str(v) for v in art.witness.values],
        "provenance": list(art.provenance),
    }


def save(art: PipelineArtifact, path: str) -> None:
    """Write an artifact as versioned JSON (big integers as strings)."""
    with open(path, "w") as fh:
        fh.write(json.dumps(to_json_dict(art), separators=(",", ":")) + "\n")


def _integer(x: Any) -> int:
    """A JSON integer field (n, a cell index) as int; a float, boolean or
    string is refused, not truncated or parsed (int(3.9) == 3,
    int(True) == 1), since save writes these fields as JSON integers."""
    if type(x) is int:
        return x
    raise TypeError(f"{x!r} is not a JSON integer")


def _coordinate(x: Any) -> int:
    """A point coordinate, a JSON integer or the str of an integer as save
    writes it, as int (int() also reads " -1 ", "+1" and "-0_1")."""
    if not isinstance(x, str):
        return _integer(x)
    v = int(x)
    if str(v) != x:
        raise ValueError(f"{x!r} is not a canonical integer string")
    return v


def _array(x: Any) -> list:
    """A JSON array field as list; a string or object is refused, not
    iterated (tuple("015") reads its characters, tuple({"a": 1}) its
    keys)."""
    if type(x) is list:
        return x
    raise TypeError(f"{x!r:.40} is not a JSON array")


def _cells(x: Any) -> tuple[Cell, ...]:
    """The cells field as index tuples.  The types are checked in bulk, a
    set of the entries' types and one of the indices'; only a bad entry
    runs the per-entry checks (_array, _integer), which name the first."""
    cells = _array(x)
    if set(map(type, cells)) <= {list} and set(
        map(type, chain.from_iterable(cells))
    ) <= {int}:
        return tuple(map(tuple, cells))
    return tuple(tuple(map(_integer, _array(c))) for c in cells)


def _cells_fit(cells: tuple[Cell, ...], npts: int, size: int) -> bool:
    """Whether every cell has size indices in range(npts), strictly
    increasing, decided by C-level passes over all cells at once: min and
    max of the indices, the set of lengths, and, once every cell has size
    entries, the k-th index of every cell against its (k+1)-th, read as
    strided slices of the flattened indices."""
    flat = list(chain.from_iterable(cells))
    return (
        (not flat or 0 <= min(flat) and max(flat) < npts)
        and set(map(len, cells)) <= {size}
        and all(
            all(map(lt, flat[k::size], flat[k + 1 :: size]))
            for k in range(size - 1)
        )
    )


def _rational(x: Any) -> Fraction:
    """A witness entry, "p/q" as save writes it or a Fraction's str, as
    Fraction; a JSON number or boolean (Fraction(True) == 1, a float reads
    as its binary expansion) and any other string Fraction() reads
    (" -1/8 ", "-0.125", "1_0/3") are refused.

    "p" or "p/q" is read directly: p and q canonical integer strings (the
    rule of _coordinate), q >= 1 and gcd(p, q) = 1, which are exactly the
    strings _frac_str or str write.  Any other string is refused through
    Fraction, which raises ValueError or ZeroDivisionError on the ones it
    cannot read.  It first reads x with any exponent made e0, which parses
    iff x does without building the power (Fraction("1e999999999") would);
    only then does x itself go to Fraction, for Fraction's own error."""
    if not isinstance(x, str):
        raise TypeError(f"{x!r} is not a rational string")
    num, slash, den = x.partition("/")
    p, q = _int_or_none(num), _int_or_none(den) if slash else 1
    if p is not None and q is not None and q >= 1 and gcd(p, q) == 1:
        return Fraction(p, q)
    try:
        Fraction(re.sub(r"[eE][-+]?\d+(_\d+)*(?=\s*\Z)", "e0", x))
    except (ValueError, ZeroDivisionError):
        Fraction(x)
    raise ValueError(f"{x!r} is not a canonical rational string")


def _int_or_none(x: str) -> int | None:
    """The int x is the canonical str of, or None."""
    try:
        v = int(x)
    except ValueError:
        return None
    return v if str(v) == x else None


def from_json_dict(data: dict, max_cells: int = MAX_CELLS) -> PipelineArtifact:
    if not isinstance(data, dict):
        raise ArtifactFormatError("artifact must be a JSON object")
    version = data.get("version")
    # True == 1 and 1.0 == 1 in Python, so the type is checked first
    if type(version) is not int or version != FORMAT_VERSION:
        raise UnsupportedVersion(
            f"unsupported artifact version {version!r}, expected {FORMAT_VERSION}"
        )
    try:
        fam = Family(data["family"])
        n = _integer(data["n"])
        points = tuple(
            tuple(map(_coordinate, _array(p))) for p in _array(data["points"])
        )
        cells = _cells(data["cells"])
        wvals = tuple(map(_rational, _array(data["witness"])))
        prov = tuple(_array(data["provenance"]))
        for step in prov:
            if type(step) is not dict or not isinstance(step.get("step"), str):
                raise TypeError(f"provenance step {step!r:.40} has no string 'step'")
        spec = FamilySpec(fam, n)  # DomainError (n < 1, p1 n < 2) is a ValueError
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
        raise ArtifactFormatError(f"malformed artifact field: {e}") from e
    # refuse a level triangulate would refuse before building its ambient,
    # whose coordinates grow like the Sylvester numbers
    if family.cell_count(spec, max_cells) is None:
        raise FeasibilityLimit(
            f"artifact level {n} needs more than {max_cells} cells (loader limit)"
        )
    if not points:
        raise ArtifactFormatError("point store is empty")
    if list(points) != sorted(set(points)):
        raise ArtifactFormatError("point store is not sorted and deduplicated")
    for p in points:  # every family's level-n simplex spans R^n
        if len(p) != n:
            raise ArtifactFormatError(
                f"point {p} has {len(p)} coordinates, expected {n}"
            )
    if len(wvals) != len(points):
        raise ArtifactFormatError("witness length does not match point store")
    if not _cells_fit(cells, len(points), n + 1):
        for c in cells:  # name the first bad cell
            if any(i < 0 or i >= len(points) for i in c):
                raise ArtifactFormatError(f"cell {c} has out-of-range indices")
            if any(a >= b for a, b in zip(c, c[1:])):
                raise ArtifactFormatError(
                    f"cell {c} indices are not strictly increasing"
                )
            if len(c) != n + 1:
                raise ArtifactFormatError(
                    f"cell {c} has {len(c)} vertices, expected {n + 1}"
                )
    tri = Triangulation(points, family.build(spec).vertices, cells)
    return PipelineArtifact(spec, tri, RegularityWitness(wvals), prov)


def load(path: str, max_cells: int = MAX_CELLS) -> PipelineArtifact:
    """Read and validate an artifact file of at most max_cells cells."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as e:
        # JSONDecodeError, UnicodeDecodeError and the error of a JSON
        # integer past Python's digit limit for int() are ValueErrors
        raise ArtifactFormatError(f"cannot read artifact {path}: {e}") from e
    return from_json_dict(data, max_cells)


# ---------------------------------------------------------------------------
# caching


def _cache_path(spec: FamilySpec, cache_dir: str) -> str:
    return os.path.join(cache_dir, f"{spec.family.value}_{spec.n}.json")


def _load_cached(
    spec: FamilySpec, max_cells: int, cache_dir: str | None
) -> PipelineArtifact | None:
    """The artifact for spec from memory or cache_dir, or None if absent.

    Every build asks here first, so the feasibility refusal lives here: a
    spec whose own triangulation has more than max_cells cells
    (family.cell_count) is refused (FeasibilityLimit) before any memory or
    disk lookup, and a cached artifact is refused exactly when building it
    would be.

    A disk entry is untrusted: read under the same max_cells, it must hold
    the family and level it is filed under and pass _first_failure, as a
    built p2dual level must (_serve), before it is served.
    """
    expected = family.cell_count(spec, max_cells)
    if expected is None:
        raise FeasibilityLimit(
            f"level {spec.n} needs more than {max_cells} cells (limit --max-cells)"
        )
    key = (spec.family, spec.n)
    if key in _CACHE:
        return _CACHE[key]
    if cache_dir is not None:
        path = _cache_path(spec, cache_dir)
        if os.path.exists(path):
            art = load(path, max_cells)
            if art.spec != spec:
                raise ArtifactFormatError(
                    f"cache entry {path} holds {art.spec.family.value} "
                    f"n={art.spec.n}, not the requested "
                    f"{spec.family.value} n={spec.n}"
                )
            failure = _first_failure(art, expected)
            if failure is not None:
                raise VerificationFailure(f"cache entry {path}: {failure}")
            _CACHE[key] = art
            return art
    return None


def _first_failure(art: PipelineArtifact, expected: int) -> str | None:
    """The first reason art, of expected cells, is not a certified
    triangulation, or None: the cell count, then the certificate, whose
    structural proof and wall check art keeps.  It alone decides whether a
    cache entry (_load_cached) or a built p2dual level (_serve) is
    served."""
    tri = art.triangulation
    if len(tri.cells) != expected:
        return f"cell count {len(tri.cells)} != expected {expected}"
    cert = art.certificate
    if cert.structure.failures:
        return cert.structure.failures[0]
    # now every cell is unimodular: a valid triangulation's normalized
    # volumes are integers >= 1 summing to nvol(P), and the expected count
    # is nvol(P) (family.cell_count), so each is 1
    if not cert.regular:
        return witness.violation_line(cert.violating_pairs[0])
    return None


def _serve(
    art: PipelineArtifact, max_cells: int, cache_dir: str | None
) -> PipelineArtifact:
    """Store and return a built p2dual level once _first_failure accepts
    it; else raise VerificationFailure naming the failure and the
    provenance by its step names."""
    failure = _first_failure(art, family.cell_count(art.spec, max_cells))
    if failure is not None:
        steps = ", ".join(step["step"] for step in art.provenance)
        raise VerificationFailure(f"{failure}; provenance steps: {steps}")
    return _store_cached(art, cache_dir)


def _store_cached(art: PipelineArtifact, cache_dir: str | None) -> PipelineArtifact:
    """Remember an artifact; on disk, write a temp file and rename it.

    os.replace is atomic, so a crash mid-write never leaves a truncated
    cache entry for the next run to load.  The temp name carries the
    process id, so concurrent writers do not share a temp file.
    """
    _CACHE[(art.spec.family, art.spec.n)] = art
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        path = _cache_path(art.spec, cache_dir)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            save(art, tmp)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    return art
