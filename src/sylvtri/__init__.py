"""Certified regular unimodular triangulations of Sylvester-weighted
simplices, with crepant toric resolution fans and exact invariant tables."""

from .errors import (
    ArtifactFormatError,
    DegenerateGeometry,
    DimensionMismatch,
    DomainError,
    FeasibilityLimit,
    SylvtriError,
    UnsupportedVersion,
    VerificationFailure,
)
from .family import Family, FamilySpec, DualityMap, build, degrees, duality_map, sylvester
from .invariants import (
    InvariantReport,
    ResolutionFan,
    betti_euler,
    fan_from_triangulation,
    hodge_diamond,
    index_formula,
)
from .pipeline import (
    PipelineArtifact,
    load,
    save,
    triangulate,
    triangulate_p1,
    triangulate_p2,
    triangulate_p2dual,
)
from .polytope import LatticeSimplex, nvol, polar_dual
from .subdivision import Subdivision, Triangulation, VerifyReport, verify
from .witness import CertificateReport, RegularityWitness, verify_regularity

__all__ = [
    "ArtifactFormatError",
    "CertificateReport",
    "DegenerateGeometry",
    "DimensionMismatch",
    "DomainError",
    "DualityMap",
    "Family",
    "FamilySpec",
    "FeasibilityLimit",
    "InvariantReport",
    "LatticeSimplex",
    "PipelineArtifact",
    "RegularityWitness",
    "ResolutionFan",
    "Subdivision",
    "SylvtriError",
    "Triangulation",
    "UnsupportedVersion",
    "VerificationFailure",
    "VerifyReport",
    "betti_euler",
    "build",
    "degrees",
    "duality_map",
    "fan_from_triangulation",
    "hodge_diamond",
    "index_formula",
    "load",
    "nvol",
    "polar_dual",
    "save",
    "sylvester",
    "triangulate",
    "triangulate_p1",
    "triangulate_p2",
    "triangulate_p2dual",
    "verify",
    "verify_regularity",
]
