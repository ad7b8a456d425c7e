"""Exception hierarchy shared across the package."""


class SylvtriError(Exception):
    """Base class for package errors."""


class DimensionMismatch(SylvtriError, ValueError):
    """Inputs disagree on (or violate) an expected dimension."""


class DegenerateGeometry(SylvtriError, ValueError):
    """A geometric object fails an independence / non-degeneracy precondition."""


class DomainError(SylvtriError, ValueError):
    """A point or parameter lies outside the operation's domain."""


class FeasibilityLimit(SylvtriError, RuntimeError):
    """A construction was refused because it exceeds configured size bounds."""


class ArtifactFormatError(SylvtriError, ValueError):
    """An artifact file is malformed or fails load-time validation."""


class UnsupportedVersion(ArtifactFormatError):
    """An artifact file declares a format version this code cannot read."""


class VerificationFailure(SylvtriError, RuntimeError):
    """An internal pipeline verification step failed."""
