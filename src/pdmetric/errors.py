"""Exception types shared across the package."""

__all__ = [
    "PdmetricError",
    "SpaceMismatch",
    "NoGeodesicOracle",
    "InvalidMetric",
    "TooLarge",
    "ParseError",
    "PreconditionViolated",
    "NotCauchy",
    "EmptyAnnulus",
    "CoverageGap",
]


class PdmetricError(Exception):
    """Base class for every package-specific error."""


class SpaceMismatch(PdmetricError):
    """Objects living over different metric pairs were combined."""


class NoGeodesicOracle(PdmetricError):
    """The metric pair exposes no geodesic oracle."""


class InvalidMetric(PdmetricError, ValueError):
    """An explicit distance matrix violates the metric axioms."""


class TooLarge(PdmetricError):
    """Problem size exceeds the configured cap for exact computation."""


class ParseError(PdmetricError, ValueError):
    """Malformed diagram, space, or matching input."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PreconditionViolated(PdmetricError, ValueError):
    """Input does not satisfy a probe's documented precondition."""


class NotCauchy(PdmetricError):
    """A diagram sequence admits no geometric convergence envelope."""


class EmptyAnnulus(PdmetricError):
    """No sample point lies in the requested annulus around A."""


class CoverageGap(PdmetricError):
    """A point falls outside the reach of the supplied epsilon-net."""
