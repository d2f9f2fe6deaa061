"""Exception types shared across the package."""


class SchurRootsError(Exception):
    """Base class for all package errors."""


class ModelError(SchurRootsError):
    """Invalid model data: shape mismatch, Hermiticity failure, bad interval."""


class AdmissibilityError(SchurRootsError):
    """The coupling is too strong for the requested contour.

    Carries the admissibility report so callers can surface the failed
    numbers instead of a bare message.
    """

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class NumericsError(SchurRootsError):
    """A numerical contract was violated: divergence, quadrature budget
    exhausted, a residual above its tolerance, or a singular matrix where
    an invertible one is required."""


class ConfigError(SchurRootsError):
    """Malformed or inconsistent run configuration."""
