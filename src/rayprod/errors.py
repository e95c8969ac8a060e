"""Exception types shared across the package.

Each class maps to a distinct process exit status in the CLI (see
``rayprod.cli``), so library code raises the most specific one that applies.
"""

__all__ = ["RayprodError", "ParameterError", "ResourceError", "NumericError", "FitError"]


class RayprodError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(RayprodError, ValueError):
    """An argument violates a documented precondition or domain."""


class ResourceError(RayprodError, RuntimeError):
    """A cost guard tripped; the message names a cheaper fallback if one exists."""


class NumericError(RayprodError, ArithmeticError):
    """A numerical procedure failed to converge or produced unusable values."""


class FitError(NumericError):
    """The moment set is degenerate (nonpositive variance); no Gamma fit exists."""
