"""Exception types raised throughout the package."""


class ShiftKrylovError(Exception):
    """Base class for all package errors."""


class DimensionError(ShiftKrylovError):
    """Raised when operand dimensions are inconsistent (a caller bug)."""


class MatrixMarketError(ShiftKrylovError):
    """Raised on malformed Matrix Market input.

    Carries the offending line number when one is known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NearSingularError(ShiftKrylovError):
    """Raised when a projector system or a recycle basis is singular to
    working precision."""


class CollinearityError(ShiftKrylovError):
    """Raised for collinearity-related applicability problems: a solver
    that requires collinear residuals got unrelated ones, every residual
    column is zero, so no reference direction exists, or residuals stay
    collinear after the last attempt of a block solver's decollinearizing
    strategy."""


class EigenConvergenceError(ShiftKrylovError):
    """Raised when the eigensolver fails to converge."""


class ConfigError(ShiftKrylovError):
    """Raised for invalid experiment configuration."""
