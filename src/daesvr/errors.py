"""Exception types shared across the package."""

__all__ = [
    "DaeSvrError",
    "DomainError",
    "NonConvergence",
    "ParseError",
    "ValidationError",
    "EvaluationError",
    "ShapeError",
    "NotPositiveDefinite",
    "SingularSystem",
    "MissingExact",
    "SelfCheckError",
]


class DaeSvrError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DaeSvrError):
    """An argument lies outside the mathematical domain of an operation."""


class NonConvergence(DaeSvrError):
    """An iteration failed to converge within its iteration budget.

    The best iterate seen so far, when one exists, is attached as
    ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ParseError(DaeSvrError):
    """Problem text could not be parsed; message carries location context."""


class ValidationError(DaeSvrError):
    """A parsed problem violates a structural rule."""


class EvaluationError(DaeSvrError):
    """A field, expression or residual evaluation is undefined or non-finite.

    Raised for a value that is not finite, and by compiled expressions for
    a math domain error, a division by zero or an overflow.
    """


class ShapeError(DaeSvrError):
    """Assembled operator blocks have inconsistent dimensions."""


class NotPositiveDefinite(DaeSvrError):
    """A matrix expected to be symmetric positive definite is not."""


class SingularSystem(DaeSvrError):
    """A square system has a zero pivot after row equilibration."""


class MissingExact(DaeSvrError):
    """An error report was requested for a problem with no exact solution."""


class SelfCheckError(DaeSvrError):
    """A case's stated exact solution fails to satisfy its own equations.

    Raised by the benchmark layer before any solve; guards against
    transcription slips in the encoded systems.
    """
