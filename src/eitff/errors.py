"""Exception types shared across the package."""


class EitffError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(EitffError, ValueError):
    """Operands have incompatible or unexpected dimensions."""


class DomainError(EitffError, ValueError):
    """An argument lies outside the operation's domain."""


class InvalidInputError(EitffError, ValueError):
    """Input data fails a numeric precondition (not a shape problem)."""


class SingularMatrixError(EitffError, ValueError):
    """A matrix required to be invertible is (numerically) singular."""


class NumericError(EitffError, RuntimeError):
    """A numeric routine failed to converge or returned inconsistent data."""


class InfeasibleParametersError(EitffError, ValueError):
    """The requested object does not exist for these parameters.

    `bound` names the violated feasibility bound, e.g. ``"n <= rho+2"``.
    """

    def __init__(self, message: str, bound: str | None = None):
        super().__init__(message)
        self.bound = bound


class FormatError(EitffError, ValueError):
    """A serialized payload violates the file schema."""
