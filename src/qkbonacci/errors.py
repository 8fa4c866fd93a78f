"""Exception types shared across the package."""


class QkError(Exception):
    """Base class for all qkbonacci errors."""


class DomainError(QkError, ValueError):
    """An index or parameter lies outside an operation's domain."""


class RegimeError(QkError, ValueError):
    """Operation is only defined in the bounds-certified regime (q >= 3)."""


class PoleInIntervalError(QkError, ArithmeticError):
    """Interval argument straddles a pole of a rational function."""


class RootSolveError(QkError, ArithmeticError):
    """Root isolation or polishing failed to converge or to certify.

    Carries diagnostics instead of silently returning a bad root set: the
    last residual magnitudes |Phi(z)| when seeding or polishing fails, the
    inclusion-disc radii when the discs fail to certify.
    """

    def __init__(self, message, residuals=()):
        super().__init__(message)
        self.residuals = tuple(residuals)


class ReconstructionError(QkError, ArithmeticError):
    """Rounding guard failed when summing the full root expansion.

    Signals insufficient working precision or a root-finding defect; the
    rounded value is never returned in that case.
    """
