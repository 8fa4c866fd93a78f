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
    """Root isolation or polishing failed to converge or to certify."""


class ReconstructionError(QkError, ArithmeticError):
    """The full root expansion's certified radius is not below 1/2, so its
    rounding is not certainly the exact term and is never returned."""
