"""Exception types shared across the package."""


class MinkqmError(Exception):
    """Base class for all library errors."""


class DomainError(MinkqmError, ValueError):
    """Input outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or too close to) a pole."""


class ConvergenceError(MinkqmError, ArithmeticError):
    """An iterative computation exceeded its term or iteration cap."""


class ConsistencyError(MinkqmError, ArithmeticError):
    """An internal cross-check failed (an exact identity lost too much accuracy)."""


class BracketError(MinkqmError, RuntimeError):
    """A root scan found no sign change inside the configured window."""


class FitQualityError(MinkqmError, RuntimeError):
    """A least-squares phase fit left a residual above tolerance."""


class InsufficientRootsError(MinkqmError, RuntimeError):
    """Fewer eigenvalue crossings exist in the window than requested."""
