"""Exception types shared across the package, and the scalar conversion."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to meet the requested tolerance.

    Carries the best available estimate so callers can inspect how far
    the computation got.
    """

    def __init__(self, message, best_estimate=None, achieved_error=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved_error = achieved_error


def as_float(value) -> float:
    """A number as a Python float, taken once where an argument enters, so a
    numpy scalar over- and underflows silently, as a Python float does; a
    string is a TypeError, an int beyond the double range a DomainError."""
    if isinstance(value, (str, bytes)):
        raise TypeError(f"want a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError("an argument lies beyond the double range") from None
