"""Exception types shared across the package."""


class SeirvaxError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SeirvaxError):
    """Invalid parameter value, scenario configuration, or config file."""


class SingularStateError(SeirvaxError):
    """Total population at or below the extinction floor, or nan; dynamics
    undefined. total is the offending population, when known."""

    def __init__(self, message: str, total: float | None = None):
        super().__init__(message)
        self.total = total


class DecompositionError(SeirvaxError):
    """Constant/varying split infeasible: reference infectious fraction exceeded."""


class IndicatorMismatchError(SeirvaxError):
    """Modulation family evaluated with indicator flags outside its applicable case."""


class DegenerateProfileError(SeirvaxError):
    """Reference profile parameters collapse the formula (zero denominator)."""


class NonUniformGridError(SeirvaxError):
    """Diagnostic requires uniformly spaced trajectory samples."""


class NotApplicableError(SeirvaxError):
    """Diagnostic preconditions not met for this parameter set."""
