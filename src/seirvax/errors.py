"""Exception types shared across the package."""


class SeirvaxError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SeirvaxError):
    """Invalid parameter value, scenario configuration, or config file."""


class SingularStateError(SeirvaxError):
    """Total population at or below the extinction floor, or nan; dynamics
    undefined. total is the offending population."""

    def __init__(self, total: float, floor: float):
        super().__init__(f"total population {total!r} at or below floor {floor}")
        self.total = total


class DecompositionError(SeirvaxError):
    """Constant/varying split infeasible: reference infectious fraction exceeded."""


class DegenerateProfileError(SeirvaxError):
    """Reference profile parameters collapse the formula (zero denominator)."""
