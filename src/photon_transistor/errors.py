"""Exception and warning types, and the number rule for input files, shared across the package."""

import math


def number(key: str, value) -> float:
    """``value`` as a float if it is a JSON number: not a bool, not a string, and finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return float(value)


class StateInvariantError(ValueError):
    """A density matrix violates trace, Hermiticity or positivity bounds."""


class CutoffError(ValueError):
    """A Fock-space cutoff is too small for the requested operation."""


class CutoffWarning(UserWarning):
    """A Fock-space cutoff is marginal; results may carry truncation error."""


class NumericsError(RuntimeError):
    """A numerical routine failed to reach its accuracy or stability target."""


class DegenerateDataError(ValueError):
    """Input data carries no usable structure (e.g. all readings identical)."""


class InsufficientDataError(ValueError):
    """A conditional subset is empty or records are missing required fields."""


class UnsolvableCalibrationError(ValueError):
    """The four-intensity calibration system cannot be inverted."""


class UnphysicalInputError(ValueError):
    """Calibration inputs lead to probabilities far outside [0, 1]."""
