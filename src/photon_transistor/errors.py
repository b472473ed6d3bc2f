"""Exception and warning types, and the one rule for the device, protocol and calibration files.

Each file is parsed by :func:`read_json`, each JSON object in it passes :func:`fields` and
each numeric value :func:`number`; a breach is a ``ValueError`` naming its key (CLI exit code 2).
"""

import json
import math


def read_json(path, what: str):
    """The parsed contents of the ``what`` file at ``path``; malformed JSON is a ``ValueError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed {what} file {path}: {exc}") from exc


def fields(where: str, raw, known, required=()) -> dict:
    """``raw`` if it is a JSON object with no key outside ``known`` and every key in ``required``."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(raw).__name__}")
    for kind, keys in (("unknown", set(raw) - set(known)), ("missing", set(required) - set(raw))):
        if keys:
            raise ValueError(f"{kind} fields in {where}: {sorted(keys)}")
    return raw


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
