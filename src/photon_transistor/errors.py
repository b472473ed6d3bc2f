"""Exception and warning types, and the one value rule for input files, CLI flags and library arguments.

Each file is parsed by :func:`read_json` and each JSON object in it passes :func:`fields`; a record
file is read by :func:`record`, and written by its inverse, :func:`to_file`.  Each numeric value,
whether a file's, a flag's or a library argument's, passes :func:`number` and :func:`bounded`; a
breach is a :class:`Breach` naming its key (CLI exit code 2).

A record states each field's unit, bound and choices once, in its :func:`spec`.  The field's
file key is its name in lower case plus ``_<unit>`` (:func:`file_keys`), and :func:`check`
applies the rules by that key.  Every breach reads "<file key> must be <bound>, got <value>".
"""

import dataclasses
import functools
import hashlib
import json
import math
import numbers
import typing

#: the bounds a field may state, each with its test of a number
BOUNDS = {
    ">= 0": lambda v: v >= 0,
    "> 0": lambda v: v > 0,
    ">= 1": lambda v: v >= 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "in [1, 4194304]": lambda v: 1 <= v <= 2**22,
    "in [2, 1030]": lambda v: 2 <= v <= 1030,
}


def read_json(path, what: str):
    """The parsed contents of the ``what`` file at ``path`` and the SHA-256 of the bytes parsed, from
    one read; malformed JSON is a ``ValueError``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return json.loads(blob.decode("utf-8")), hashlib.sha256(blob).hexdigest()
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


class Breach(ValueError):
    """A value outside its rule, "<key> must be <bound>, got <value>", keeping the three to re-key it."""

    def __init__(self, key: str, bound: str, value):
        super().__init__(f"{key} must be {bound}, got {value!r}")
        self.key, self.bound, self.value = key, bound, value


def number(key: str, value) -> float:
    """``value`` as a float if it is a JSON number: not a bool, not a string, and finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise Breach(key, "a finite number", value)
    return float(value)


def bounded(key: str, value, bound: str):
    """``value`` if it lies within ``bound``, one of :data:`BOUNDS`."""
    if not BOUNDS[bound](value):
        raise Breach(key, bound, value)
    return value


def spec(unit: str | None = None, bound: str | None = None, choices: tuple | None = None, *,
         default=dataclasses.MISSING):
    """A record field, required unless it has a ``default``, whose file key ends in ``_<unit>`` and
    whose value lies within ``bound`` (one of :data:`BOUNDS`) and is one of ``choices``."""
    if bound is not None and bound not in BOUNDS:
        raise ValueError(f"unknown bound {bound!r}")
    return dataclasses.field(default=default, metadata={"unit": unit, "bound": bound, "choices": choices})


@functools.cache
def file_keys(cls) -> dict[str, str]:
    """File key -> field name, for each field of the record type ``cls`` in order: the name in lower
    case, plus ``_<unit>`` where its :func:`spec` states one.  One dict per type: do not mutate it."""
    return {f.name.lower() + (f"_{f.metadata['unit']}" if f.metadata.get("unit") else ""): f.name
            for f in dataclasses.fields(cls)}


@functools.cache
def _plan(cls) -> tuple:
    """(field name, file key, kind, optional, choices, bound) of each ``float``, ``int`` and ``str``
    field of ``cls``; a field is optional if its default is None."""
    plan = []
    for (key, name), f in zip(file_keys(cls).items(), dataclasses.fields(cls)):
        kind = getattr(f.type, "__name__", str(f.type)).removesuffix(" | None")  # a type or its annotation text
        if kind in ("float", "int", "str"):
            plan.append((name, key, kind, f.default is None, f.metadata.get("choices"), f.metadata.get("bound")))
    return tuple(plan)


def check(record) -> None:
    """Apply the rule of each field of ``record``, a frozen dataclass instance, by its file key.

    A ``float`` field must be a :func:`number` and is stored as a float; an ``int`` field must be
    an integer, not a bool; None passes only where it is the default.  Then the value must be one
    of the field's choices and lie within its bound.
    """
    for name, key, kind, optional, choices, bound in _plan(type(record)):
        value = getattr(record, name)
        if value is None and optional:
            continue
        if kind == "float":
            value = number(key, value)
            object.__setattr__(record, name, value)
        elif kind == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise Breach(key, "an integer", value)
        if choices is not None and value not in choices:
            raise Breach(key, f"one of {choices}", value)
        if bound is not None:
            bounded(key, value, bound)


@functools.cache
def _without_default(cls) -> tuple[str, ...]:
    """The file keys of the fields of ``cls`` that have no default."""
    return tuple(k for k, f in zip(file_keys(cls), dataclasses.fields(cls))
                 if f.default is f.default_factory is dataclasses.MISSING)


@functools.cache
def _nested(cls) -> dict[str, type]:
    """File key -> record type, for each field of ``cls`` whose type hint is a dataclass."""
    hints = typing.get_type_hints(cls)
    return {k: hints[name] for k, name in file_keys(cls).items() if dataclasses.is_dataclass(hints[name])}


def record(cls, raw, where: str, required=_without_default):
    """The ``cls`` record of the JSON object ``raw``, which ``where`` names in errors: ``raw`` holds no key
    outside ``file_keys(cls)`` and every key of ``required(cls)``, by default those of the fields with no
    default, and a field whose type hint is a record is read from the object under its key in the same way."""
    return cls(**_arguments(cls, raw, where, required))


def _arguments(cls, raw, where: str, required) -> dict:
    """The keyword arguments of ``cls`` from ``raw``.  A nested object's own error (not an object, an
    unknown or a missing key) names it as it is; a ``Breach`` in building its record is re-raised under
    ``<key>.<leaf>``, any other ``ValueError`` as ``invalid value in '<key>': ...``."""
    keys = file_keys(cls)
    kwargs = {keys[k]: v for k, v in fields(where, raw, keys, required(cls)).items()}
    for k, sub in _nested(cls).items():
        if k in raw:
            arguments = _arguments(sub, raw[k], k, required)
            try:
                kwargs[keys[k]] = sub(**arguments)
            except Breach as exc:
                raise Breach(f"{k}.{exc.key}", exc.bound, exc.value) from exc
            except ValueError as exc:
                raise ValueError(f"invalid value in {k!r}: {exc}") from exc
    return kwargs


def to_file(rec) -> dict:
    """The JSON object that :func:`record` reads ``rec`` back from; a None is left out."""
    values = {k: getattr(rec, name) for k, name in file_keys(type(rec)).items()}
    return {k: to_file(v) if k in _nested(type(rec)) else v for k, v in values.items() if v is not None}


def leaf_paths(cls) -> list[str]:
    """The path in a file of each field of ``cls`` that is not a record: ``<key>``, or ``<key>.<leaf>``."""
    nested, paths = _nested(cls), []
    for k in file_keys(cls):
        paths += [f"{k}.{leaf}" for leaf in leaf_paths(nested[k])] if k in nested else [k]
    return paths


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
