"""Exception and warning types, and the one value rule for input files, CLI flags and library arguments.

Each file is parsed by :func:`read_json` and each JSON object in it passes :func:`fields`; a record
file is read by :func:`record`, and written by its inverse, :func:`to_file`.  Each numeric value,
whether a file's, a flag's or a library argument's, passes :func:`number` and :func:`bounded`; a
breach is a :class:`Breach` naming its key (CLI exit code 2).

A record states each field's unit, bound and choices once, in its :func:`spec`; :func:`table` reads them
with the type hints once per record type, and every rule here loops over that table.  A field's file key
is its name in lower case plus ``_<unit>``; a breach reads "<file key> must be <bound>, got <value>".
"""

import collections
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


#: a record field, read by :func:`table` from the type hints and :func:`spec`: name, file key, type (None stripped
#: from an optional hint), whether None is the default, whether it has a default, whether it is a record, choices, bound
Field = collections.namedtuple("Field", "name key type optional has_default nested choices bound")


@functools.cache
def table(cls) -> tuple[Field, ...]:
    """The :class:`Field` of each field of the record type ``cls``, in order, built once per type."""
    hints, rows = typing.get_type_hints(cls), []
    for f in dataclasses.fields(cls):
        hint, unit = hints[f.name], f.metadata.get("unit")
        if type(None) in typing.get_args(hint):
            (hint,) = set(typing.get_args(hint)) - {type(None)}
        rows.append(Field(f.name, f.name.lower() + (f"_{unit}" if unit else ""), hint, f.default is None,
                          f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING,
                          dataclasses.is_dataclass(hint), f.metadata.get("choices"), f.metadata.get("bound")))
    return tuple(rows)


@functools.cache
def file_keys(cls) -> dict[str, str]:
    """File key -> field name, for each field of the record type ``cls`` in order: do not mutate it."""
    return {f.key: f.name for f in table(cls)}


@functools.cache
def _uses(cls) -> tuple:
    """What :func:`check` and :func:`record` need of ``cls``, from its table once: the rule of each field that
    has one, as a plain tuple (it unpacks faster); ``file_keys(cls)``; the keys required; the record fields."""
    rows = table(cls)
    rules = tuple((f.name, f.key, f.type, f.optional, f.choices, f.bound) for f in rows
                  if f.type in (float, int) or f.choices is not None or f.bound is not None)
    return rules, file_keys(cls), [f.key for f in rows if not f.has_default], [f for f in rows if f.nested]


def check(record) -> None:
    """Apply the rule of each field of ``record``, a frozen dataclass instance, by its file key: a ``float``
    must be a :func:`number` and is stored as a float, an ``int`` must be an integer, not a bool, and None
    passes only where it is the default; then the value must be one of the choices and within the bound."""
    for name, key, kind, optional, choices, bound in _uses(type(record))[0]:
        value = getattr(record, name)
        if value is None and optional:
            continue
        if kind is float:
            value = number(key, value)
            object.__setattr__(record, name, value)
        elif kind is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise Breach(key, "an integer", value)
        if choices is not None and value not in choices:
            raise Breach(key, f"one of {choices}", value)
        if bound is not None:
            bounded(key, value, bound)


def record(cls, raw, where: str, every: bool = False, *, nested_in: str | None = None):
    """The ``cls`` record of the JSON object ``raw``, which ``where`` names in errors: ``raw`` holds no key
    outside ``file_keys(cls)`` and the key of every field with no default (of every field if ``every``), and
    a record field is read from the object under its key in the same way.  A nested object's own error (not
    an object, an unknown or a missing key) names it as it is; a ``Breach`` in building its record is
    re-raised under ``<key>.<leaf>``, any other ``ValueError`` as ``invalid value in '<key>': ...``, where
    ``<key>`` is ``nested_in``."""
    _, keys, required, nested = _uses(cls)
    kwargs = {keys[k]: v for k, v in fields(where, raw, keys, keys if every else required).items()}
    for f in nested:
        if f.key in raw:
            kwargs[f.name] = record(f.type, raw[f.key], f.key, every, nested_in=f.key)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        if nested_in is None:
            raise
        if isinstance(exc, Breach):
            raise Breach(f"{nested_in}.{exc.key}", exc.bound, exc.value) from exc
        raise ValueError(f"invalid value in {nested_in!r}: {exc}") from exc


def to_file(rec) -> dict:
    """The JSON object that :func:`record` reads ``rec`` back from; a None is left out."""
    values = ((f, getattr(rec, f.name)) for f in table(type(rec)))
    return {f.key: to_file(v) if f.nested else v for f, v in values if v is not None}


def leaf_paths(cls) -> list[str]:
    """The path in a file of each field of ``cls`` that is not a record: ``<key>``, or ``<key>.<leaf>``."""
    return [path for f in table(cls)
            for path in ([f"{f.key}.{leaf}" for leaf in leaf_paths(f.type)] if f.nested else [f.key])]


class StateInvariantError(ValueError):
    """A density matrix violates trace, Hermiticity or positivity bounds."""


class CutoffError(ValueError):
    """A Fock-space cutoff is too small for the requested operation."""


class CutoffWarning(UserWarning):
    """A Fock-space cutoff is marginal; results may carry truncation error."""


class NumericsError(RuntimeError):
    """A numerical routine missed its accuracy or stability target; the data errors' base too (CLI exit code 3)."""


class DegenerateDataError(ValueError, NumericsError):
    """Input data carries no usable structure (e.g. all readings identical)."""


class InsufficientDataError(ValueError, NumericsError):
    """A conditional subset is empty or records are missing required fields."""


class UnsolvableCalibrationError(ValueError, NumericsError):
    """The four-intensity calibration system cannot be inverted."""


class UnphysicalInputError(ValueError, NumericsError):
    """Calibration inputs lead to probabilities far outside [0, 1]."""
