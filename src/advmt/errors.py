"""Exception types shared across the package, and the one config reader
with its JSON-object and field-type checks.

Grouping them here lets the CLI map error categories onto exit codes
without string matching.
"""

import dataclasses
import sys
import typing


class AdvmtError(Exception):
    """Base class for all library errors."""


class DimensionError(AdvmtError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(AdvmtError, ValueError):
    """An API precondition was violated (wrong rank, empty batch, ...)."""


class TopologyError(AdvmtError, ValueError):
    """A skeleton topology is malformed or does not match the data."""


class InsufficientFramesError(AdvmtError, ValueError):
    """A sequence is too short for the requested operation."""


class ConfigurationError(AdvmtError, ValueError):
    """A config value is invalid or inconsistent."""


class RateError(AdvmtError, ValueError):
    """A frame-rate conversion is not an integer decimation."""


class CsvParseError(AdvmtError, ValueError):
    """A motion CSV file is malformed; message carries row/column coordinates."""


class CheckpointError(AdvmtError, ValueError):
    """A checkpoint file has the wrong version, is truncated, or is corrupt."""


class HorizonError(AdvmtError, ValueError):
    """An evaluation horizon does not map onto a valid predicted frame."""


class ReportError(AdvmtError, ValueError):
    """Evaluation reports being combined are inconsistent."""


class DivergenceError(AdvmtError, RuntimeError):
    """Training produced a non-finite loss; message carries epoch and step."""


def require_keys(raw, keys, where: str) -> dict:
    """``raw`` if it is a dict (a JSON object) holding every key of ``keys``, each
    passing its ``(valid, expected)`` check if ``keys`` maps keys to checks;
    otherwise a ``ConfigurationError`` that ``where`` opens."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{where}: expected a JSON object, got {type(raw).__name__}")
    missing = [key for key in keys if key not in raw]
    if missing:
        raise ConfigurationError(f"{where}: missing key {missing[0]!r}")
    for key, (valid, expected) in keys.items() if isinstance(keys, dict) else ():
        if not valid(raw[key]):
            raise ConfigurationError(f"{where}: {key!r} must be {expected}, got {raw[key]!r:.60}")
    return raw


# The ``(valid, expected)`` check of a config field's value, by its declared
# type. A JSON true is not the integer 1, and a JSON 1 is a valid float, but
# an integer too large for a float (float() of it raises) is not.
_FIELD_CHECKS = {
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: type(v) is float or (type(v) is int and abs(v) <= sys.float_info.max),
            "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
    tuple: (lambda v: isinstance(v, list), "a JSON list"),
}


def _field_check(kind) -> tuple:
    """The ``(valid, expected)`` check for a field declared as ``kind``."""
    if dataclasses.is_dataclass(kind):  # a config section: its JSON object, or the built config
        return (lambda v: isinstance(v, (dict, kind))), "a JSON object"
    return _FIELD_CHECKS[kind]


def build_config(cls, raw: dict, where: str, defaults: dict = None, overrides: dict = None):
    """Construct the config dataclass ``cls`` from a copy of the dict ``raw``,
    with ``defaults`` under it and ``overrides`` over it.

    A ``raw`` that is not a dict (a JSON object) is refused. Each key of
    ``cls.RETIRED`` (key -> the one value that still loads) is dropped when
    it carries that value and refused otherwise; unknown keys, missing
    required fields and values not of their field's type are refused by name.
    ``where`` opens every message. The caller's dicts are never changed.
    """
    raw = {**(defaults or {}), **require_keys(raw, (), where), **(overrides or {})}
    for key, kept in getattr(cls, "RETIRED", {}).items():
        value = raw.pop(key, kept)
        if type(value) is not type(kept) or value != kept:  # JSON 1 is not true
            raise ConfigurationError(
                f"{where}: unsupported {key} {value!r}; {key} was removed and only {kept!r} loads"
            )
    declared = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(declared))
    if unknown:
        raise ConfigurationError(f"{where}: unknown keys {unknown}")
    missing = sorted(
        name for name, f in declared.items() if name not in raw
        and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    )
    if missing:
        raise ConfigurationError(f"{where}: missing required keys {missing}")
    hints = typing.get_type_hints(cls)
    return cls(**require_keys(raw, {key: _field_check(hints[key]) for key in raw}, where))
