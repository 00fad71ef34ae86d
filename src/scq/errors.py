"""Exception hierarchy shared across the package.

Errors that indicate bad user input (configs, files, parameter ranges)
derive from :class:`UsageError`; errors raised when a statistical run
cannot proceed derive from :class:`RuntimeFailure`.  The CLI maps the
former to exit code 1 and the latter to exit code 2.  :func:`read_config`
reads every JSON config section against its table of keys, kinds and
defaults; the constructors the sections feed check the ranges.
"""

import numbers
import sys


class ScqError(Exception):
    """Base class for all package errors."""


class UsageError(ScqError):
    """Invalid input: bad config, bad file, out-of-range parameter."""


class RuntimeFailure(ScqError):
    """A statistical run could not be completed."""


class ConfigError(UsageError):
    pass


class InsufficientNulls(UsageError):
    """Null pool too small to admit the requested three-way split."""


class ParseError(UsageError):
    """CSV cell could not be parsed; message carries row/column info."""


class SchemaMismatch(UsageError):
    """CSV is missing required columns."""


class NonFiniteFeature(UsageError):
    """A feature cell is NaN or infinite."""


class NonFiniteSideInfo(UsageError):
    """A positional side-information value is NaN or infinite."""


class UnreadableData(UsageError):
    """The data file cannot be opened or decoded as UTF-8 CSV."""


class MissingOutliers(UsageError):
    """A binary classifier was requested without labeled outliers."""


class DegenerateFit(RuntimeFailure):
    """A fit failed even after regularization fallbacks, or its scores cannot rank the rows."""


class DimensionMismatch(UsageError):
    """Feature dimension does not match the fitted model."""


class NonPositiveWeight(UsageError):
    """Weights must be strictly positive."""


class PiOutOfRange(UsageError):
    """Oracle sparsity levels must lie strictly inside (0, 1)."""


class AllCandidatesFailed(RuntimeFailure):
    """Every candidate in the model toolbox failed to fit."""


class TooManyFailures(RuntimeFailure):
    """More than the tolerated fraction of replications failed."""


# JSON kinds of config values: a number, an integral number, a boolean, a
# string, an object, [kind] for a list of one kind, and a tuple for any of
# several kinds (whose values are kept as written; numbers become float or int)
_NAMES = {float: "number", int: "integer", bool: "boolean", str: "string", dict: "object"}
REQUIRED = ...  # the default of a key a section must hold


def _has_kind(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_has_kind(v, kind[0]) for v in value)
    if isinstance(kind, tuple):
        return any(_has_kind(value, k) for k in kind)
    if kind in (int, float):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            return False
        if isinstance(value, numbers.Integral):  # a JSON integer may lie beyond float64
            return kind is int or abs(value) <= sys.float_info.max
        return kind is float or float(value).is_integer()
    return isinstance(value, kind)


def _describe(kind) -> str:
    if isinstance(kind, list):
        return f"list of {_NAMES[kind[0]]}s"
    return " or ".join(map(_describe, kind)) if isinstance(kind, tuple) else _NAMES[kind]


def check_value(value, kind, key: str):
    """``value`` if it has JSON kind ``kind``, or a ConfigError naming ``key``."""
    if not _has_kind(value, kind):
        raise ConfigError(f"{key} must be a JSON {_describe(kind)}, got {value!r}")
    if isinstance(kind, list):
        return [check_value(v, kind[0], key) for v in value]
    return kind(value) if kind in (int, float) else value


def read_config(doc, schema: dict, where: str) -> dict:
    """Read the config section ``doc`` against ``schema``, ``{key: (kind, default)}``.

    The section must be a JSON object holding no key ``schema`` lacks and
    every key whose default is ``REQUIRED``; each value must have its
    key's kind, or be null where the default is.  Returns every key of
    ``schema``, in its order, with defaults filled in.  A ConfigError names
    ``where`` and the key.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(schema))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {unknown}; allowed: {list(schema)}")
    out = {}
    for key, (kind, default) in schema.items():
        if key not in doc and default is REQUIRED:
            raise ConfigError(f"{where} requires {key!r}")
        value = doc.get(key, default)
        null = value is None and default is None
        out[key] = None if null else check_value(value, kind, f"{where} {key!r}")
    return out
