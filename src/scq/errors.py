"""Exception hierarchy shared across the package.

Errors that indicate bad user input (configs, files, parameter ranges)
derive from :class:`UsageError`; errors raised when a statistical run
cannot proceed derive from :class:`RuntimeFailure`.  The CLI maps the
former to exit code 1 and the latter to exit code 2.
"""

import numbers


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
    """Model fitting failed even after regularization fallbacks."""


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


def as_number(value, key: str, kind=float):
    """``value`` as a ``kind`` (float, or int if integral), or a ConfigError naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if kind is int and not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return kind(value)


def config_number(doc: dict, key: str, default=None, kind=float):
    """``doc[key]`` as a ``kind``, or ``default`` if absent; null only where ``default`` is."""
    value = doc.get(key, default)
    return None if value is None and default is None else as_number(value, key, kind)


def config_numbers(values, key: str, kind=float) -> tuple:
    """A list of numbers as a tuple of ``kind``, or a ConfigError naming ``key``."""
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    return tuple(as_number(v, key, kind) for v in values)


def config_flag(doc: dict, key: str, default: bool) -> bool:
    """``doc[key]`` if it is a JSON boolean, ``default`` if absent, else a ConfigError."""
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def check_keys(doc, allowed, what: str) -> None:
    """Raise a ConfigError unless ``doc`` is a JSON object holding only ``allowed`` keys."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {what} key(s) {unknown}; allowed: {list(allowed)}")
