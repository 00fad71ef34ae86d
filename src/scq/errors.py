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


def _number(value, key: str, kind=float):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return kind(value)


def config_number(doc: dict, key: str, default=None, kind=float):
    """``doc[key]`` as a ``kind``, or ``default`` if absent; null only where ``default`` is."""
    value = doc.get(key, default)
    return None if value is None and default is None else _number(value, key, kind)


def config_numbers(values, key: str) -> tuple:
    """A list of numbers as a tuple of floats, or a ConfigError naming ``key``."""
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    return tuple(_number(v, key) for v in values)
