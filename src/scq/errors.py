"""Exception hierarchy shared across the package.

Errors that indicate bad user input (configs, files, parameter ranges)
derive from :class:`UsageError`; errors raised when a statistical run
cannot proceed derive from :class:`RuntimeFailure`.  The CLI maps the
former to exit code 1 and the latter to exit code 2.
"""


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


class VariantMismatch(UsageError):
    """Side-information variant does not match the requested weighting."""


class PiOutOfRange(UsageError):
    """Oracle sparsity levels must lie strictly inside (0, 1)."""


class AllCandidatesFailed(RuntimeFailure):
    """Every candidate in the model toolbox failed to fit."""


class TooManyFailures(RuntimeFailure):
    """More than the tolerated fraction of replications failed."""
