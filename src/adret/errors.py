"""Exception types shared across the package. Each ``exit_code`` is the
CLI's exit code: 1 (ConfigError, DimensionError, and a plain ValueError),
2 (FormatError, DataError) or 3 (DegenerateVectorError, EvaluationError,
TrainingDivergedError)."""


class AdretError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 1


class DimensionError(AdretError):
    """Operands have incompatible shapes. Message names both shapes."""


class DegenerateVectorError(AdretError):
    """A vector that must be normalized has (near-)zero norm."""
    exit_code = 3


class ConfigError(AdretError):
    """Invalid or missing configuration. Message names the field."""


class FormatError(AdretError):
    """A cache file failed validation. Message carries the byte offset."""
    exit_code = 2


class DataError(AdretError):
    """Inconsistent data, e.g. a query with no ground-truth entry."""
    exit_code = 2


class EvaluationError(AdretError):
    """A numerical evaluation produced non-finite values."""
    exit_code = 3


class TrainingDivergedError(AdretError):
    """Training hit a non-finite loss or gradient."""
    exit_code = 3
