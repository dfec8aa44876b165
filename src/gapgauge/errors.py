"""Exception hierarchy. Every error carries a machine-readable ``code``."""

from __future__ import annotations


class GapgaugeError(Exception):
    """Base class for all library errors."""

    code = "error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.message = message
        self.context = context

    def __str__(self):
        if self.context:
            detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
            return f"[{self.code}] {self.message} ({detail})"
        return f"[{self.code}] {self.message}"


class RangeError(GapgaugeError):
    """An index or window falls outside the series bounds."""

    code = "range"


class EmptySampleError(GapgaugeError):
    """An empirical sample would be empty."""

    code = "empty-sample"


class InvalidSampleError(GapgaugeError):
    """An empirical sample contains non-finite values."""

    code = "invalid-sample"


class InvalidParameterError(GapgaugeError):
    """A parameter value violates its documented constraint."""

    code = "invalid-parameter"


class CapacityError(GapgaugeError):
    """Gap placement could not fit all requested gaps disjointly."""

    code = "capacity"


class GapConflictError(GapgaugeError):
    """A gap overlaps a position that is already missing."""

    code = "gap-conflict"


class ReferenceWindowError(GapgaugeError):
    """The pre-gap reference window underflows or is not fully observed."""

    code = "reference-window"


class ShapeError(GapgaugeError):
    """Mismatched lengths or bin edges between paired inputs."""

    code = "shape"


class ContextError(GapgaugeError):
    """Not enough observed context points for a local fit."""

    code = "context"


class SeasonalReferenceError(GapgaugeError):
    """No observed value exists a whole number of seasons earlier."""

    code = "seasonal-reference"


class TrainingWindowError(GapgaugeError):
    """A training window starts before the series or contains missing values."""

    code = "training-window"


class TrainingError(GapgaugeError):
    """Model training failed (empty or too-short training set)."""

    code = "training"


class RankDeficiencyError(GapgaugeError):
    """A least-squares design matrix is singular."""

    code = "rank-deficiency"


class DivergenceError(GapgaugeError):
    """A fit or forecast produced non-finite values."""

    code = "divergence"


class NumericalError(GapgaugeError):
    """A numpy linear-algebra or floating-point error escaped an imputer."""

    code = "numerical"


class SelectionError(GapgaugeError):
    """No candidate model order could be fitted."""

    code = "selection"


class DegenerateError(GapgaugeError):
    """Too few imputers for a rank comparison."""

    code = "degenerate"


class ConfigError(GapgaugeError):
    """Unusable run configuration."""

    code = "config"


class SchemaError(GapgaugeError):
    """A configuration document violates the schema; names the field path."""

    code = "schema"

    def __init__(self, message: str, path: str, **context):
        super().__init__(message, path=path, **context)
        self.path = path


class _LineError(GapgaugeError):
    """An input-file error that names the offending line."""

    def __init__(self, message: str, line: int, **context):
        super().__init__(message, line=line, **context)
        self.line = line


class ParseError(_LineError):
    """A data file could not be parsed."""

    code = "parse"


class CadenceError(_LineError):
    """Timestamps do not follow the expected uniform step."""

    code = "cadence"


class DuplicateTimestampError(_LineError):
    """Two rows carry the same timestamp."""

    code = "duplicate-timestamp"
