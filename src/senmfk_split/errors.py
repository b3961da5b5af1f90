"""Exception hierarchy shared across the library.

Data errors mean the inputs are unusable (empty corpus, malformed files,
mismatched shapes between artifacts); numerical errors mean the math cannot
proceed (bad rank, negative entries, degenerate matrices).  The CLI maps
these onto distinct exit codes.  :func:`check_count` is the one rule for
an integer setting.
"""

import numbers


def check_count(value, name: str, low: int) -> None:
    """Raise ValueError unless ``value`` is an integer (a numpy one too) >= ``low``."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


class SenmfkError(Exception):
    """Base class for all library errors."""


class DataError(SenmfkError):
    """Input data is unusable."""


class EmptyCorpus(DataError):
    pass


class EmptyVocabulary(DataError):
    pass


class EmptyColumn(DataError):
    """A document has no in-vocabulary tokens."""


class DimensionMismatch(DataError):
    """Operands do not conform in shape."""


class ShapeMismatch(DimensionMismatch):
    pass


class NumericalError(SenmfkError):
    """A numerical routine cannot proceed."""


class InvalidRank(NumericalError):
    pass


class NonNegativityViolation(NumericalError):
    """A matrix required to be non-negative has negative or non-finite entries."""


class DegenerateMatrix(NumericalError):
    """A matrix is identically zero where a nonzero one is required."""


class DegenerateBasis(NumericalError):
    """A basis matrix has an all-zero column."""


class PipelineStageError(SenmfkError):
    """Wraps an error raised inside a named pipeline stage."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause
