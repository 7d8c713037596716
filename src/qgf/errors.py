"""Exception hierarchy shared by every qgf module.

Two branches matter to the CLI: ``DataError`` maps to exit code 3 and
``NumericError`` to exit code 4. Everything else is a usage bug.
"""

from __future__ import annotations


class QgfError(Exception):
    """Base class for all toolkit errors."""


class DataError(QgfError):
    """Invalid, inconsistent, or missing input data."""


class NumericError(QgfError):
    """A numeric procedure failed (non-finite values, bad graph, ...)."""


# --- market data -----------------------------------------------------------

class MalformedHeaderError(DataError):
    pass


class RowParseError(DataError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvariantViolationError(DataError):
    def __init__(self, reason: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + reason)
        self.line = line
        self.reason = reason


class DuplicateDateError(DataError):
    pass


class SeriesTooShortError(DataError):
    pass


class HorizonOutOfRangeError(DataError):
    pass


class NetworkError(DataError):
    pass


class HttpStatusError(DataError):
    def __init__(self, code: int):
        super().__init__(f"HTTP status {code}")
        self.code = code


class UrlTemplateError(DataError):
    pass


# --- tensors and models ----------------------------------------------------

class ShapeMismatchError(DataError):
    pass


class EmptySequenceError(DataError):
    pass


class FilterLargerThanInputError(DataError):
    pass


class InvalidProbabilityError(DataError):
    pass


class LengthMismatchError(DataError):
    pass


class EmptyDatasetError(DataError):
    pass


class NonScalarLossError(NumericError):
    pass


class DetachedGraphError(NumericError):
    pass


class GradientCheckError(NumericError):
    """A kernel's backprop gradient disagreed with finite differences."""


class NonFiniteLossError(NumericError):
    def __init__(self, iteration: int, message: str = ""):
        detail = f" ({message})" if message else ""
        super().__init__(f"non-finite loss at iteration {iteration}{detail}")
        self.iteration = iteration


# --- persistence -----------------------------------------------------------

class IoError(DataError):
    pass


class VersionMismatchError(DataError):
    pass


class NonFiniteTensorError(NumericError):
    """A tensor about to be saved holds inf or nan."""

    def __init__(self, tensor: str, index: int, value: float):
        super().__init__(f"tensor {tensor!r}: value {value!r} at flat index {index} is not finite")
        self.tensor = tensor
        self.index = index


# --- feature pipeline ------------------------------------------------------

class DegenerateLabelsError(DataError):
    pass


class TooFewFeaturesError(DataError):
    pass


class RankTooHighError(DataError):
    pass


# --- metrics ---------------------------------------------------------------

class ZeroVarianceError(DataError):
    pass


class ZeroReferenceError(DataError):
    pass


class DimensionMismatchError(DataError):
    pass


class PairingMismatchError(DataError):
    pass
