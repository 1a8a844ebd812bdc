"""Exception hierarchy shared across the package.

Every error raised on purpose derives from SpinDecayError so callers (and the
CLI) can map failures to exit codes without matching on message text.
"""
from __future__ import annotations


class SpinDecayError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(SpinDecayError):
    """A numeric argument is outside its documented domain."""


class UniquenessError(SpinDecayError):
    """An operation required uniqueness that the parameters do not satisfy."""

    def __init__(self, message: str, violating_d: int | None = None):
        super().__init__(message)
        self.violating_d = violating_d


class NoThresholdError(SpinDecayError):
    """The requested threshold does not exist for these parameters."""


class BudgetExceededError(SpinDecayError):
    """A node or work budget was exhausted before the answer converged."""


class GraphFormatError(SpinDecayError):
    """An instance file failed validation; the message names the bad field."""


class EnumerationCapError(SpinDecayError):
    """An exact elimination step would join more vertices than the cap allows."""


class ZeroWeightError(SpinDecayError):
    """Every configuration consistent with the boundary has weight zero."""
