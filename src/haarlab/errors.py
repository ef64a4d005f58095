"""Shared exception types.

The CLI maps these onto exit codes, so library code should raise the
most specific class that applies rather than bare ValueError.
"""

from __future__ import annotations


class HaarlabError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(HaarlabError):
    """An enumeration or table size exceeds the configured cap.

    Raised before any work is attempted, so callers can retry with a
    smaller problem instead of waiting on a factorial blow-up.
    """


class DimensionError(HaarlabError):
    """Matrix dimensions do not match the requested computation."""


class WordParseError(HaarlabError):
    """A trace-word string does not conform to the grammar."""


class NotSelfAdjointError(HaarlabError):
    """A spectral sample was requested for a matrix that is not
    self-adjoint within tolerance."""


class NoReductionError(HaarlabError):
    """The complex spoke formula does not apply (m = n = 1 carries no
    second-order reduction)."""


class MissingMomentError(HaarlabError):
    """A moment or cumulant of the requested order was never supplied."""


class InsufficientSamplesError(HaarlabError):
    """Too few replicas (or inconsistent replica counts) for estimation."""
