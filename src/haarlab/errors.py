"""Shared exception types.

HaarlabError is the package's only exception family for bad input:
library code raises the most specific class that applies (a size or
dimension problem DimensionError, a cap CapacityError, a malformed word
or file WordParseError), and HaarlabError itself when none does.  The
CLI maps them onto exit codes: WordParseError to 1, every other
HaarlabError to 2.  HaarlabError derives from ValueError, so callers
that catch ValueError keep working.  TypeError for an argument of the
wrong Python type, and RuntimeError for a broken internal invariant,
stay as they are: neither is a problem with the input's values.
require_int is that TypeError for an order or a dimension: a float or
a bool there is a wrong type, not a value to round.
"""

from __future__ import annotations


class HaarlabError(ValueError):
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


def require_int(value, name: str) -> None:
    """TypeError naming the argument unless value is an int, not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
