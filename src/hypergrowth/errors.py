"""Exception hierarchy.

Everything derives from HypergrowthError, so callers can catch the whole
library in one clause. Each family carries its CLI exit code as the class
attribute ``exit_code``: data and parse problems and bad model parameters
2, fitting problems 3, window and preset problems 4, anything else 5. The
CLI's own checks raise the same families: DataError for usage errors and
unreadable or unwritable files, WindowError for malformed window and year flags.
"""

from __future__ import annotations


class HypergrowthError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 5


# --- data / parsing -------------------------------------------------------

class DataError(HypergrowthError):
    """Invalid series or table content."""

    exit_code = 2


class DuplicateYearError(DataError):
    pass


class NonPositiveValueError(DataError):
    """A value is not positive, or so small that its reciprocal overflows."""


class NonFiniteValueError(DataError):
    """A year or value is nan or infinite."""


class TooFewPointsError(DataError):
    """A series ended up with fewer than the required number of points."""


class YearsTooCloseError(DataError):
    """Distinct years of a line fit whose centred squares underflow to 0."""


class ParseError(DataError):
    """Malformed input file (header, cell, or row structure)."""


class DuplicateLabelError(ParseError):
    pass


# --- fitting --------------------------------------------------------------

class FitError(HypergrowthError):
    """The requested fit cannot be produced."""

    exit_code = 3


class FitTooFewPointsError(FitError):
    pass


class NonDecreasingLineError(FitError):
    """Reciprocal values do not follow a decreasing line on the window."""


class AtSingularityError(FitError):
    """Model evaluation requested at or beyond the blow-up year."""


class YearNotObservedError(FitError):
    pass


# --- windows / presets / regime preconditions -----------------------------

class WindowError(HypergrowthError):
    """Window or preset selection problems."""

    exit_code = 4


class WindowOrderError(WindowError, ValueError):
    """A window whose start is not before its end."""


class WindowTooFewPointsError(WindowError):
    pass


class UnknownPresetError(WindowError):
    pass


class PresetDefinitionError(WindowError, ValueError):
    """A region preset with an unknown mode or the wrong number of labels."""


class UnknownMemberError(WindowError):
    pass


class IncompletePresetError(WindowError, TooFewPointsError):
    """A preset's members share fewer than two complete years (WindowError first: exit 4)."""


class NoPointsAfterWindowError(WindowError):
    pass


class NoPointsInWindowError(WindowError):
    pass


class SegmentTooSparseError(WindowError):
    pass


class ModelSpecError(HypergrowthError):
    """Invalid synthetic-model parameters."""

    exit_code = 2
