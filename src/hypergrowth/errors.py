"""Exception hierarchy.

Three broad families mirror the CLI exit codes: data/parse problems,
fitting problems, and window/preset problems. Everything derives from
HypergrowthError so callers can catch the whole library in one clause.
"""

from __future__ import annotations


class HypergrowthError(Exception):
    """Base class for all errors raised by this package."""


# --- data / parsing -------------------------------------------------------

class DataError(HypergrowthError):
    """Invalid series or table content."""


class DuplicateYearError(DataError):
    pass


class NonPositiveValueError(DataError):
    pass


class NonFiniteValueError(DataError):
    """A year or value is nan or infinite."""


class TooFewPointsError(DataError):
    """A series ended up with fewer than the required number of points."""


class ParseError(DataError):
    """Malformed input file (header, cell, or row structure)."""


class DuplicateLabelError(ParseError):
    pass


# --- fitting --------------------------------------------------------------

class FitError(HypergrowthError):
    """The requested fit cannot be produced."""


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


class NoPointsAfterWindowError(WindowError):
    pass


class NoPointsInWindowError(WindowError):
    pass


class SegmentTooSparseError(WindowError):
    pass


class ModelSpecError(HypergrowthError):
    """Invalid synthetic-model parameters."""
