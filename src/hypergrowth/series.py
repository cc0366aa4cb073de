"""Time-series core: validated growth series, windows, reciprocal transform.

A GrowthSeries is an immutable pair of columns, years strictly increasing
and finite, values finite and positive with a finite reciprocal 1/value.
Years are plain floats: calendar years with AD 1 = 1.0, and fractional
years are meaningful (blow-up years rarely land on integers).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import repeat
from operator import itemgetter, lt
from typing import Iterable, Sequence

from .errors import (
    DuplicateYearError,
    NonFiniteValueError,
    NonPositiveValueError,
    TooFewPointsError,
    WindowOrderError,
    WindowTooFewPointsError,
)


# builds a NamedTuple record in C; Record(...) calls the __new__ NamedTuple writes in Python
new_record = tuple.__new__


class Frozen:
    """Immutable value: eq (same class only), hash, repr and pickling over ``_fields``.

    The constructor sets the fields once, through ``_assign``,
    ``object.__setattr__`` or (``Window``) the slots' own setters; later
    assignment raises.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Window(Frozen):
    """Inclusive year range [t0, t1]."""

    __slots__ = _fields = ("t0", "t1")

    def __init__(self, t0: float, t1: float) -> None:
        _set_t0(self, t0)
        _set_t1(self, t1)
        if not t0 < t1:
            raise WindowOrderError(f"window requires t0 < t1, got [{t0}, {t1}]")


# A sweep builds one Window per fit window: the slots' own setters skip the
# name lookup of each object.__setattr__ call
_set_t0 = Window.__dict__["t0"].__set__
_set_t1 = Window.__dict__["t1"].__set__


class GrowthSeries(Frozen):
    """GDP-like series: values in billions of 1990 Geary-Khamis dollars.

    A series stores two columns, ``years`` and ``values``, as tuples of
    floats. ``points`` (the (year, value) pairs) and ``reciprocals``
    (1/value) are derived views, computed on first use and kept, as is
    one view for each size class of fit: ``prefix_moments`` (exact
    running sums) for a series of at most ``fitting.SMALL_FIT_MAX``
    points, and ``arrays`` (read-only float64 columns, from
    ``fitting.float_columns``) for the numpy kernels of longer ranges.
    Eq, hash, repr and pickling are over ``(years, values, label)``, so a
    pickled copy keeps no derived view.

    The class takes no constructor arguments: ``from_columns`` and
    ``new_series`` validate and sort, and ``window`` and ``reciprocal``
    keep the strictly increasing years that window and year selection
    bisect.
    """

    _fields = ("years", "values", "label")
    # cached_property values live in __dict__, outside eq, hash, repr and pickling
    __slots__ = ("years", "values", "label", "__dict__")

    def __reduce__(self):
        return _columns, self._values()

    @cached_property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.years, self.values))

    @cached_property
    def reciprocals(self) -> tuple[float, ...]:
        """1/value at each year, in 1/billions."""
        return tuple([1.0 / v for v in self.values])

    @cached_property
    def prefix_moments(self) -> tuple:
        """``fitting.prefix_moments`` of the years and reciprocals, for O(1) window fits."""
        from .fitting import prefix_moments  # fitting imports this module

        return prefix_moments(self.years, self.reciprocals)

    @cached_property
    def arrays(self) -> tuple:
        """``fitting.float_columns`` of the years and values, for the numpy
        kernels of ranges of more than ``fitting.SMALL_FIT_MAX`` points."""
        from .fitting import float_columns  # fitting imports this module

        return float_columns(self.years, self.values)

    def __len__(self) -> int:
        return len(self.years)

    def value_at(self, year: float) -> float | None:
        """Value at an observed year, None if the year is not observed."""
        lo, hi = index_range(self, year, year)
        return self.values[lo] if lo < hi else None


def _columns(years: tuple[float, ...], values: tuple[float, ...], label: str) -> GrowthSeries:
    """A series over columns that already hold the series invariants."""
    s = object.__new__(GrowthSeries)
    s._assign(years, values, label)
    return s


def from_columns(
    years: Iterable[float], values: Iterable[float], label: str
) -> GrowthSeries:
    """Build a validated GrowthSeries from a column of years and one of values.

    The columns pair up by position and must have the same length; the
    pairs are sorted by year. Raises NonFiniteValueError,
    DuplicateYearError, NonPositiveValueError (also for a value so small
    that its reciprocal overflows), or TooFewPointsError when the data
    violate the series invariants.

    Ordered valid columns pass C-level checks and are kept as they are.
    Any other input is sorted and checked point by point, which chooses
    the error to report.
    """
    ys = tuple(map(float, years))
    vs = tuple(map(float, values))
    n = len(ys)
    if len(vs) != n:
        raise ValueError(f"series {label!r}: {n} years but {len(vs)} values")
    if (
        n >= 2
        and all(map(lt, ys, ys[1:]))  # strictly increasing, so no nan
        and -math.inf < ys[0]
        and ys[-1] < math.inf
        and all(map(lt, repeat(0.0, n), vs))  # positive, so no nan
        and max(vs) < math.inf
        and 1.0 / min(vs) < math.inf
    ):
        return _columns(ys, vs, label)

    pts = sorted(zip(ys, vs))
    if n < 2:
        raise TooFewPointsError(f"series {label!r}: need at least 2 points, got {n}")
    prev = None
    for y, v in pts:
        if not (-math.inf < y < math.inf and v < math.inf):
            raise NonFiniteValueError(
                f"series {label!r}: point ({y!r}, {v!r}) is not finite"
            )
        if y == prev:
            raise DuplicateYearError(f"series {label!r}: duplicate year {y:g}")
        if not v > 0:
            raise NonPositiveValueError(
                f"series {label!r}: value {v!r} at year {y:g} is not positive"
            )
        if not 1.0 / v < math.inf:
            raise NonPositiveValueError(
                f"series {label!r}: value {v!r} at year {y:g} has an infinite reciprocal"
            )
        prev = y
    return _columns(tuple(map(itemgetter(0), pts)), tuple(map(itemgetter(1), pts)), label)


def new_series(points: Iterable[Sequence[float]], label: str) -> GrowthSeries:
    """Build a validated GrowthSeries from (year, value) pairs.

    The pairs are unzipped into ``from_columns``, which sorts them by
    year and raises its errors for data that violate the series invariants.
    """
    pts = tuple(points)
    years, values = zip(*pts) if pts else ((), ())
    return from_columns(years, values, label)


def reciprocal(s: GrowthSeries) -> GrowthSeries:
    """Pointwise reciprocal (units 1/billions); years unchanged, values positive.

    Raises NonPositiveValueError, as ``from_columns`` does, for a reciprocal
    so small that its own reciprocal overflows (a value near the float maximum).
    """
    recips = s.reciprocals  # finite and positive, so only this check can fail
    if 1.0 / min(recips) < math.inf:
        return _columns(s.years, recips, s.label)
    return from_columns(s.years, recips, s.label)  # raises, naming the value and its year


def index_range(
    s: GrowthSeries, t0: float, t1: float, need: int = 0, error=WindowTooFewPointsError
) -> tuple[int, int]:
    """Indices ``lo, hi`` such that ``s.years[lo:hi]`` are the years in [t0, t1].

    Bisects the sorted years; the range is empty unless t0 <= t1, so a
    nan bound selects nothing. Raises ``error`` when fewer than ``need``
    points are in the range.
    """
    years = s.years
    lo = bisect_left(years, t0)
    hi = bisect_right(years, t1, lo) if t0 <= t1 else lo
    if hi - lo < need:
        raise error(
            f"series {s.label!r}: {hi - lo} point(s) in [{t0:g}, {t1:g}], need {need}"
        )
    return lo, hi


def window(s: GrowthSeries, w: Window) -> GrowthSeries:
    """Restrict a series to [t0, t1]; at least 2 points must survive."""
    lo, hi = index_range(s, w.t0, w.t1, need=2)
    return _columns(s.years[lo:hi], s.values[lo:hi], f"{s.label} [{w.t0:g}, {w.t1:g}]")
