"""Hyperbolic growth fitting.

The model is S(t) = (a - k*t)^-1 with a, k > 0, so the reciprocal
1/S(t) = a - k*t is a straight line decreasing in time. Fitting is
ordinary least squares of the reciprocal values on the year over a fit
window. The blow-up (singularity) year is a/k, where the fitted line
crosses zero.

Years around 1900 combined with slopes around 1e-5 make the raw normal
equations poorly conditioned, so the regression is computed from the
centred moments (means, sums of squares and cross products about the
means). Two kernels compute those moments and the line, and each hands
them to the one finisher, ``_line_from_moments``, which adds the fit
statistics:

* a fit of at most SMALL_FIT_MAX = 64 points reads the exact integer sums
  of its points from a table of running sums (``prefix_moments``) in
  ``_sums_exact``, and each moment is correctly rounded: an exact integer
  divided by n, then scaled by ``math.ldexp``, or divided by the scaled
  divisor where ``_ldexp_exact`` finds that a moment could leave the
  normal float range. A series of at most 64 points keeps its table
  (``GrowthSeries.prefix_moments``, about five Python ints per point), so
  each of its windows costs O(1); ``fit_line`` builds the table of its
  own points and reads it whole;
* a fit of more than 64 points sums in numpy, imported on first use
  (``_sums_numpy``).

Each kernel returns a finished line or raises: centred years that square
to 0 raise ``_no_spread``'s error inside it. Every fit of at most 64
points runs the same code on exact sums, so it depends only on its
points. Windowed fits of a series (``fit_hyperbolic``, each segment of
``segment_consistency``, the line of ``stagnation_test``) go through
``fit_range``, whose plain fields ``fit_hyperbolic`` reads into its own
record; ``fit_line`` takes raw sequences.

A series has one 1/value column, ``GrowthSeries.reciprocals``, computed
on first use and kept, with a float64 twin of the same bits in
``GrowthSeries.arrays``, which ``float_columns`` builds. Every range fit,
regime scan and residual reads it: ``range_columns`` hands out the kept
columns of a range, as tuple slices up to 64 points and as views of
``arrays`` above, so no range converts the series again.

The scans of the regime tests live here too, so this is the one module
that imports numpy and the one that picks a kernel by range size.
``scan_back`` reads the normalized residuals of a fitted line backwards
for the diversion and takeoff scans, in pure Python at any size.
``range_scans`` counts the residual signs and GDP increases of the
stagnation test at the fits' cut: ``_scan_small`` up to 64 points,
``_scan_numpy`` above.
"""

from __future__ import annotations

import math
from itertools import accumulate
from math import hypot, ldexp, sqrt
from operator import lt, mul, ne
from typing import NamedTuple

from .errors import (
    AtSingularityError,
    FitTooFewPointsError,
    NonDecreasingLineError,
    YearNotObservedError,
    YearsTooCloseError,
)
from .series import GrowthSeries, Window, index_range, new_record

# Exactly collinear input leaves float noise in the residuals. A fit whose
# rmse is at most this fraction of the RMS of its values is snapped to the
# genuine perfect fit, so the rmse-0 conventions apply. This is the one rule
# for an exact fit, and it holds in any unit of the values.
COLLINEAR_RTOL = 1e-13

# Residual scale when a fit's rmse is exactly 0: a normalized residual is
# then the raw one per this much, so the regime scans' kappa comparison
# degenerates to an absolute tolerance of this much per unit of kappa. It is
# the one constant with a unit: 1/billion, the unit of the reciprocals.
ABSOLUTE_RESIDUAL_TOLERANCE = 1e-9

# Fits of at most this many points sum exact integers in pure Python, larger
# ones floats in numpy: below it numpy's per-call overhead outweighs the
# loop, and the small inputs of the CLI never import numpy. Series of at most
# this many points keep their exact prefix sums for their window fits.
SMALL_FIT_MAX = 64

_TOO_EXTREME = "line fit: values too extreme for float arithmetic"


class LineFit(NamedTuple):
    """Unconstrained least-squares line y = intercept + slope * t.

    ``rmse`` is the root mean square residual (divided by n, not n - 2);
    standard errors use the usual n - 2 denominator and are None when
    there are no residual degrees of freedom; both are 0 for collinear data.
    ``rmse_constant`` is the rmse of the constant model y = ``mean``, from
    the same sums, and never below rmse.
    """

    slope: float
    intercept: float
    rmse: float
    r2: float
    se_slope: float | None
    se_intercept: float | None
    mean: float
    rmse_constant: float


def _scaled(column) -> tuple[int, list[int]]:
    """``(b, ints)`` with ``ints[i] == column[i] * 2**b`` exactly, for the least b >= 0."""
    try:  # a float's denominator is a power of 2
        ratios = list(map(float.as_integer_ratio, map(float, column)))
    except (OverflowError, ValueError):  # an infinity or a nan has no ratio
        raise OverflowError(_TOO_EXTREME) from None
    b = max([q for _, q in ratios]).bit_length() - 1
    return b, [p << (b + 1 - q.bit_length()) for p, q in ratios]


# An exact fit has n <= 2**_N_BITS points, so its moments' quotients are at
# least 2**-_N_BITS; _ldexp_exact's two exponent limits follow from it
_N_BITS = (SMALL_FIT_MAX - 1).bit_length()
_MAX_SCALE_BITS = (1022 - _N_BITS) // 2
_MAX_RESIDUAL_BITS = 1022 - 2 * _N_BITS


def _ldexp_exact(bx, by, qxx, qyy) -> bool:
    """Whether ``_sums_exact`` may divide by n and scale by ``ldexp`` for
    every range of at most SMALL_FIT_MAX points whose sums of squared
    integers are at most qxx and qyy (a table's totals, or a fit's own sums).

    So it must be that no quotient reaches 2**1023 (each is at most
    max(qxx, qyy)) and no nonzero moment falls below 2**-1022. With
    m = ``_N_BITS``: a quotient is at least 2**-m, the residual sum of
    squares' 1/(n * cxx) > 2**-(2m + qxx.bit_length()), and the scales go
    down to 2**-2bx and 2**-2by. So bx and by are at most (1022 - m) // 2
    (``_MAX_SCALE_BITS``), and 2by + qxx.bit_length() at most 1022 - 2m
    (``_MAX_RESIDUAL_BITS``).
    """
    lx = qxx.bit_length()
    return (max(lx, qyy.bit_length()) <= 1023 and max(bx, by) <= _MAX_SCALE_BITS
            and 2 * by + lx <= _MAX_RESIDUAL_BITS)


def prefix_moments(years, values) -> tuple:
    """Exact running sums of the years and values, for O(1) line fits of any range.

    ``(bx, by, scaled, X, Y, XX, XY, YY)``: every year times ``2**bx`` and
    every value times ``2**by`` is an integer, and each column holds the
    running sums of those integers, of their squares and of their
    products, starting from 0 before the first point. The sums over
    ``years[lo:hi]`` are ``X[hi] - X[lo]`` and so on, with no rounding.
    ``scaled`` is ``_ldexp_exact`` of the totals, which bound the squares
    of every range. A nan or infinite entry raises OverflowError. This is
    the one place that scales columns to integers: ``_sums_exact`` reads
    every fit of at most SMALL_FIT_MAX points from such a table.
    """
    bx, xs = _scaled(years)
    by, ys = _scaled(values)
    x, y, xx, xy, yy = [tuple(accumulate(c, initial=0)) for c in
                        (xs, ys, map(mul, xs, xs), map(mul, xs, ys), map(mul, ys, ys))]
    return bx, by, _ldexp_exact(bx, by, xx[-1], yy[-1]), x, y, xx, xy, yy


def _no_spread(years):
    """Raise the error for a fit whose centred years square to 0."""
    first, last = min(years), max(years)
    if first < last:  # distinct years whose centred squares underflow
        raise YearsTooCloseError(
            f"years too close together for float arithmetic ({first:g} to {last:g})"
        )
    raise FitTooFewPointsError("line fit needs at least 2 distinct years")


def _sums_exact(table, years, lo, hi) -> tuple:
    """The finished line (``_line_from_moments``) of the points lo..hi-1 of
    a ``prefix_moments`` table, from their exact sums. Centred years that
    square to 0 (equal years, or distinct years too close for float
    arithmetic) raise ``_no_spread`` of ``years[lo:hi]``.

    n times the centred sums (n*Sxx - Sx**2 and the like) are exact
    integers, and each moment is one int true division, which rounds once,
    correctly: with the table's ``scaled`` (``_ldexp_exact``), by n (n * cxx
    for the residual sum of squares) and then an exact ``ldexp``; otherwise
    by the scaled divisor, which also rounds a subnormal moment correctly
    and raises OverflowError past the float range. The slope and intercept
    are float arithmetic on the moments.
    """
    bx, by, scaled, px, py, pxx, pxy, pyy = table
    n = hi - lo
    sx = px[hi] - px[lo]
    sy = py[hi] - py[lo]
    cxx = n * (pxx[hi] - pxx[lo]) - sx * sx
    cxy = n * (pxy[hi] - pxy[lo]) - sx * sy
    cyy = n * (pyy[hi] - pyy[lo]) - sy * sy
    if scaled:
        if not cxx:
            _no_spread(years[lo:hi])
        eyy = -2 * by
        sxx = ldexp(cxx / n, -2 * bx)
        sst = ldexp(cyy / n, eyy)
        xbar = ldexp(sx / n, -bx)
        ybar = ldexp(sy / n, -by)
        sxy = ldexp(cxy / n, -bx - by)
        # the residual sum of squares of the exact OLS line is Sst - Sxy**2/Sxx
        ssr = ldexp((cyy * cxx - cxy * cxy) / (n * cxx), eyy)
    else:
        try:
            sxx = cxx / (n << (2 * bx))
            sst = cyy / (n << (2 * by))
        except OverflowError:  # "integer division result too large for a float"
            raise OverflowError(_TOO_EXTREME) from None
        if not sxx:  # equal years, or centred squares that underflow
            _no_spread(years[lo:hi])
        xbar = sx / (n << bx)
        ybar = sy / (n << by)
        sxy = cxy / (n << (bx + by))
        ssr = (cyy * cxx - cxy * cxy) / ((n * cxx) << (2 * by))
    slope = sxy / sxx
    return _line_from_moments(n, slope, ybar - slope * xbar, ybar, sxx, ssr, sst, xbar)


def _sums_numpy(years, values) -> tuple:
    """The finished line of a large fit, with its moments summed in numpy
    about the points' own means, so it depends only on its points. Centred
    years that square to 0 raise ``_no_spread``; float overflow, an
    infinity or a nan raises an ArithmeticError.

    ndarrays (such as views of ``GrowthSeries.arrays``) are read as they
    are; any other sequence is converted once. The residual sum of squares
    is clamped to the total one: an OLS line is never worse than the mean,
    but the two sums round separately.
    """
    import numpy as np

    n = len(years)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        x, y = (
            np.asarray(c, dtype=float) if isinstance(c, np.ndarray) else np.fromiter(c, float, n)
            for c in (years, values)
        )
        xbar = float(x.mean())
        ybar = float(y.mean())
        dx = x - xbar
        dy = y - ybar
        sxx = float(np.sum(dx**2))
        sst = float(np.sum(dy**2))
        if math.isnan(sxx + sst):  # a nan raises nothing on its way here
            raise OverflowError(_TOO_EXTREME)
        if not sxx:
            _no_spread(years)
        slope = float(np.sum(dx * dy)) / sxx
        ssr = min(float(np.sum((dy - slope * dx) ** 2)), sst)
        return _line_from_moments(n, slope, ybar - slope * xbar, ybar, sxx, ssr, sst, xbar)


def _line_from_moments(n, slope, intercept, ybar, sxx, ssr, sst, xbar) -> tuple:
    """The fields of the ``LineFit`` of a kernel's line and moments, in order.

    ``ybar`` and ``xbar`` are the means of the values and the years; sxx
    must be positive. The fields come as a plain tuple: ``fit_line`` and
    ``fit_range`` make it the record, and ``fit_hyperbolic`` reads it into
    its own.
    """
    rmse = sqrt(ssr / n)
    rmse_constant = sqrt(sst / n)
    # the collinear snap: hypot(rmse_constant, ybar) is the RMS of the values
    if rmse <= COLLINEAR_RTOL * hypot(rmse_constant, ybar):
        ssr = rmse = 0.0
    r2 = 1.0 if sst == 0.0 else 1.0 - ssr / sst

    if n > 2:
        s2 = ssr / (n - 2)
        se_slope = sqrt(s2 / sxx)
        # variance of the intercept at t = 0
        se_intercept = sqrt(s2 * (1.0 / n + xbar**2 / sxx))
    else:
        se_slope = None
        se_intercept = None

    # slope, intercept, rmse, r2, se_slope, se_intercept, mean, rmse_constant
    return slope, intercept, rmse, r2, se_slope, se_intercept, ybar, rmse_constant


def fit_line(years, values, center: float = 0.0) -> LineFit:
    """OLS line fit of the values on the years.

    Fits of at most SMALL_FIT_MAX points build the ``prefix_moments`` table
    of their own points and read it in ``_sums_exact``, the code of every
    window fit of a series, so the result depends only on the points;
    larger ones sum in numpy, imported on first use. Input too extreme for
    float arithmetic, an infinity or a nan raises an ArithmeticError either
    way; distinct years whose centred squares underflow raise
    YearsTooCloseError.

    Args:
        years: regressor values (calendar years).
        values: response values (reciprocal GDP).
        center: ignored. Exact sums need no centre and numpy sums the
            years about their own mean, so a second centre could only move
            the last digits of a large fit with the caller's choice; the
            argument stays for callers that pass it.
    """
    n = len(years)
    if n < 2:
        raise FitTooFewPointsError(f"line fit needs at least 2 points, got {n}")
    if n > SMALL_FIT_MAX:
        return new_record(LineFit, _sums_numpy(years, values))
    return new_record(LineFit, _sums_exact(prefix_moments(years, values), years, 0, n))


def float_columns(years, values) -> tuple:
    """Read-only float64 columns ``(years, 1/values, values)``, the
    ``GrowthSeries.arrays`` that ranges of more than SMALL_FIT_MAX points
    slice; numpy is imported on first use. The reciprocal column is numpy's
    ``1.0 / values``, the same IEEE division as ``GrowthSeries.reciprocals``.
    """
    import numpy as np

    n = len(years)
    years = np.fromiter(years, float, n)
    values = np.fromiter(values, float, n)
    columns = (years, 1.0 / values, values)
    for column in columns:
        column.flags.writeable = False
    return columns


def range_columns(s: GrowthSeries, lo: int, hi: int) -> tuple:
    """The kept columns ``(years, reciprocals, values)`` of ``s`` over
    ``[lo:hi]``: tuple slices up to SMALL_FIT_MAX points, views of
    ``s.arrays`` above."""
    if hi - lo <= SMALL_FIT_MAX:
        return s.years[lo:hi], s.reciprocals[lo:hi], s.values[lo:hi]
    return tuple([column[lo:hi] for column in s.arrays])


def _sign_counts(residuals) -> tuple[int, int, int]:
    """(positive, negative, sign changes) of the nonzero residuals, in order."""
    signs = [r > 0.0 for r in residuals if r != 0.0]
    n_pos = sum(signs)
    return n_pos, len(signs) - n_pos, sum(map(ne, signs, signs[1:]))


def _scan_small(years, recip, values, a, b):
    """Stagnation scans in pure Python about the line a + b*t: (positive and
    negative residuals, sign changes, GDP increases)."""
    n_pos, n_neg, changes = _sign_counts([r - (a + b * y) for y, r in zip(years, recip)])
    return n_pos, n_neg, changes, sum(map(lt, values, values[1:]))


def _scan_numpy(years, recip, values, a, b):
    """The scans of ``_scan_small`` on float64 arrays (the views
    ``range_columns`` returns), vectorised; float overflow raises."""
    import numpy as np

    with np.errstate(over="raise", divide="raise", invalid="raise"):
        e = recip - (a + b * years)
        pos = e[e != 0.0] > 0.0
        n_pos = int(np.count_nonzero(pos))
        changes = int(np.count_nonzero(pos[1:] != pos[:-1]))
        increases = int(np.count_nonzero(values[1:] > values[:-1]))
    return n_pos, len(pos) - n_pos, changes, increases


def range_scans(s: GrowthSeries, lo: int, hi: int, a: float, b: float) -> tuple:
    """``(positive, negative, sign changes, GDP increases)`` of ``s.years[lo:hi]``:
    the signs of the residuals of the kept reciprocals about the line a + b*t,
    and the rises of the values from one year to the next. Like the fits, it
    reads the range's ``range_columns`` in pure Python up to SMALL_FIT_MAX
    points (``_scan_small``) and in numpy above (``_scan_numpy``)."""
    scan = _scan_small if hi - lo <= SMALL_FIT_MAX else _scan_numpy
    return scan(*range_columns(s, lo, hi), a, b)


def _range_line(s: GrowthSeries, lo: int, hi: int) -> tuple:
    """The ``LineFit`` fields of ``fit_range``: a plain tuple read from the
    series' kept table by ``_sums_exact``, the ``fit_line`` record of the
    range's ``range_columns`` otherwise."""
    if len(s.years) > SMALL_FIT_MAX or hi - lo < 2:
        years, recip, _ = range_columns(s, lo, hi)
        return fit_line(years, recip)
    return _sums_exact(s.prefix_moments, s.years, lo, hi)


def fit_range(s: GrowthSeries, lo: int, hi: int) -> LineFit:
    """Line fit of the reciprocals on the years of ``s.years[lo:hi]``.

    A series of at most SMALL_FIT_MAX points builds its exact prefix sums
    on the first call and fits every range of at least 2 points from them
    in O(1). Any other range goes to ``fit_line`` on its ``range_columns``.
    In every case the result is ``fit_line`` on the range's points.
    """
    return new_record(LineFit, _range_line(s, lo, hi))


class HyperbolicFit(NamedTuple):
    """Accepted hyperbolic fit: a, k > 0, reciprocal line a - k*t.

    a is in 1/billions, k in 1/billions per year. rmse_reciprocal and
    r2_reciprocal are diagnostics of the reciprocal-space line over the
    fit window.
    """

    a: float
    k: float
    fit_window: Window
    n_points: int
    rmse_reciprocal: float
    r2_reciprocal: float
    se_a: float | None
    se_k: float | None

    def line_value(self, t: float) -> float:
        """Fitted reciprocal line a - k*t (may be <= 0 past the blow-up)."""
        return self.a - self.k * t


class FitDiagnostics(NamedTuple):
    """Per-year residual table for an accepted fit, one row per observed year
    where the line is positive (see ``goodness``). The diversion and takeoff
    scans (``scan_back``) compute the same normalized residual, so theirs are
    these rows' bits."""

    rows: tuple[tuple[float, float, float, float], ...]


def fit_hyperbolic(s: GrowthSeries, w: Window) -> HyperbolicFit:
    """Fit the hyperbolic model on the points of ``s`` inside ``w``.

    Least squares of 1/value on year; a is the intercept and k the
    magnitude of the downward slope. Raises FitTooFewPointsError with
    fewer than 3 in-window points and NonDecreasingLineError when the
    fitted slope is >= 0 (the series is not hyperbolic-growth-like on
    this window).
    """
    lo, hi = index_range(s, w.t0, w.t1, 3, FitTooFewPointsError)
    slope, intercept, rmse, r2, se_slope, se_intercept, _, _ = _range_line(s, lo, hi)
    if slope >= 0.0:
        raise NonDecreasingLineError(
            f"series {s.label!r}: reciprocal slope {slope:.3e} is not negative "
            f"on [{w.t0:g}, {w.t1:g}]"
        )
    # a, k, fit_window, n_points, rmse_reciprocal, r2_reciprocal, se_a, se_k
    return new_record(HyperbolicFit, (intercept, -slope, w, hi - lo, rmse, r2, se_intercept,
                                      se_slope))


def model_value(f: HyperbolicFit, t: float) -> float:
    """Model GDP (a - k*t)^-1 at year t; defined only below the blow-up."""
    denom = f.a - f.k * t
    if denom <= 0.0:
        raise AtSingularityError(
            f"year {t:g} is at or beyond the singularity {singularity(f):.1f}"
        )
    return 1.0 / denom


def singularity(f: HyperbolicFit) -> float:
    """Blow-up year a/k where the fitted reciprocal line reaches zero."""
    return f.a / f.k


def percent_deviation(f: HyperbolicFit, s: GrowthSeries, t: float) -> float:
    """Relative gap between the observed and fitted GDP at year t.

    Returns 100 * (observed - model) / model; positive means the data
    sit above the fitted curve. The year must be observed in ``s`` and
    lie strictly below the singularity.
    """
    observed = s.value_at(t)
    if observed is None:
        raise YearNotObservedError(f"series {s.label!r}: year {t:g} not observed")
    model = model_value(f, t)
    return 100.0 * (observed - model) / model


def goodness(f: HyperbolicFit, s: GrowthSeries) -> FitDiagnostics:
    """Residual diagnostics: (year, raw, normalized, relative GDP deviation)
    at each year of ``s`` where the fitted line is positive, in year order.

    The raw residual is observed minus fitted in reciprocal space, from the
    kept reciprocals. The normalized one divides it by the in-window rmse,
    or by ABSOLUTE_RESIDUAL_TOLERANCE for an exact fit (rmse 0). The
    relative GDP deviation is (v - 1/line) / (1/line) = v*line - 1.
    """
    a, k = f.a, f.k
    scale = f.rmse_reciprocal or ABSOLUTE_RESIDUAL_TOLERANCE
    rows = []
    for y, r, v in zip(s.years, s.reciprocals, s.values):
        line = a - k * y
        if line > 0.0:
            raw = r - line
            rows.append((y, raw, raw / scale, -raw * v))
    return FitDiagnostics(tuple(rows))


def scan_back(f: HyperbolicFit, s: GrowthSeries, lo: int, hi: int, kappa: float,
              whole: bool) -> tuple:
    """``(last, above, below, least)`` of the years ``s.years[lo:hi]``, read
    from the last index down, with the normalized residuals of ``goodness``.

    ``last`` is the last year where the line is positive, the last evaluable
    one. ``above`` and ``below`` are the earliest years of the runs of
    normalized residuals above kappa and below -kappa that last to ``last``,
    and ``least`` is the least normalized residual read (``min``'s pick of
    a tie). Without an evaluable year they are None, None, None and inf.
    Reading stops at the first year that breaks both runs unless ``whole``.
    """
    a, k = f.a, f.k
    scale = f.rmse_reciprocal or ABSOLUTE_RESIDUAL_TOLERANCE
    years, recips = s.years, s.reciprocals
    last = above = below = None
    up = down = True
    least = math.inf
    for i in range(hi - 1, lo - 1, -1):
        y = years[i]
        line = a - k * y
        if line > 0.0:
            rho = (recips[i] - line) / scale
            if last is None:
                last = y
            if rho <= least:  # read backwards, a tie moves to the earlier year
                least = rho
            if up:
                up = rho > kappa
                if up:
                    above = y
            if down:
                down = rho < -kappa
                if down:
                    below = y
            if not (up or down or whole):
                break
    return last, above, below, least
