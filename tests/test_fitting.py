import ast
import math
import pathlib
import random
from fractions import Fraction
from itertools import accumulate
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypergrowth import errors
from hypergrowth import fitting as fitting_module
from hypergrowth.errors import (
    AtSingularityError,
    FitTooFewPointsError,
    NonDecreasingLineError,
    YearNotObservedError,
)
from hypergrowth.fitting import (
    ABSOLUTE_RESIDUAL_TOLERANCE,
    COLLINEAR_RTOL,
    SMALL_FIT_MAX,
    LineFit,
    YearsTooCloseError,
    _line_from_moments,
    _sums_exact,
    fit_hyperbolic,
    fit_line,
    fit_range,
    goodness,
    model_value,
    percent_deviation,
    prefix_moments,
    singularity,
)
from hypergrowth.ingest import aggregate, preset_catalog
from hypergrowth.report import analyze_series
from hypergrowth.series import Window, new_series, window


def hyperbola_series(a, k, years, label="hyp", scale=1.0):
    return new_series([(t, scale / (a - k * t)) for t in years], label)


W12_LIKE_YEARS = (1500, 1600, 1700, 1820, 1870, 1900)


def centred_squares(column):
    """The sum of squares of the column about its mean, exact, then rounded once."""
    column = [Fraction(v) for v in column]
    mean = sum(column) / len(column)
    return float(sum((v - mean) ** 2 for v in column))


def exact_ols(years, values):
    """(slope, intercept, rmse) of the OLS line, each correctly rounded but the
    rmse, which is the square root of the correctly rounded mean square."""
    xs, ys = [Fraction(t) for t in years], [Fraction(v) for v in values]
    n = len(xs)
    xbar, ybar = sum(xs) / n, sum(ys) / n
    slope = (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
             / sum((x - xbar) ** 2 for x in xs))
    intercept = ybar - slope * xbar
    ssr = sum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
    return float(slope), float(intercept), math.sqrt(ssr / n)


class TestFitLine:
    def test_matches_polyfit_oracle(self):
        # sizes straddle the switch from the pure-Python to the numpy kernel
        rng = np.random.default_rng(7)
        sizes = [3, SMALL_FIT_MAX, SMALL_FIT_MAX + 1, 200, *rng.integers(3, 201, size=20)]
        for size in sizes:
            x = np.sort(rng.uniform(0, 2000, size=size))
            y = rng.normal(size=x.size)
            line = fit_line(x, y)
            slope_ref, intercept_ref = np.polyfit(x, y, 1)
            assert line.slope == pytest.approx(slope_ref, rel=1e-9, abs=1e-12)
            assert line.intercept == pytest.approx(intercept_ref, rel=1e-9, abs=1e-12)

    def test_standard_errors_match_textbook_formula(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        y = np.array([1.1, 0.9, 1.3, 0.7, 1.2])
        line = fit_line(x, y)
        resid = y - (line.intercept + line.slope * x)
        s2 = float(resid @ resid) / (len(x) - 2)
        sxx = float(np.sum((x - x.mean()) ** 2))
        assert line.se_slope == pytest.approx(math.sqrt(s2 / sxx), rel=1e-12)
        assert line.se_intercept == pytest.approx(
            math.sqrt(s2 * (1 / len(x) + x.mean() ** 2 / sxx)), rel=1e-12
        )

    def test_two_points_have_no_standard_errors(self):
        line = fit_line([0.0, 1.0], [1.0, 2.0])
        assert line.se_slope is None and line.se_intercept is None
        assert line.rmse == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n, last", [(3, "2e-230"), (SMALL_FIT_MAX + 1, "6.4e-229")],
                             ids=["exact", "numpy"])
    def test_distinct_years_whose_squares_underflow_are_an_arithmetic_error(self, n, last):
        # centred squares of years this close underflow to 0, so sxx == 0:
        # the exact kernel and the numpy one raise the same error
        with pytest.raises(YearsTooCloseError,
                           match=rf"years too close together .*\(0 to {last}\)"):
            fit_line([i * 1e-230 for i in range(n)], [1.0 + i for i in range(n)])

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_points_are_too_few(self, n):
        with pytest.raises(FitTooFewPointsError, match=rf"at least 2 points, got {n}$"):
            fit_line([1500.0] * n, [1.0] * n)

    def test_years_too_close_is_a_data_error(self):
        # exit 2 like the other data errors, and a report section can skip it
        assert YearsTooCloseError is errors.YearsTooCloseError
        assert issubclass(YearsTooCloseError, errors.DataError)
        assert not issubclass(YearsTooCloseError, ArithmeticError)

    @pytest.mark.parametrize("n", [3, SMALL_FIT_MAX, SMALL_FIT_MAX + 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_nan_or_infinite_input_is_too_extreme(self, n, bad, column):
        columns = ([1500.0 + i for i in range(n)], [1.0 + i for i in range(n)])
        columns[column][1] = bad
        if n <= SMALL_FIT_MAX:
            with pytest.raises(OverflowError, match="values too extreme for float arithmetic"):
                fit_line(*columns)
        else:  # numpy's errstate raises a FloatingPointError for an infinity
            with pytest.raises(ArithmeticError):
                fit_line(*columns)

    def test_sums_of_squares_past_the_float_range_fit_exactly(self):
        # Sxx + Sst is past the float range, though each is a float: the exact
        # kernel gives the correctly rounded OLS line, numpy's sums come close to it
        years, values = [0.0, 0.9e154, 1.8e154], [1.2e154, 0.6e154, 0.4e154]
        assert math.isinf(centred_squares(years) + centred_squares(values))
        line = fit_line(years, values)
        assert (line.slope, line.intercept, line.rmse) == exact_ols(years, values) == (
            -0.4444444444444445, 1.1333333333333334e+154, 9.428090415820635e+152)
        n = SMALL_FIT_MAX + 16
        years = [3.8e153 * i / (n - 1) for i in range(n)]
        values = [5e153 - t + (2e152 if i % 3 == 0 else -1e152) for i, t in enumerate(years)]
        assert math.isinf(centred_squares(years) + centred_squares(values))
        line = fit_line(years, values)
        assert (line.slope, line.intercept, line.rmse) == pytest.approx(
            exact_ols(years, values), rel=1e-12)

    @pytest.mark.parametrize("n", [SMALL_FIT_MAX + 1, 200, 4_082, 20_000])
    def test_a_large_fit_ignores_the_centre(self, n):
        # numpy sums the years about their own mean: the caller's centre moves no bit
        rng = random.Random(n)
        years = sorted(rng.sample(range(1, 1751 * 20), n))
        years = [t / 20 for t in years]
        values = [(0.1147 - 5.961e-5 * t) * math.exp(rng.gauss(0.0, 0.05)) for t in years]
        lines = {repr(fit_line(years, values, center)) for center in (0.0, 1000.0, 1700.0)}
        assert len(lines) == 1

    @pytest.mark.parametrize("years", [[5.0, 5.0], [5.0] * (SMALL_FIT_MAX + 1)])
    def test_equal_years_are_too_few(self, years):
        with pytest.raises(FitTooFewPointsError, match="at least 2 distinct years"):
            fit_line(years, [1.0 + i for i in range(len(years))])


class TestFitHyperbolic:
    def test_exact_recovery_on_collinear_reciprocals(self):
        a, k = 0.1147, 5.961e-5
        s = hyperbola_series(a, k, W12_LIKE_YEARS)
        f = fit_hyperbolic(s, Window(1500, 1900))
        assert f.a == pytest.approx(a, rel=1e-10)
        assert f.k == pytest.approx(k, rel=1e-10)
        assert f.r2_reciprocal == pytest.approx(1.0, abs=1e-12)
        assert f.n_points == 6
        # float noise of an exact fit is snapped once, in fit_line
        assert f.rmse_reciprocal == 0.0
        assert f.se_a == f.se_k == 0.0

    def test_too_few_points(self):
        s = hyperbola_series(0.1, 1e-5, (1500, 1600, 2000, 2100))
        with pytest.raises(FitTooFewPointsError):
            fit_hyperbolic(s, Window(1400, 1700))

    def test_decreasing_gdp_rejected(self):
        s = new_series([(1500, 100.0), (1600, 80.0), (1700, 60.0), (1800, 40.0)], "shrink")
        with pytest.raises(NonDecreasingLineError):
            fit_hyperbolic(s, Window(1400, 1900))

    def test_shift_covariance(self):
        a, k = 0.1147, 5.961e-5
        delta = 250.0
        s = hyperbola_series(a, k, W12_LIKE_YEARS)
        shifted = new_series([(y + delta, v) for y, v in s.points], "shifted")
        f = fit_hyperbolic(s, Window(1500, 1900))
        g = fit_hyperbolic(shifted, Window(1500 + delta, 1900 + delta))
        assert g.k == pytest.approx(f.k, rel=1e-10)
        assert g.a == pytest.approx(f.a + f.k * delta, rel=1e-10)
        assert singularity(g) == pytest.approx(singularity(f) + delta, rel=1e-12)

    def test_scale_equivariance(self):
        a, k, c = 0.1147, 5.961e-5, 37.5
        rng = np.random.default_rng(3)
        noisy = [
            (t, (1.0 / (a - k * t)) * math.exp(rng.normal(0, 0.02)))
            for t in W12_LIKE_YEARS
        ]
        s = new_series(noisy, "noisy")
        scaled = new_series([(y, v * c) for y, v in noisy], "scaled")
        f = fit_hyperbolic(s, Window(1500, 1900))
        g = fit_hyperbolic(scaled, Window(1500, 1900))
        assert g.a == pytest.approx(f.a / c, rel=1e-10)
        assert g.k == pytest.approx(f.k / c, rel=1e-10)
        assert g.rmse_reciprocal == pytest.approx(f.rmse_reciprocal / c, rel=1e-10)
        assert g.r2_reciprocal == pytest.approx(f.r2_reciprocal, rel=1e-10)
        assert singularity(g) == pytest.approx(singularity(f), rel=1e-12)

    def test_in_window_residuals_sum_to_zero(self):
        rng = np.random.default_rng(11)
        a, k = 0.2, 8e-5
        years = sorted(rng.uniform(1000, 1900, size=12))
        s = new_series(
            [(t, (1.0 / (a - k * t)) * math.exp(rng.normal(0, 0.05))) for t in years],
            "noisy",
        )
        w = Window(1000, 1900)
        f = fit_hyperbolic(s, w)
        diag = goodness(f, s)
        raw_in_window = [raw for y, raw, _, _ in diag.rows if w.t0 <= y <= w.t1]
        assert sum(raw_in_window) == pytest.approx(0.0, abs=1e-10)


class TestModelValue:
    def test_closed_form(self):
        f = fit_hyperbolic(
            hyperbola_series(1.0, 0.001, (0, 100, 500, 900)), Window(0, 900)
        )
        assert model_value(f, 0.0) == pytest.approx(1.0, rel=1e-9)
        assert model_value(f, 999.0) == pytest.approx(1000.0, rel=1e-6)

    def test_at_singularity_errors(self):
        f = fit_hyperbolic(
            hyperbola_series(1.0, 0.001, (0, 100, 500, 900)), Window(0, 900)
        )
        with pytest.raises(AtSingularityError):
            model_value(f, 1000.0)
        with pytest.raises(AtSingularityError):
            model_value(f, 1500.0)

    def test_monotone_blowup_toward_singularity(self):
        f = fit_hyperbolic(
            hyperbola_series(1.0, 0.001, (0, 100, 500, 900)), Window(0, 900)
        )
        grid = [1000.0 - eps for eps in (100.0, 10.0, 1.0, 0.1, 0.01, 0.001)]
        values = [model_value(f, t) for t in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 1e5


class TestSingularity:
    @pytest.mark.parametrize(
        "a,k,expected",
        [
            (1.0, 0.001, 1000.0),
            (7.749e-1, 4.048e-4, 7.749e-1 / 4.048e-4),   # 1914.3
            (9.859e-2, 5.112e-5, 9.859e-2 / 5.112e-5),   # 1928.6
        ],
    )
    def test_quotient(self, a, k, expected):
        years = tuple(expected - d for d in (900, 700, 500, 300, 100))
        f = fit_hyperbolic(hyperbola_series(a, k, years), Window(min(years), max(years)))
        assert singularity(f) == pytest.approx(expected, rel=1e-9)

    def test_reported_singularities_round_to_published_years(self):
        assert round(7.749e-1 / 4.048e-4) == 1914  # quoted as "in 1915"
        assert 1914.2 < 7.749e-1 / 4.048e-4 < 1914.4
        assert 1928.5 < 9.859e-2 / 5.112e-5 < 1928.7  # quoted as "in 1929"


class TestPercentDeviation:
    def test_double_model_is_plus_100(self):
        a, k = 0.1, 4e-5
        years = (1500, 1600, 1700, 1800)
        pts = [(t, 1.0 / (a - k * t)) for t in years] + [(1000, 2.0 / (a - k * 1000))]
        s = new_series(pts, "x")
        f = fit_hyperbolic(s, Window(1500, 1800))
        assert percent_deviation(f, s, 1000) == pytest.approx(100.0, rel=1e-9)

    def test_unobserved_year_errors(self):
        s = hyperbola_series(0.1, 4e-5, (1500, 1600, 1700))
        f = fit_hyperbolic(s, Window(1500, 1700))
        with pytest.raises(YearNotObservedError):
            percent_deviation(f, s, 1650)

    def test_beyond_singularity_errors(self):
        a, k = 0.1, 4e-5  # singularity at 2500
        pts = [(t, 1.0 / (a - k * t)) for t in (1500, 1600, 1700)] + [(2600, 5.0)]
        s = new_series(pts, "x")
        f = fit_hyperbolic(s, Window(1500, 1700))
        with pytest.raises(AtSingularityError):
            percent_deviation(f, s, 2600)


class TestGoodness:
    def test_exact_fit_all_zero(self):
        s = hyperbola_series(0.1147, 5.961e-5, W12_LIKE_YEARS)
        f = fit_hyperbolic(s, Window(1500, 1900))
        diag = goodness(f, s)
        assert len(diag.rows) == len(s)
        for _, raw, normalized, rel in diag.rows:
            assert raw == pytest.approx(0.0, abs=1e-15)
            assert normalized == raw / ABSOLUTE_RESIDUAL_TOLERANCE  # the scans' rmse-0 scale
            assert rel == pytest.approx(0.0, abs=1e-12)

    def test_rows_only_where_line_positive(self):
        a, k = 0.1, 4e-5  # line crosses zero at 2500
        pts = [(t, 1.0 / (a - k * t)) for t in (1500, 1600, 1700)] + [(2600, 5.0)]
        s = new_series(pts, "x")
        f = fit_hyperbolic(s, Window(1500, 1700))
        diag = goodness(f, s)
        assert [r[0] for r in diag.rows] == [1500.0, 1600.0, 1700.0]

    def test_w12_residuals_small_in_window_large_after_1900(self, regional_series):
        s = regional_series["W12"]
        w = Window(1500, 1900)
        f = fit_hyperbolic(s, w)
        diag = goodness(f, s)
        in_window = [rho for y, _, rho, _ in diag.rows if w.t0 <= y <= w.t1]
        late = [rho for y, _, rho, _ in diag.rows if y >= 1906]
        assert max(abs(r) for r in in_window) < 3.0
        assert late and all(r > 3.0 for r in late)


# Window fits of a series of at most SMALL_FIT_MAX points read its exact prefix
# sums. Each window is checked against the exact OLS line, computed in integers
# over a common power of two: every quantity is a ratio of integers, and one
# int true division rounds it, once and correctly.


@st.composite
def small_series(draw, min_points=3, max_points=SMALL_FIT_MAX):
    """3-64 points by default: fractional, negative and widely spread years, values 1e-3 to 1e6."""
    n = draw(st.integers(min_points, max_points))
    start = draw(st.floats(-5000.0, 5000.0))
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=n - 1, max_size=n - 1))
    years = [start]
    for step in steps:  # a step of at least 1e-3 always moves a year below 1e5
        years.append(years[-1] + step)
    values = draw(st.lists(st.floats(1e-3, 1e6), min_size=n, max_size=n))
    return new_series(zip(years, values), "x")


def exact_scaled(column):
    """``(b, ints)`` with ``ints[i] == column[i] * 2**b`` exactly: each float is
    its 53-bit significand times a power of two, shifted to the smallest one."""
    parts = [math.frexp(v) for v in column]
    b = max(0, *[53 - e for _, e in parts])
    return b, [int(math.ldexp(m, 53)) << (b + e - 53) for m, e in parts]


def exact_prefix(column):
    return list(accumulate(column, initial=0))


def exact_sums(px, py, pxx, pxy, pyy, lo, hi):
    """Scaled integer sums of points lo..hi-1: n, the sums of x, y, x**2, x*y
    and y**2, and n times the centred sums of squares and products, cxx, cxy, cyy."""
    n = hi - lo
    sx, sy = px[hi] - px[lo], py[hi] - py[lo]
    qxx, qxy, qyy = pxx[hi] - pxx[lo], pxy[hi] - pxy[lo], pyy[hi] - pyy[lo]
    return (n, sx, sy, qxx, qxy, qyy,
            n * qxx - sx * sx, n * qxy - sx * sy, n * qyy - sy * sy)


def within_ulps(got, want, ulps):
    return abs(got - want) <= ulps * math.ulp(want)


@settings(max_examples=40, deadline=None)
@given(s=small_series())
def test_small_series_window_fits_match_exact_ols(s):
    years, recip = s.years, s.reciprocals
    (bx, xs), (by, ys) = exact_scaled(years), exact_scaled(recip)
    sums = (exact_prefix(xs), exact_prefix(ys), exact_prefix(map(mul, xs, xs)),
            exact_prefix(map(mul, xs, ys)), exact_prefix(map(mul, ys, ys)))
    tbx, tby, _, *columns = prefix_moments(years, recip)
    _, _, pxx, _, pyy = columns
    snap_p, snap_q = (COLLINEAR_RTOL**2).as_integer_ratio()
    for lo in range(len(s) - 2):
        for hi in range(lo + 3, len(s) + 1):
            n, sx, sy, qxx, qxy, qyy, cxx, cxy, cyy = exact_sums(*sums, lo, hi)
            # the exact moments, correctly rounded: xbar, ybar, Sxx, Sst and
            # ssr = Sst - Sxy**2/Sxx
            xbar, ybar = sx / (n << bx), sy / (n << by)
            sxx, sst = cxx / (n << 2 * bx), cyy / (n << 2 * by)
            rss = cyy * cxx - cxy * cxy  # ssr is rss / (n * cxx * 4**by)
            ssr = rss / ((n * cxx) << 2 * by)
            # the line is float arithmetic on the rounded moments, and the one
            # finisher adds the statistics: the exact kernel reads these
            # moments from the table, by either of its divisions; the window's
            # own sums decide whether dividing by n is exact
            slope_f = (cxy / (n << (bx + by))) / sxx
            want = LineFit(*_line_from_moments(n, slope_f, ybar - slope_f * xbar, ybar,
                                               sxx, ssr, sst, xbar))
            own = fitting_module._ldexp_exact(tbx, tby, pxx[hi] - pxx[lo], pyy[hi] - pyy[lo])
            for scaled in (own, False):
                got = _sums_exact((tbx, tby, scaled, *columns), years, lo, hi)
                assert repr(LineFit(*got)) == repr(want)
            # the window fit is that line, and a raw fit of the same points
            # reads a table of its own points to the same bits
            line = fit_range(s, lo, hi)
            assert repr(line) == repr(want)
            assert repr(fit_line(years[lo:hi], recip[lo:hi])) == repr(line)
            # the constant model is the line's mean and rmse about it
            assert line.mean == ybar
            assert line.rmse_constant == math.sqrt(sst / n)
            assert line.rmse <= line.rmse_constant
            # the collinear snap, rmse <= rtol * (the RMS of the values): in
            # exact terms, ssr <= rtol**2 * (the sum of the squared values)
            if rss * snap_q <= snap_p * qyy * n * cxx:
                rss = 0
            w = Window(years[lo], years[hi - 1])
            if cxy >= 0:  # the exact slope Sxy / Sxx is not negative
                with pytest.raises(NonDecreasingLineError):
                    fit_hyperbolic(s, w)
                continue
            f = fit_hyperbolic(s, w)
            assert f.n_points == n
            assert within_ulps(-f.k, (cxy << bx) / (cxx << by), 4)
            assert within_ulps(f.rmse_reciprocal, math.sqrt(rss / ((n * n * cxx) << 2 * by)), 4)
            # a is ybar - slope * xbar: its rounding follows the larger term
            a = (sy * cxx - cxy * sx) / ((n * cxx) << by)
            slope_xbar = abs(cxy * sx) / ((n * cxx) << by)
            assert abs(f.a - a) <= 1e-12 * max(abs(ybar), slope_xbar)
            # with s2 = ssr / (n - 2): se_k**2 = s2 / Sxx, and
            # se_a**2 = s2 * (1/n + xbar**2 / Sxx) = s2 * (sum of squared years) / (n * Sxx)
            se_k = math.sqrt((rss << 2 * bx) / ((cxx * cxx * (n - 2)) << 2 * by))
            se_a = math.sqrt(rss * qxx / ((n * cxx * cxx * (n - 2)) << 2 * by))
            assert abs(f.se_k - se_k) <= 1e-12 * se_k
            assert abs(f.se_a - se_a) <= 1e-12 * se_a
            # correctly rounded moments do not depend on the rest of the series
            assert repr(fit_hyperbolic(window(s, w), w)) == repr(f)


@settings(max_examples=5, deadline=None)
@given(s=small_series(SMALL_FIT_MAX + 1, 2 * SMALL_FIT_MAX))
def test_long_series_small_window_fits_depend_only_on_their_points(s):
    # a series of more than 64 points keeps no table, yet each of its windows
    # of at most 64 points fits to the same bits as a series of just its points
    years = s.years
    for lo in range(len(s) - 2):
        for hi in range(lo + 3, min(len(s), lo + SMALL_FIT_MAX) + 1):
            w = Window(years[lo], years[hi - 1])
            try:
                f = fit_hyperbolic(s, w)
            except NonDecreasingLineError:
                with pytest.raises(NonDecreasingLineError):
                    fit_hyperbolic(window(s, w), w)
                continue
            assert repr(fit_hyperbolic(window(s, w), w)) == repr(f)


# The exact kernel divides by n and scales by ldexp when ``_ldexp_exact`` says
# every quotient stays a normal float, and by the scaled divisor otherwise.
# Either way each moment is what one int true division by the scaled divisor
# gives: rounded once, correctly, even below 2**-1022, and an OverflowError
# beyond the float range.

TOO_EXTREME = "line fit: values too extreme for float arithmetic"


def divided_line(years, values):
    """The ``LineFit`` fields of the exact OLS line of the points, each moment
    one int true division by its scaled divisor, or None when the centred
    years square to 0; a moment beyond the float range raises OverflowError."""
    (bx, xs), (by, ys) = exact_scaled(years), exact_scaled(values)
    columns = (xs, ys, map(mul, xs, xs), map(mul, xs, ys), map(mul, ys, ys))
    n, sx, sy, _, _, _, cxx, cxy, cyy = exact_sums(*map(exact_prefix, columns), 0, len(xs))
    try:
        sxx, sst = cxx / (n << 2 * bx), cyy / (n << 2 * by)
    except OverflowError:
        raise OverflowError(TOO_EXTREME) from None
    if not sxx:
        return None
    xbar, ybar = sx / (n << bx), sy / (n << by)
    slope = (cxy / (n << (bx + by))) / sxx
    ssr = (cyy * cxx - cxy * cxy) / ((n * cxx) << 2 * by)
    return tuple(_line_from_moments(n, slope, ybar - slope * xbar, ybar, sxx, ssr, sst, xbar))


def assert_divided_line(fit, years, values):
    """``fit()`` is ``divided_line`` of the points to the bit, or raises what it raises."""
    try:
        want = divided_line(years, values)
    except ArithmeticError as exc:
        with pytest.raises(type(exc)) as got:
            fit()
        assert str(got.value) == str(exc)
        return
    if want is None:
        with pytest.raises((FitTooFewPointsError, YearsTooCloseError)):
            fit()
    else:
        assert repr(tuple(fit())) == repr(want)


@st.composite
def binary_column(draw, n, finest=1100, signed=True):
    """n floats m * 2**(e - b), m of up to 53 bits: b in 0..finest sets the
    finest power of two of the column and e in 0..550 the spread above it, so
    the column scales to integers of up to 603 bits, whose squares sum past
    2**1100."""
    b = draw(st.integers(0, finest))
    top = draw(st.integers(0, 550))
    signs = st.sampled_from([1, -1]) if signed else st.just(1)
    return [draw(signs) * math.ldexp(draw(st.integers(1, 2**53 - 1)), draw(st.integers(0, top)) - b)
            for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(2, SMALL_FIT_MAX))
def test_exact_kernel_matches_one_division_by_the_scaled_divisor(data, n):
    years, values = data.draw(binary_column(n)), data.draw(binary_column(n))
    assert_divided_line(lambda: fit_line(years, values), years, values)
    # a series decides once, from the totals of its table, for all its ranges;
    # values from 2**-1000 keep their reciprocals finite
    values = data.draw(binary_column(len(set(years)), finest=1000, signed=False))
    assume(len(values) >= 2)
    s = new_series(zip(sorted(set(years)), values), "x")
    lo = data.draw(st.integers(0, len(s) - 2))
    hi = data.draw(st.integers(lo + 2, len(s)))
    assert_divided_line(lambda: fit_range(s, lo, hi), s.years[lo:hi], s.reciprocals[lo:hi])


EDGE_YEARS = (1500, 1600, 1700, 1800, 1900)


@pytest.mark.parametrize("values, a", [
    # reciprocals from 1e100 to 1e-90: squared, the scaled integers overflow a float
    ((1e-100, 1e-50, 1, 1e50, 1e90), 3.599999999999999e+100),
    # reciprocals near 1e-155, by = 568: Sst is about 1.7e-311, a subnormal
    ((1e155, 1.1e155, 1.3e155, 1.6e155, 2e155), 2.943618881118881e-155),
])
def test_extreme_series_fit_as_one_division_by_the_scaled_divisor(values, a):
    s = new_series(zip(EDGE_YEARS, values), "edge")
    assert fit_hyperbolic(s, Window(1500, 1900)).a == a
    assert_divided_line(lambda: fit_range(s, 0, len(s)), s.years, s.reciprocals)


@pytest.mark.parametrize("values, scaled", [
    ((1e-100, 1e-50, 1, 1e50, 1e90), False),
    ((1e155, 1.1e155, 1.3e155, 1.6e155, 2e155), False),
    ((1e3, 1.1e3, 1.3e3, 1.6e3, 2e3), True),
])
def test_tables_divide_by_n_only_where_every_ldexp_is_exact(values, scaled):
    assert new_series(zip(EDGE_YEARS, values), "edge").prefix_moments[2] is scaled


def test_ldexp_limits_follow_from_the_cut():
    # at most 64 = 2**6 points, so a quotient is at least 2**-6: the scales may reach
    # 2**-(2 * 508), and the residual 2**-1010, before a moment leaves the normal range
    assert SMALL_FIT_MAX == 64 and fitting_module._N_BITS == 6
    assert (fitting_module._MAX_SCALE_BITS, fitting_module._MAX_RESIDUAL_BITS) == (508, 1010)
    exact = fitting_module._ldexp_exact
    assert exact(508, 0, 1, 1) and not exact(509, 0, 1, 1)
    # 2 * by + qxx.bit_length() <= 1010
    assert exact(0, 505, 0, 1) and not exact(0, 506, 0, 1)
    assert exact(0, 500, 2**9, 1) and not exact(0, 500, 2**10, 1)


def noisy_w12_points():
    rng = random.Random(5)
    years = (1500, 1600, 1700, 1820, 1850, 1870, 1880, 1890, 1900, 1905, 1910, 1913)
    return [(t, math.exp(rng.gauss(0.0, 0.05)) / (0.1147 - 5.961e-5 * t)) for t in years]


@settings(max_examples=40, deadline=None)
@given(m=st.integers(-517, 490))
@example(m=-517)  # the least that fits: its table divides by the scaled divisor
@example(m=-516)  # the first scale whose table divides by n
@example(m=429)  # the last scale whose table divides by n
@example(m=430)  # the first whose table divides by the scaled divisor
def test_power_of_two_scaling_of_the_values_scales_the_fit_exactly(m):
    # values times 2**m: reciprocals times 2**-m, exactly; every moment stays normal
    points = noisy_w12_points()
    w = Window(1500, 1913)
    f = fit_hyperbolic(new_series(points, "x"), w)
    s = new_series([(t, math.ldexp(v, m)) for t, v in points], "x")
    g = fit_hyperbolic(s, w)
    assert s.prefix_moments[2] == (-517 < m < 430)
    for name in ("a", "k", "rmse_reciprocal", "se_a", "se_k"):
        assert getattr(g, name) == math.ldexp(getattr(f, name), -m)
    assert g.r2_reciprocal == f.r2_reciprocal


class TestPrefixMoments:
    def test_built_once_per_series_and_reused(self, monkeypatch):
        builds = []
        scaled = fitting_module._scaled
        monkeypatch.setattr(fitting_module, "_scaled",
                            lambda column: builds.append(len(column)) or scaled(column))
        s = hyperbola_series(0.1147, 5.961e-5, range(1500, 1901, 25))
        assert "prefix_moments" not in vars(s)
        for t0 in range(1500, 1800, 25):
            fit_hyperbolic(s, Window(t0, 1900))
        table = s.prefix_moments
        analyze_series(s)
        assert builds == [len(s), len(s)]  # the years and the reciprocals, once
        assert s.prefix_moments is table

    @pytest.mark.parametrize("n", [SMALL_FIT_MAX, SMALL_FIT_MAX + 1, 200])
    def test_kept_only_by_series_of_at_most_small_fit_max_points(self, n):
        s = hyperbola_series(0.1147, 5.961e-5, [1500 + 400 * i / (n - 1) for i in range(n)])
        analyze_series(s)
        assert ("prefix_moments" in vars(s)) == (n <= SMALL_FIT_MAX)

    def test_years_too_close_raise_through_the_table(self):
        s = new_series([(0, 1), (9.3e-247, 2), (6e-227, 3), (1e-226, 4), (1500, 10),
                        (1600, 12), (1700, 15), (1820, 20), (1870, 30), (1900, 40),
                        (1913, 50)], "mixed")
        with pytest.raises(YearsTooCloseError, match=r"\(0 to 1e-226\)"):
            fit_hyperbolic(s, Window(-1, 1))
        assert "prefix_moments" in vars(s)
        with pytest.raises(YearsTooCloseError, match=r"\(0 to 6e-227\)"):
            fit_range(s, 0, 3)
        fit_hyperbolic(s, Window(1500, 1900))  # the other windows still fit

    def test_overflow_is_an_arithmetic_error_through_the_table(self):
        s = new_series([(1, 1e-300), (2, 2e-300), (3, 3e-300), (4, 1.0)], "x")
        with pytest.raises(OverflowError, match="values too extreme for float arithmetic"):
            fit_range(s, 0, 4)

    def test_infinite_reciprocal_is_too_extreme_for_the_table(self):
        # a series refuses such a value, so give the table an infinite column directly
        years, recip = (1500.0, 1600.0, 1700.0, 1800.0), (math.inf, 1.0, 0.5, 1 / 3)
        for build in (lambda: prefix_moments(years, recip), lambda: fit_line(years, recip)):
            with pytest.raises(OverflowError, match="values too extreme for float arithmetic"):
                build()


class TestKeptArrays:
    def test_built_once_by_long_range_fits_and_reused(self):
        s = hyperbola_series(0.1147, 5.961e-5, [1500 + 2 * i for i in range(200)])
        assert "arrays" not in vars(s)
        fit_range(s, 0, SMALL_FIT_MAX)  # at most 64 points: the exact path
        assert "arrays" not in vars(s)
        fit_range(s, 0, SMALL_FIT_MAX + 1)
        arrays = s.arrays
        analyze_series(s)
        assert s.arrays is arrays

    def test_bundled_presets_never_build_them(self, europe_dataset):
        for preset in preset_catalog():
            s = aggregate(europe_dataset, preset)
            analyze_series(s)
            assert "arrays" not in vars(s)


def test_fitting_is_the_one_numpy_module_and_regimes_reads_its_public_names():
    # fitting makes every exact-or-numpy choice: no other module imports numpy,
    # and regimes needs neither the cut, nor the range reader, nor a private name
    package = pathlib.Path(fitting_module.__file__).parent
    numpy_importers, from_fitting = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                if path.name == "regimes.py" and modules[0].split(".")[-1] == "fitting":
                    from_fitting += [alias.name for alias in node.names]
            else:
                continue
            if any(m == "numpy" or m.startswith("numpy.") for m in modules):
                numpy_importers.append(path.name)
    assert set(numpy_importers) == {"fitting.py"}
    assert "fit_range" in from_fitting  # the walk sees regimes' imports
    assert [name for name in from_fitting
            if name.startswith("_") or name in ("SMALL_FIT_MAX", "range_columns")] == []
