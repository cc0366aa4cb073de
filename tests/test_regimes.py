import contextlib
import json
import math
import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergrowth.errors import (
    HypergrowthError,
    NoPointsAfterWindowError,
    NoPointsInWindowError,
    NonDecreasingLineError,
    SegmentTooSparseError,
    WindowTooFewPointsError,
)
from hypergrowth.fitting import (
    ABSOLUTE_RESIDUAL_TOLERANCE,
    SMALL_FIT_MAX,
    HyperbolicFit,
    _scan_numpy,
    _scan_small,
    _sign_counts,
    _sums_numpy,
    fit_hyperbolic,
    fit_line,
    fit_range,
    goodness,
    singularity,
)
from hypergrowth.regimes import (
    DEFAULT_TAKEOFF_WINDOW,
    DiversionReport,
    TakeoffReport,
    _runs_z,
    detect_diversion,
    segment_consistency,
    stagnation_test,
    takeoff_scan,
)
from hypergrowth.series import Window, index_range, new_series

A, K = 0.1147, 5.961e-5  # blow-up near 1924
FIT_W = Window(1500, 1900)
IN_YEARS = (1500, 1600, 1700, 1820, 1870, 1900)


def hyper(t, a=A, k=K):
    return 1.0 / (a - k * t)


def series_with_tail(tail_points, in_years=IN_YEARS, label="s"):
    pts = [(t, hyper(t)) for t in in_years] + list(tail_points)
    return new_series(pts, label)


class TestDetectDiversion:
    def test_exact_extension_has_no_diversion(self):
        s = series_with_tail([(t, hyper(t)) for t in (1905, 1910, 1915, 1920)])
        f = fit_hyperbolic(s, FIT_W)
        rep = detect_diversion(f, s)
        assert rep.direction == "none"
        assert rep.diversion_year is None
        assert rep.bypass_years is None

    def test_frozen_values_divert_slower_at_first_sample(self):
        frozen = hyper(1900)
        s = series_with_tail([(t, frozen) for t in (1905, 1910, 1915, 1920)])
        f = fit_hyperbolic(s, FIT_W)
        rep = detect_diversion(f, s)
        assert rep.direction == "slower"
        assert rep.diversion_year == 1905
        assert rep.bypass_years == pytest.approx(singularity(f) - 1905, rel=1e-12)

    def test_faster_direction_for_negative_residuals(self):
        s = series_with_tail([(t, 3.0 * hyper(t)) for t in (1905, 1910, 1915)])
        f = fit_hyperbolic(s, FIT_W)
        rep = detect_diversion(f, s)
        assert rep.direction == "faster"
        assert rep.diversion_year == 1905

    def test_requires_points_after_window(self):
        s = new_series([(t, hyper(t)) for t in IN_YEARS], "s")
        f = fit_hyperbolic(s, FIT_W)
        with pytest.raises(NoPointsAfterWindowError):
            detect_diversion(f, s)

    def test_scan_ignores_years_past_line_zero(self):
        # 1950 is past the blow-up; only 1905..1920 are evaluable
        frozen = hyper(1900)
        s = series_with_tail([(1905, frozen), (1910, frozen), (1950, frozen)])
        f = fit_hyperbolic(s, FIT_W)
        rep = detect_diversion(f, s)
        assert rep.direction == "slower"
        assert rep.evaluable_until == 1910

    def test_blip_is_not_persistent(self):
        # one excursion followed by an exact return to the line
        frozen = hyper(1900)
        s = series_with_tail([(1905, frozen), (1910, hyper(1910))])
        f = fit_hyperbolic(s, FIT_W)
        rep = detect_diversion(f, s)
        assert rep.direction == "none"

    def test_truncation_never_moves_onset(self):
        # dropping the last observed point may create an onset where none
        # existed, but never relocates an existing one
        rng = np.random.default_rng(42)
        for _ in range(40):
            in_pts = [
                (t, hyper(t) * math.exp(rng.normal(0, 0.01))) for t in IN_YEARS
            ]
            tail_years = (1903, 1906, 1909, 1912, 1915)
            tail = [
                (t, hyper(t) / (1.0 + abs(rng.normal(0, 0.15))))
                for t in tail_years
            ]
            full = new_series(in_pts + tail, "full")
            truncated = new_series(in_pts + tail[:-1], "trunc")
            f = fit_hyperbolic(full, FIT_W)  # same fit for both: tail is post-window
            rep_full = detect_diversion(f, full)
            rep_trunc = detect_diversion(f, truncated)
            if rep_full.diversion_year is not None and rep_trunc.diversion_year is not None:
                assert rep_trunc.diversion_year == rep_full.diversion_year


class TestTakeoffScan:
    def test_exact_hyperbola_has_no_takeoff(self):
        s = series_with_tail([(1910, hyper(1910))])
        f = fit_hyperbolic(s, FIT_W)
        rep = takeoff_scan(f, s)
        assert rep.found is False
        assert rep.onset_year is None

    def test_tripled_values_from_1800_takeoff(self):
        years = (1500, 1600, 1700, 1750, 1780, 1800, 1820, 1840)
        pts = [(t, hyper(t) * (3.0 if t >= 1800 else 1.0)) for t in years]
        s = new_series(pts, "boost")
        f = fit_hyperbolic(s, Window(1500, 1780))
        rep = takeoff_scan(f, s, w=Window(1760, 1840))
        assert rep.found is True
        assert rep.onset_year == 1800
        assert rep.max_negative_normalized_residual < 0

    def test_requires_points_in_window(self):
        s = series_with_tail([(1910, hyper(1910))])
        f = fit_hyperbolic(s, FIT_W)
        with pytest.raises(NoPointsInWindowError):
            takeoff_scan(f, s, w=Window(1040, 1060))

    def test_requires_line_positive_in_window(self):
        # the fitted line reaches zero at 1700, before the takeoff window opens
        k = A / 1700.0
        s = new_series([(t, hyper(t, k=k)) for t in (1000, 1300, 1500, 1600)]
                       + [(1780, 1.0), (1820, 2.0)], "early")
        f = fit_hyperbolic(s, Window(1000, 1600))
        with pytest.raises(NoPointsInWindowError,
                           match=r"fitted line not positive anywhere in \[1760, 1840\]"):
            takeoff_scan(f, s)

    def test_sign_convention_matches_diversion(self):
        # persistent negative residual is takeoff/faster, positive is slower
        years = (1500, 1600, 1700, 1750, 1780, 1800, 1820, 1840)
        pts = [(t, hyper(t) * (3.0 if t >= 1800 else 1.0)) for t in years]
        s = new_series(pts, "boost")
        f = fit_hyperbolic(s, Window(1500, 1780))
        takeoff = takeoff_scan(f, s, w=Window(1760, 1840))
        diversion = detect_diversion(f, s)
        assert takeoff.found is True
        assert diversion.direction == "faster"


class TestRunsTest:
    def test_alternating_signs_z_positive_and_growing(self):
        z4 = _runs_z(*_sign_counts([1.0, -1.0] * 4))
        z10 = _runs_z(*_sign_counts([1.0, -1.0] * 10))
        assert 0 < z4 < z10

    def test_all_same_sign_degenerate(self):
        counts = _sign_counts([0.5, 0.5, 0.5, 0.5])
        assert _runs_z(*counts) == 0.0
        assert counts == (4, 0, 0)

    def test_one_residual_of_each_sign_has_zero_variance(self):
        counts = _sign_counts([1.0, -1.0])
        assert _runs_z(*counts) == 0.0 and counts == (1, 1, 1)

    def test_zero_residuals_excluded(self):
        counts = _sign_counts([0.0, 0.0, 0.0])
        assert _runs_z(*counts) == 0.0 and counts == (0, 0, 0)


class TestStagnationTest:
    def test_exact_hyperbola_is_hyperbolic_consistent(self):
        years = (1, 1000, 1500, 1600, 1700)
        s = new_series([(t, hyper(t)) for t in years], "s")
        v = stagnation_test(s, Window(1, 1750))
        assert v.verdict == "hyperbolic-consistent"
        assert v.rmse_hyperbolic_model == 0.0
        assert v.monotone_fraction == 1.0

    def test_alternating_oscillation_is_stagnation_consistent(self):
        years = (1, 400, 800, 1200, 1600)
        pts = [(t, 2.0 * (1.05 if i % 2 == 0 else 0.95)) for i, t in enumerate(years)]
        s = new_series(pts, "osc")
        v = stagnation_test(s, Window(1, 1750))
        assert v.verdict == "stagnation-consistent"
        assert v.monotone_fraction < 0.75

    def test_constant_series_is_stagnation_consistent(self):
        s = new_series([(t, 2.0) for t in (1, 500, 1000, 1500)], "flat")
        v = stagnation_test(s, Window(1, 1750))
        assert v.verdict == "stagnation-consistent"
        assert v.monotone_fraction == 0.0

    def test_one_early_decline_still_hyperbolic(self):
        # millennium-scale dip at the second point, hyperbolic afterwards
        pts = [(1, 11.0), (1000, 8.4), (1500, 39.5), (1600, 51.7), (1700, 74.8)]
        s = new_series(pts, "dip")
        v = stagnation_test(s, Window(1, 1750))
        assert v.monotone_fraction == pytest.approx(0.75)
        assert v.verdict == "hyperbolic-consistent"

    def test_too_few_points(self):
        s = new_series([(1, 10.0), (1000, 12.0), (1500, 44.0)], "s")
        with pytest.raises(WindowTooFewPointsError):
            stagnation_test(s, Window(1, 1750))

    def test_large_window_too_extreme_for_floats_raises(self):
        # more points than SMALL_FIT_MAX, so the scans run in numpy
        s = new_series([(t, 1e-300 / (1.0 + t / 100.0)) for t in range(1, 101)], "x")
        assert min(s.reciprocals) >= 1e300
        with pytest.raises(ArithmeticError):
            stagnation_test(s, Window(1, 1750))


@st.composite
def scan_inputs(draw):
    """65-400 strictly increasing years with values of one of five shapes."""
    n = draw(st.integers(65, 400))
    start = draw(st.integers(-3000, 1000))
    steps = draw(st.lists(st.integers(1, 20), min_size=n - 1, max_size=n - 1))
    years = [float(start)]
    for step in steps:
        years.append(years[-1] + step)
    shape = draw(st.sampled_from(["random", "constant", "line", "rising", "ties"]))
    if shape == "random":
        values = draw(st.lists(st.floats(0.1, 1e4), min_size=n, max_size=n))
    elif shape == "constant":
        values = [draw(st.floats(0.1, 1e4))] * n
    elif shape == "line":  # an exact hyperbola: reciprocals on a decreasing line
        # measured from the last year, so the line stays positive on years past 5000
        values = [hyper(t - years[-1], a=0.5, k=1e-4) for t in years]
    elif shape == "rising":  # reciprocals on an increasing line: slope >= 0
        values = [1.0 / (1.0 + 1e-4 * (t - start)) for t in years]
    else:
        values = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=n, max_size=n))
    return new_series(list(zip(years, values)), shape)


@settings(max_examples=120, deadline=None)
@given(s=scan_inputs())
def test_scan_kernels_agree(s):
    line = fit_range(s, 0, len(s))
    for a, b in ((line.intercept, line.slope), (line.mean, 0.0)):
        assert _scan_numpy(*s.arrays, a, b) == _scan_small(s.years, s.reciprocals, s.values, a, b)


@settings(max_examples=60, deadline=None)
@given(s=scan_inputs(), data=st.data())
def test_long_range_fits_of_the_kept_arrays_match_fit_line(s, data):
    # views at even and odd offsets fit to the bits of the sliced tuples
    for parity in (0, 1):
        room = len(s) - parity - SMALL_FIT_MAX - 1
        if room < 0:
            continue
        lo = parity + 2 * data.draw(st.integers(0, room // 2))
        hi = data.draw(st.integers(lo + SMALL_FIT_MAX + 1, len(s)))
        assert fit_range(s, lo, hi) == fit_line(s.years[lo:hi], s.reciprocals[lo:hi])


@settings(max_examples=60, deadline=None)
@given(s=scan_inputs())
def test_kept_arrays_hold_the_columns(s):
    years, recip, values = s.arrays
    assert recip.tolist() == list(s.reciprocals)
    assert years.tolist() == list(s.years) and values.tolist() == list(s.values)


@settings(max_examples=60, deadline=None)
@given(s=scan_inputs())
def test_numpy_kernel_reads_any_sequence_alike(s):
    years, recip = s.years, s.reciprocals
    inputs = [
        (list(years), list(recip)),
        (years, recip),
        ([int(t) for t in years], recip),  # scan_inputs draws whole years
        s.arrays[:2],
    ]
    results = [_sums_numpy(x, y) for x, y in inputs]
    assert all(r == results[0] for r in results)


def nudged(v, ulps):
    """v moved by ``ulps`` units in the last place, up for ulps > 0."""
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.inf if ulps > 0 else 0.0)
    return v


@st.composite
def stagnation_windows(draw):
    """4-64 or 65-400 points, one size class each half of the draws; half the
    draws are near flat: equally spaced years and symmetric values, one of
    them nudged by 1 to 50 ulps, so the line explains less than an ulp of the
    variance."""
    n = draw(st.integers(4, SMALL_FIT_MAX) | st.integers(SMALL_FIT_MAX + 1, 400))
    if draw(st.booleans()):
        start, step = draw(st.integers(-3000, 1000)), draw(st.integers(1, 50))
        years = [float(start + step * i) for i in range(n)]
        half = draw(st.lists(st.floats(0.5, 2.0), min_size=n // 2, max_size=n // 2))
        values = half + [draw(st.floats(0.5, 2.0))] * (n % 2) + half[::-1]
        i = draw(st.integers(0, n - 1))
        values[i] = nudged(values[i], draw(st.integers(1, 50)) * draw(st.sampled_from([-1, 1])))
    else:
        steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=n - 1, max_size=n - 1))
        years = list(accumulate(steps, initial=draw(st.floats(-5000.0, 5000.0))))
        values = draw(st.lists(st.floats(1e-3, 1e6), min_size=n, max_size=n))
    return new_series(zip(years, values), "w")


@settings(max_examples=200, deadline=None)
@given(s=stagnation_windows())
def test_stagnation_line_never_worse_than_the_mean(s):
    v = stagnation_test(s, Window(s.years[0], s.years[-1]))
    assert v.rmse_hyperbolic_model <= v.rmse_constant_model
    assert v.rmse_constant_model == fit_range(s, 0, len(s)).rmse_constant


def test_near_flat_long_windows_line_never_worse_than_the_mean():
    # numpy rounds the two sums of squares separately; without the clamp the
    # line came out worse than the mean on seeds 22, 26 and 51
    for seed in range(60):
        rng = random.Random(seed)
        n = SMALL_FIT_MAX + 1 + seed % 50
        half = [rng.uniform(0.5, 2.0) for _ in range(n // 2)]
        values = half + [rng.uniform(0.5, 2.0)] * (n % 2) + half[::-1]
        i = rng.randrange(n)
        values[i] = nudged(values[i], rng.randint(1, 50) * rng.choice([-1, 1]))
        s = new_series([(float(t), v) for t, v in enumerate(values, 1)], "flat")
        v = stagnation_test(s, Window(1.0, float(n)))
        assert v.rmse_hyperbolic_model <= v.rmse_constant_model, seed


class TestSegmentConsistency:
    def test_exact_line_is_single_line_consistent(self):
        years = range(1500, 1901, 20)
        s = new_series([(t, hyper(t)) for t in years], "dense")
        rep = segment_consistency(s)
        assert rep.verdict == "single-line-consistent"
        assert all(z == pytest.approx(0.0, abs=1e-3) for _, _, z in rep.z_scores)
        assert len(rep.segments) == 3

    def test_doubled_slope_after_1750_is_segmented(self):
        a, k = 0.2, 5e-5
        pts = []
        for t in range(1500, 1901, 10):
            if t < 1750:
                recip = a - k * t
            else:
                recip = (a - k * 1750) - 2 * k * (t - 1750)
            pts.append((t, 1.0 / recip))
        s = new_series(pts, "kink")
        rep = segment_consistency(s, boundaries=(1750,), w=Window(1500, 1900))
        assert rep.verdict == "segmented"

    def test_sparse_segment_named_in_error(self):
        s = new_series(
            [(1500, hyper(1500)), (1600, hyper(1600)), (1700, hyper(1700)),
             (1880, hyper(1880)), (1900, hyper(1900))],
            "sparse",
        )
        with pytest.raises(SegmentTooSparseError) as err:
            segment_consistency(s, boundaries=(1750, 1870), w=Window(1500, 1900))
        assert "1750" in str(err.value) and "1870" in str(err.value)

    def test_repeated_boundary_cuts_once(self):
        rng = np.random.default_rng(3)
        s = new_series([(t, hyper(t) * math.exp(rng.normal(0, 0.03)))
                        for t in range(1500, 1901, 25)], "noisy")
        want = segment_consistency(s, boundaries=(1750, 1870))
        assert len(want.segments) == 3
        for boundaries in ((1750, 1750, 1870), (1870, 1750, 1870, 1750)):
            assert segment_consistency(s, boundaries=boundaries) == want

    def test_rescaling_leaves_z_scores_unchanged(self):
        rng = np.random.default_rng(5)
        years = list(range(1500, 1901, 25))
        pts = [(t, hyper(t) * math.exp(rng.normal(0, 0.03))) for t in years]
        s = new_series(pts, "noisy")
        scaled = new_series([(y, v * 250.0) for y, v in pts], "scaled")
        z1 = [z for _, _, z in segment_consistency(s).z_scores]
        z2 = [z for _, _, z in segment_consistency(scaled).z_scores]
        assert z1 == pytest.approx(z2, rel=1e-9)
        # exact segments (se 0): the verdict holds in any unit of the values
        years = range(1500, 1901, 25)
        two_slope = [1 / (0.2 - 5e-5 * min(t, 1750) - 1e-4 * max(t - 1750, 0)) for t in years]
        one_line = [1 / (0.2 - 5e-5 * t) for t in years]
        for values, verdict, z in ((two_slope, "segmented", math.inf),
                                   (one_line, "single-line-consistent", 0.0)):
            for scale in (1.0, 1e8, 2.0**400):
                exact = new_series([(t, v * scale) for t, v in zip(years, values)], "exact")
                report = segment_consistency(exact, boundaries=(1750,))
                assert [seg.se for seg in report.segments] == [0.0, 0.0]
                assert report.z_scores == ((0, 1, z),)
                assert report.verdict == verdict


# --- the diversion and takeoff scans against the row-based code they replaced

def reference_rows(f, years, values):
    """Residual rows (year, raw, normalized, relative GDP deviation) as the
    row-based scans built them, with the absolute tolerance for an exact fit."""
    a, k = f.a, f.k
    scale = f.rmse_reciprocal or ABSOLUTE_RESIDUAL_TOLERANCE
    rows = []
    for y, v in zip(years, values):
        line = a - k * y
        if line > 0.0:
            raw = 1.0 / v - line
            rows.append((y, raw, raw / scale if scale else 0.0, -raw * v))
    return rows


def reference_onset(flags):
    """Index of the earliest True followed only by True, else None."""
    onset = None
    for i in range(len(flags) - 1, -1, -1):
        if not flags[i]:
            break
        onset = i
    return onset


def reference_diversion(f, s, kappa):
    lo = index_range(s, f.fit_window.t0, f.fit_window.t1)[1]
    post = s.years[lo:]
    if not post:
        raise NoPointsAfterWindowError(
            f"series {s.label!r}: no observed years after {f.fit_window.t1:g}"
        )
    rows = reference_rows(f, post, s.values[lo:])
    evaluable_until = rows[-1][0] if rows else f.fit_window.t1
    direction = "none"
    onset_year = None
    pos = reference_onset([rho > kappa for _, _, rho, _ in rows])
    neg = reference_onset([rho < -kappa for _, _, rho, _ in rows])
    if pos is not None:
        direction = "slower"
        onset_year = rows[pos][0]
    elif neg is not None:
        direction = "faster"
        onset_year = rows[neg][0]
    return DiversionReport(
        diversion_year=onset_year,
        direction=direction,
        bypass_years=None if onset_year is None else singularity(f) - onset_year,
        threshold_kappa=kappa,
        evaluable_until=evaluable_until,
    )


def reference_takeoff(f, s, w, kappa):
    lo, hi = index_range(s, w.t0, w.t1)
    if lo == hi:
        raise NoPointsInWindowError(
            f"series {s.label!r}: no observed years in [{w.t0:g}, {w.t1:g}]"
        )
    rows = reference_rows(f, s.years[lo:hi], s.values[lo:hi])
    if not rows:
        raise NoPointsInWindowError(
            f"series {s.label!r}: fitted line not positive anywhere in "
            f"[{w.t0:g}, {w.t1:g}]"
        )
    onset = reference_onset([rho < -kappa for _, _, rho, _ in rows])
    return TakeoffReport(
        window=w,
        found=onset is not None,
        onset_year=None if onset is None else rows[onset][0],
        max_negative_normalized_residual=min(rho for _, _, rho, _ in rows),
    )


def outcome(test, *args):
    """The record's repr, so every float compares bit for bit, or the error."""
    try:
        return repr(test(*args))
    except HypergrowthError as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def scan_cases(draw):
    """A series, a fit on its first points, a takeoff window and a kappa.

    The line's zero falls inside or after the years, so some late years
    are not evaluable; the rmse may be 0 (the absolute tolerance applies).
    From a drawn year on, the values leave the line by a drawn factor, so
    persistent runs above and below kappa both occur.
    """
    n_in = draw(st.integers(3, 8))
    n_post = draw(st.sampled_from([0, 1, 2, 7, SMALL_FIT_MAX - 1, SMALL_FIT_MAX + 1, 100]))
    start, step = draw(st.integers(1000, 1800)), draw(st.integers(1, 4))
    years = [float(start + step * i) for i in range(n_in + n_post)]
    k = draw(st.sampled_from([1e-5, 1e-4, 1e-3]))
    blowup = years[0] + draw(st.floats(0.2, 1.5)) * (years[-1] - years[0]) + 1.0
    a = k * blowup
    rng = random.Random(draw(st.integers(0, 2**32)))
    sigma = draw(st.sampled_from([0.0, 1e-9, 0.01, 0.2]))
    factor = draw(st.sampled_from([1.0, 0.5, 0.97, 1.03, 2.0]))
    leave = draw(st.integers(0, len(years) - 1))
    values = []
    for i, t in enumerate(years):
        line = a - k * t
        value = 1.0 / line if line > 0.0 else rng.uniform(0.1, 10.0)
        values.append(value * math.exp(sigma * rng.gauss(0.0, 1.0))
                      * (factor if i >= leave else 1.0))
    s = new_series(zip(years, values), "case")
    w = Window(years[0], years[n_in - 1])
    f = None
    rmse = draw(st.sampled_from([None, 0.0, 1e-12, 1e-3, 0.05]))  # None: fit the points
    if rmse is None:
        with contextlib.suppress(NonDecreasingLineError):
            f = fit_hyperbolic(s, w)
    if f is None:  # the drawn line, its rmse relative to its value at the window's end
        rmse = abs(a - k * w.t1) * (rmse or 0.0)
        f = HyperbolicFit(a, k, w, n_in, rmse, 1.0, None, None)
    t0, t1 = sorted(draw(st.lists(st.sampled_from(years), min_size=2, max_size=2)))
    takeoff = draw(st.sampled_from([DEFAULT_TAKEOFF_WINDOW, Window(t0 - 0.5, t1)]))
    kappa = draw(st.sampled_from([1e-9, 0.5, 3.0, 10.0, -1.0]))
    return f, s, takeoff, kappa


@settings(max_examples=300, deadline=None)
@given(case=scan_cases())
def test_scans_match_the_row_based_reference(case):
    f, s, takeoff, kappa = case
    assert outcome(detect_diversion, f, s, kappa) == outcome(reference_diversion, f, s, kappa)
    assert (outcome(takeoff_scan, f, s, takeoff, kappa)
            == outcome(reference_takeoff, f, s, takeoff, kappa))
    # the rows a user reads are the rows the verdicts come from
    assert goodness(f, s).rows == tuple(reference_rows(f, s.years, s.values))


@pytest.mark.parametrize("name", ["W12", "W30", "EE"])
def test_scans_match_the_row_based_reference_on_every_preset_window(regional_series, name):
    s = regional_series[name]
    years = s.years
    for i in range(len(years)):
        for j in range(i + 2, len(years)):
            w = Window(years[i], years[j])
            try:
                f = fit_hyperbolic(s, w)
            except NonDecreasingLineError:
                continue
            for kappa in (3.0, 2.5, 0.5):
                assert (outcome(detect_diversion, f, s, kappa)
                        == outcome(reference_diversion, f, s, kappa))
                assert (outcome(takeoff_scan, f, s, DEFAULT_TAKEOFF_WINDOW, kappa)
                        == outcome(reference_takeoff, f, s, DEFAULT_TAKEOFF_WINDOW, kappa))


def test_infinite_normalized_residuals_match_the_row_based_reference(runner, tmp_path):
    # an exact line on 1500-1700 (scale 1e-9), then reciprocals of 1e300
    points = [(1500, 1.0), (1600, 1.1111111111111112), (1700, 1.25),
              (1820, 1e-300), (1830, 1e-300), (1840, 1e-300)]
    s = new_series(points, "ovf")
    f = fit_hyperbolic(s, Window(1500, 1700))
    assert f.rmse_reciprocal == 0.0
    tko = takeoff_scan(f, s)
    assert (tko.found, tko.onset_year, tko.max_negative_normalized_residual) == (
        False, None, math.inf)
    div = detect_diversion(f, s)
    assert (div.direction, div.diversion_year, div.evaluable_until) == ("slower", 1820, 1840)
    assert outcome(takeoff_scan, f, s, DEFAULT_TAKEOFF_WINDOW, 3.0) == outcome(
        reference_takeoff, f, s, DEFAULT_TAKEOFF_WINDOW, 3.0)
    assert outcome(detect_diversion, f, s, 3.0) == outcome(reference_diversion, f, s, 3.0)
    # analyze on the same points: the takeoff's infinity skips its section, naming
    # the field, and the rest of the report is written
    path, out = tmp_path / "ovf.csv", tmp_path / "ovf.json"
    path.write_text("year,value\n" + "".join(f"{t},{v!r}\n" for t, v in points))
    result = runner(["analyze", str(path), "--long", "--window", "1500:1700", "-o", str(out)])
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["takeoff"] == {"skipped": "max_negative_normalized_residual is inf: "
                                            "values too extreme for float arithmetic"}
    fit = report["fit"]
    assert (fit["a"], fit["k"], fit["se_a"], fit["se_k"], fit["n_points"], fit["rmse_reciprocal"],
            fit["r2_reciprocal"], fit["singularity_year"]) == (
        f.a, f.k, f.se_a, f.se_k, f.n_points, f.rmse_reciprocal, f.r2_reciprocal, singularity(f))
    assert report["diversion"] == div._asdict()
    seg = segment_consistency(s, w=Window(1500, 1700))
    assert report["segments"] == {
        "boundaries": list(seg.boundaries), "segments": [x._asdict() for x in seg.segments],
        "z_scores": [], "verdict": seg.verdict}


@pytest.mark.parametrize("t1", [1300.0, 1800.0])  # fits of at most and of more than 64 points
def test_scans_of_a_long_series_match_the_row_based_reference(t1):
    # 100 points, the last ones past the blow-up; from 1850 on, GDP leaves the line upwards
    rng = random.Random(7)
    years = [1000.0 + 10.0 * i for i in range(100)]
    k = 1e-4
    a = k * 1960.0
    points = [(t, (1.0 / (a - k * t) if a - k * t > 0.0 else rng.uniform(0.1, 10.0))
               * math.exp(0.01 * rng.gauss(0.0, 1.0)) * (2.0 if t >= 1850.0 else 1.0))
              for t in years]
    f = fit_hyperbolic(new_series(points, "s"), Window(1000.0, t1))
    s = new_series(points, "s")
    takeoff = Window(1500.0, 1990.0)
    for kappa in (3.0, 0.5):
        assert outcome(detect_diversion, f, s, kappa) == outcome(reference_diversion, f, s, kappa)
        assert (outcome(takeoff_scan, f, s, takeoff, kappa)
                == outcome(reference_takeoff, f, s, takeoff, kappa))


def test_short_windows_of_a_long_series_read_the_kept_columns():
    # 20,000 points over years 1-1901: 53 in [1800, 1805] and 43 in [1, 5]
    rng = random.Random(11)
    points = [(t, hyper(t) * math.exp(rng.gauss(0.0, 0.02)))
              for t in (1.0 + 1900.0 * i / 19999 for i in range(20000))]
    s, kept = new_series(points, "long"), new_series(points, "long")
    fit_w, stagnation_w = Window(1800, 1805), Window(1, 5)
    fit, verdict = fit_hyperbolic(s, fit_w), stagnation_test(s, stagnation_w)
    assert repr(fit) == repr(fit_hyperbolic(kept, fit_w))
    assert repr(verdict) == repr(stagnation_test(kept, stagnation_w))
    # both read slices of the kept columns
    for w in (fit_w, stagnation_w):
        lo, hi = index_range(s, w.t0, w.t1)
        assert hi - lo <= SMALL_FIT_MAX
        assert repr(fit_range(s, lo, hi)) == repr(
            fit_line(kept.years[lo:hi], kept.reciprocals[lo:hi]))
    lo, hi = index_range(s, stagnation_w.t0, stagnation_w.t1)
    line = fit_range(kept, lo, hi)
    counts = _scan_small(kept.years[lo:hi], kept.reciprocals[lo:hi], kept.values[lo:hi],
                         line.intercept, line.slope)
    assert verdict.n_sign_changes == counts[2]
