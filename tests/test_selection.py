"""Window and year selection bisects the sorted years; it must select
exactly what a linear scan of the points selects."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypergrowth import regimes
from hypergrowth.errors import (
    FitTooFewPointsError,
    NoPointsAfterWindowError,
    SegmentTooSparseError,
    WindowTooFewPointsError,
)
from hypergrowth.fitting import HyperbolicFit, fit_hyperbolic
from hypergrowth.series import Window, index_range, new_series, window

# hundredths of a year: fractional, yet far enough apart for a well-posed fit
YEARS = st.integers(-300_000, 300_000).map(lambda i: i / 100.0)


@st.composite
def increasing_series(draw):
    """Fractional, negative and duplicate-free years; GDP strictly increasing,
    so every reciprocal line of three or more points has a negative slope."""
    years = sorted(draw(st.lists(YEARS, min_size=2, max_size=30, unique=True)))
    steps = draw(st.lists(st.floats(0.01, 100.0), min_size=len(years), max_size=len(years)))
    values, total = [], 0.0
    for step in steps:
        total += step
        values.append(total)
    return new_series(zip(years, values), "x")


def bounds(s):
    """Observed years, midpoints between them, beyond either end, and +-inf."""
    years = s.years
    return st.one_of(
        st.sampled_from(years),
        st.sampled_from([(a + b) / 2.0 for a, b in zip(years, years[1:])]),
        st.sampled_from([years[0] - 1.0, years[-1] + 1.0]),
        YEARS,
        st.sampled_from([-math.inf, math.inf]),
    )


def draw_window(data, s):
    t0, t1 = sorted(data.draw(st.lists(bounds(s), min_size=2, max_size=2)))
    assume(t0 < t1)
    return Window(t0, t1)


def linear(s, keep):
    return [p for p in s.points if keep(p[0])]


@settings(max_examples=150, deadline=None)
@given(s=increasing_series(), data=st.data())
def test_window_and_year_selection_match_linear_scan(s, data):
    w = draw_window(data, s)
    inside = linear(s, lambda y: w.t0 <= y <= w.t1)

    assert list(s.points[slice(*index_range(s, w.t0, w.t1))]) == inside
    if len(inside) >= 2:
        assert list(window(s, w).points) == inside
    else:
        with pytest.raises(WindowTooFewPointsError, match=f"{len(inside)} point"):
            window(s, w)

    if len(inside) < 3:
        with pytest.raises(FitTooFewPointsError, match=f"{len(inside)} point"):
            fit_hyperbolic(s, w)
    else:
        assert fit_hyperbolic(s, w).n_points == len(inside)

    # detect_diversion scores the points after the fit window: a line just above
    # 0 puts every one of them far above kappa, so the diversion starts at the
    # first year after the window and lasts to the last
    fit = HyperbolicFit(a=1e-12, k=1e-20, fit_window=w, n_points=len(inside),
                        rmse_reciprocal=1e-15, r2_reciprocal=1.0, se_a=None, se_k=None)
    after = [y for y, _ in linear(s, lambda y: y > w.t1)]
    if after:
        rep = regimes.detect_diversion(fit, s)
        assert (rep.direction, rep.diversion_year, rep.evaluable_until) == (
            "slower", after[0], after[-1])
    else:
        with pytest.raises(NoPointsAfterWindowError):
            regimes.detect_diversion(fit, s)

    year = data.draw(st.one_of(bounds(s), st.just(math.nan)))
    assert s.value_at(year) == next((v for y, v in s.points if y == year), None)


@settings(max_examples=150, deadline=None)
@given(s=increasing_series(), data=st.data())
def test_segment_counts_match_linear_scan(s, data):
    w = draw_window(data, s)
    cuts = data.draw(st.lists(bounds(s), max_size=3))
    # the window is cut once at each distinct boundary inside it
    edges = [w.t0, *sorted({b for b in cuts if w.t0 < b < w.t1}), w.t1]
    counts = [
        len(linear(s, lambda y: lo <= y < hi or (last and y == hi)))
        for lo, hi, last in zip(edges, edges[1:], [False] * (len(edges) - 2) + [True])
    ]
    if min(counts) >= 2:
        report = regimes.segment_consistency(s, tuple(cuts), w)
        assert [seg.n for seg in report.segments] == counts
    else:
        first = next(n for n in counts if n < 2)
        with pytest.raises(SegmentTooSparseError, match=f"has {first} point"):
            regimes.segment_consistency(s, tuple(cuts), w)
