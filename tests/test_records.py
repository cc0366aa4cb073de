"""The records built once per fit or window (``LineFit``, ``HyperbolicFit``,
``DiversionReport``, ``TakeoffReport``) are built with ``tuple.__new__``,
which checks no arity and no field names: every such record must hold
exactly its fields, each in its place, rebuild through its class and
survive pickling."""

import contextlib
import math
import pickle
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergrowth import fitting, regimes, series
from hypergrowth.errors import HypergrowthError
from hypergrowth.fitting import HyperbolicFit, LineFit, fit_line, fit_range, singularity
from hypergrowth.ingest import aggregate, parse_long_csv, parse_wide_csv, preset_catalog
from hypergrowth.regimes import DiversionReport, TakeoffReport
from hypergrowth.report import analyze_series
from hypergrowth.series import Window, index_range

BUILDERS = (fitting, regimes)


@contextlib.contextmanager
def recording():
    """The list of every record the package builds with ``new_record``
    while the block runs."""
    built = []

    def new_record(cls, fields):
        built.append(tuple.__new__(cls, fields))
        return built[-1]

    with contextlib.ExitStack() as stack:
        for module in BUILDERS:
            stack.enter_context(mock.patch.object(module, "new_record", new_record))
        yield built


def assert_whole(record):
    cls = type(record)
    assert len(record) == len(cls._fields)
    assert cls(*record) == record
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls
    assert back == record


def test_every_module_that_builds_records_is_recorded():
    users = {
        module for name, module in sys.modules.items()
        if name.startswith("hypergrowth.") and getattr(module, "new_record", None) is not None
    }
    assert users == {*BUILDERS, series}


def test_records_of_the_bundled_inputs_hold_their_fields(europe_csv_path):
    with recording() as built:
        dataset = parse_wide_csv(europe_csv_path.read_text(encoding="utf-8"))
        for preset in preset_catalog():
            analyze_series(aggregate(dataset, preset))
        long_csv = europe_csv_path.parent / "long_hyperbolic.csv"
        analyze_series(parse_long_csv(long_csv.read_text(encoding="utf-8"), "long"))
    assert {type(r) for r in built} == {LineFit, HyperbolicFit, DiversionReport, TakeoffReport}
    for record in built:
        assert_whole(record)


def test_line_fields_are_in_their_places():
    xs, ys = [1, 2, 3, 4, 6], [1, 2, 2, 5, 4]
    n = len(xs)
    xbar, ybar = Fraction(sum(xs), n), Fraction(sum(ys), n)
    sxx = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    intercept = ybar - slope * xbar
    ssr = sum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
    sst = sum((y - ybar) ** 2 for y in ys)
    s2 = ssr / (n - 2)
    expected = LineFit(
        slope=float(slope),
        intercept=float(intercept),
        rmse=math.sqrt(ssr / n),
        r2=float(1 - ssr / sst),
        se_slope=math.sqrt(s2 / sxx),
        se_intercept=math.sqrt(s2 * (Fraction(1, n) + xbar**2 / sxx)),
        mean=float(ybar),
        rmse_constant=math.sqrt(sst / n),
    )
    assert len(set(expected)) == len(expected)  # distinct, so a swap shows
    assert fit_line(list(map(float, xs)), list(map(float, ys))) == pytest.approx(expected)


@pytest.mark.parametrize("t0, t1, direction", [
    (1500, 1900, "slower"), (1900, 1920, "faster"), (1, 1500, "none"),
])
def test_window_report_fields_are_in_their_places(regional_series, t0, t1, direction):
    s, w = regional_series["W12"], Window(t0, t1)
    with recording() as built:
        fit = fitting.fit_hyperbolic(s, w)
        diversion = regimes.detect_diversion(fit, s, kappa=2.5)
        takeoff = regimes.takeoff_scan(fit, s, w, kappa=2.5)
    # the window's line goes into its fit as plain fields: no LineFit per window
    assert [type(r) for r in built] == [HyperbolicFit, DiversionReport, TakeoffReport]

    lo, hi = index_range(s, w.t0, w.t1)
    line = fit_range(s, lo, hi)
    assert fit == HyperbolicFit(
        a=line.intercept, k=-line.slope, fit_window=w, n_points=hi - lo,
        rmse_reciprocal=line.rmse, r2_reciprocal=line.r2,
        se_a=line.se_intercept, se_k=line.se_slope,
    )

    assert diversion.direction == direction
    assert diversion.threshold_kappa == 2.5
    if direction == "none":
        assert diversion.diversion_year is None
        assert diversion.bypass_years is None
    else:
        assert diversion.bypass_years == singularity(fit) - diversion.diversion_year
        assert w.t1 < diversion.diversion_year <= diversion.evaluable_until
    assert w.t1 <= diversion.evaluable_until <= s.years[-1]

    assert takeoff.window == w
    assert takeoff.found is (takeoff.onset_year is not None)
    assert type(takeoff.max_negative_normalized_residual) is float


@st.composite
def windows(draw, years):
    """A window between two of the years, or reaching a little past them."""
    i, j = sorted(draw(st.lists(st.integers(0, len(years) - 1), min_size=2, max_size=2,
                                unique=True)))
    return Window(years[i] - draw(st.sampled_from([0, 1])),
                  years[j] + draw(st.sampled_from([0, 1])))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), name=st.sampled_from(["W12", "W30", "EE"]))
def test_records_of_any_window_hold_their_fields(regional_series, data, name):
    s = regional_series[name]
    w = data.draw(windows(s.years))
    boundaries = tuple(data.draw(st.lists(st.sampled_from(s.years), max_size=3)))
    takeoff = data.draw(windows(s.years))
    with recording() as built:
        with contextlib.suppress(HypergrowthError):
            fit = fitting.fit_hyperbolic(s, w)
            with contextlib.suppress(HypergrowthError):
                regimes.detect_diversion(fit, s)
            regimes.takeoff_scan(fit, s, takeoff)
        with contextlib.suppress(HypergrowthError):
            regimes.segment_consistency(s, boundaries, w)
    for record in built:
        assert_whole(record)
