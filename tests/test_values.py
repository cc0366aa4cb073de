"""Value semantics of the result records and the validating value classes.

The records are named tuples; Window, RegionPreset, GrowthSeries and
ModelSpec are hand-written immutable classes. Both kinds refuse
assignment, and the classes compare, hash and print by their declared
fields only.
"""

import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypergrowth.errors import ModelSpecError, PresetDefinitionError, WindowOrderError
from hypergrowth.fitting import fit_hyperbolic, fit_line, goodness
from hypergrowth.ingest import RegionPreset, parse_wide_csv
from hypergrowth.regimes import (
    detect_diversion,
    segment_consistency,
    stagnation_test,
    takeoff_scan,
)
from hypergrowth.report import analyze_series
from hypergrowth.series import Window, new_series
from hypergrowth.synthetic import ModelSpec

FIT = Window(1500.0, 1900.0)


def every_value(s):
    """One instance of each record and value class, built the way the library builds them."""
    fit = fit_hyperbolic(s, FIT)
    return [
        fit_line(s.years[:3], s.reciprocals[:3]),
        fit,
        goodness(fit, s),
        detect_diversion(fit, s),
        takeoff_scan(fit, s),
        stagnation_test(s),
        segment_consistency(s),
        segment_consistency(s).segments[0],
        parse_wide_csv("Region,1,2\nX,1,2\n"),
        analyze_series(s),
        FIT,
        RegionPreset("R", ("X",), "direct-row"),
        s,
        ModelSpec("hyperbolic", {"a": 1.0, "k": 0.001}, (0, 100)),
    ]


def test_every_value_refuses_assignment(regional_series):
    values = every_value(regional_series["W12"])
    assert len({type(v) for v in values}) == len(values)
    for value in values:
        first = type(value)._fields[0]
        with pytest.raises(AttributeError):
            setattr(value, first, getattr(value, first))
        with pytest.raises(AttributeError):
            value.extra = 1
        with pytest.raises(AttributeError):
            delattr(value, first)


def test_window_is_not_a_tuple():
    assert Window(1500, 1900) != (1500, 1900)
    assert (1500, 1900) != Window(1500, 1900)
    assert repr(Window(1500.0, 1900.0)) == "Window(t0=1500.0, t1=1900.0)"


def test_classes_pickle_by_their_fields():
    for value in (FIT, RegionPreset("R", ("X", "Y"), "sum-members"),
                  new_series([(1, 2.0), (3, 4.0)], "x"),
                  ModelSpec("hyperbolic", {"a": 1.0, "k": 0.001}, (0, 100), seed=3)):
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value) and repr(copy) == repr(value)


def test_preset_from_a_list_is_the_preset_from_a_tuple():
    from_list = RegionPreset("R", ["X", "Y"], "sum-members")
    from_tuple = RegionPreset("R", ("X", "Y"), "sum-members")
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert repr(from_list) == repr(from_tuple)
    assert pickle.dumps(from_list) == pickle.dumps(from_tuple)
    assert pickle.loads(pickle.dumps(from_list)) == from_tuple


def test_no_later_edit_of_the_callers_objects_reaches_a_value():
    labels, params, years = ["X", "Y"], {"a": 1.0, "k": 0.001}, [0.0, 100.0]
    preset = RegionPreset("R", labels, "sum-members")
    spec = ModelSpec("hyperbolic", params, years)
    labels.append("X")
    params["a"] = -5.0
    years[:] = [0.0]
    assert preset.member_labels == ("X", "Y")
    assert spec.params == {"a": 1.0, "k": 0.001}
    assert spec.sample_years == (0.0, 100.0)


def test_model_spec_is_unhashable():
    # its params is a dict, so a spec has no hash, as a dict has none
    with pytest.raises(TypeError):
        hash(ModelSpec("hyperbolic", {"a": 1.0, "k": 0.001}, (0, 100)))


BOUNDS = st.lists(st.sampled_from([-500.0, 0.0, 1.0, 1500.0, 1900.0]),
                  min_size=2, max_size=2, unique=True).map(sorted).map(tuple)


@given(a=BOUNDS, b=BOUNDS)
def test_window_equal_exactly_when_fields_equal(a, b):
    wa, wb = Window(*a), Window(*b)
    assert (wa == wb) is (a == b)
    assert (wa != wb) is (a != b)
    if a == b:
        assert hash(wa) == hash(wb)


@given(
    a=st.tuples(st.sampled_from("AB"), st.sampled_from([("X",), ("X", "Y"), ("Y",)])),
    b=st.tuples(st.sampled_from("AB"), st.sampled_from([("X",), ("X", "Y"), ("Y",)])),
)
def test_preset_equal_exactly_when_fields_equal(a, b):
    def preset(name, labels):
        return RegionPreset(name, labels, "direct-row" if len(labels) == 1 else "sum-members")

    pa, pb = preset(*a), preset(*b)
    assert (pa == pb) is (a == b)
    if a == b:
        assert hash(pa) == hash(pb)


POINTS = st.lists(st.tuples(st.sampled_from([1.0, 2.0, 3.0]), st.sampled_from([1.0, 4.0])),
                  min_size=2, max_size=3, unique_by=lambda p: p[0])


@given(a=st.tuples(POINTS, st.sampled_from("xy")), b=st.tuples(POINTS, st.sampled_from("xy")),
       warm=st.sampled_from(["none", "points", "reciprocals", "both"]))
def test_series_equal_exactly_when_fields_equal(a, b, warm):
    sa, sb = new_series(*a), new_series(*b)
    # the kept tuples, filled on one side only, take no part in eq, hash or repr
    if warm in ("points", "both"):
        sa.points
    if warm in ("reciprocals", "both"):
        sa.reciprocals
    fields_equal = (sa.years, sa.values, sa.label) == (sb.years, sb.values, sb.label)
    assert (sa == sb) is fields_equal
    assert (sa != sb) is not fields_equal
    if fields_equal:
        assert hash(sa) == hash(sb)
        assert repr(sa) == repr(sb)
    assert repr(sa) == (f"GrowthSeries(years={sa.years!r}, values={sa.values!r}, "
                        f"label={sa.label!r})")


@pytest.mark.parametrize("build, error, message", [
    (lambda: Window(1900, 1500), WindowOrderError, "window requires t0 < t1, got [1900, 1500]"),
    (lambda: Window(1500, 1500), WindowOrderError, "window requires t0 < t1, got [1500, 1500]"),
    (lambda: Window(math.nan, 1900), WindowOrderError, "window requires t0 < t1, got [nan, 1900]"),
    (lambda: RegionPreset("R", ("X",), "sum-all"), PresetDefinitionError,
     "unknown preset mode 'sum-all'"),
    (lambda: RegionPreset("R", ("X", "Y"), "direct-row"), PresetDefinitionError,
     "direct-row preset needs exactly one label"),
    (lambda: RegionPreset("R", (), "sum-members"), PresetDefinitionError,
     "sum-members preset needs at least one label"),
    (lambda: ModelSpec("nosuch", {}, (0, 1)), ModelSpecError, "unknown model kind 'nosuch'"),
    (lambda: ModelSpec("hyperbolic", {"a": 1.0}, (0, 1)), ModelSpecError,
     "hyperbolic model: missing parameter 'k'"),
    (lambda: ModelSpec("hyperbolic", {"a": 1.0, "k": 1, "cap": 5}, (0, 1)), ModelSpecError,
     "hyperbolic model: takes no parameter 'cap'"),
    (lambda: ModelSpec("hyperbolic", {"a": -1.0, "k": 1}, (0, 1)), ModelSpecError,
     "hyperbolic model: parameter a=-1.0 must be positive"),
    (lambda: ModelSpec("stagnation", {"mean": 2.0, "amplitude": 2.5, "period": 100.0}, (0, 1)),
     ModelSpecError, "stagnation model: amplitude must satisfy 0 <= amplitude < mean"),
    (lambda: ModelSpec("hyperbolic", {"a": 1.0, "k": 1}, (0, 1), sigma=-0.1), ModelSpecError,
     "sigma=-0.1 must be finite and >= 0"),
    (lambda: ModelSpec("hyperbolic", {"a": 1.0, "k": 1}, (0, 1), seed=-1), ModelSpecError,
     "seed=-1 must be an integer >= 0"),
    (lambda: ModelSpec("hyperbolic", {"a": 1.0, "k": 1}, (0, 1), seed=1.0), ModelSpecError,
     "seed=1.0 must be an integer >= 0"),
    (lambda: ModelSpec("hyperbolic", {"a": 1.0, "k": 1}, (0,)), ModelSpecError,
     "need at least 2 sample years"),
])
def test_validation_errors_unchanged(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message
    if error is not ModelSpecError:
        assert isinstance(caught.value, ValueError)
