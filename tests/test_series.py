import math
import pickle
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypergrowth.errors import (
    DuplicateYearError,
    HypergrowthError,
    NonFiniteValueError,
    NonPositiveValueError,
    TooFewPointsError,
    WindowError,
    WindowOrderError,
    WindowTooFewPointsError,
)
from hypergrowth.series import (
    GrowthSeries,
    Window,
    from_columns,
    new_series,
    reciprocal,
    window,
)


def test_minimal_valid_series():
    s = new_series([(1, 10), (1000, 12)], "x")
    assert len(s) == 2
    assert s.years == (1.0, 1000.0)
    assert s.values == (10.0, 12.0)


def test_input_sorted_by_year():
    s = new_series([(1000, 12), (1, 10)], "x")
    assert s.years == (1.0, 1000.0)


def test_duplicate_year_rejected():
    with pytest.raises(DuplicateYearError):
        new_series([(1, 10), (1, 11)], "x")


def test_nonpositive_value_rejected():
    with pytest.raises(NonPositiveValueError):
        new_series([(1, 10), (1500, 0.0)], "x")
    with pytest.raises(NonPositiveValueError):
        new_series([(1, 10), (1500, -3.0)], "x")
    for tiny in (5e-324, 2.0**-1024):  # 1/tiny overflows
        with pytest.raises(NonPositiveValueError, match="at year 1500 has an infinite recipr"):
            new_series([(1, 10), (1500, tiny)], "x")
    # the next float up has a finite reciprocal
    s = new_series([(1, 10), (1500, math.nextafter(2.0**-1024, 1.0))], "x")
    assert s.reciprocals[1] < math.inf


@pytest.mark.parametrize(
    "bad", [(1, math.inf), (1, math.nan), (math.nan, 1.0), (-math.inf, 1.0)]
)
def test_nonfinite_point_rejected(bad):
    with pytest.raises(NonFiniteValueError):
        new_series([bad, (1500, 2.0), (1600, 3.0)], "x")


def test_single_point_rejected():
    with pytest.raises(TooFewPointsError):
        new_series([(1, 10)], "x")


def test_window_requires_ordering():
    for t0, t1 in [(1900, 1500), (1500, 1500), (math.nan, 1900)]:
        with pytest.raises(ValueError) as info:
            Window(t0, t1)
        assert isinstance(info.value, WindowOrderError)
        assert isinstance(info.value, WindowError)
        assert isinstance(info.value, HypergrowthError)


def test_reciprocal_pointwise():
    s = new_series([(1700, 2.0), (1800, 4.0)], "x")
    r = reciprocal(s)
    assert isinstance(r, GrowthSeries)
    assert r.points == ((1700.0, 0.5), (1800.0, 0.25))
    assert r.label == "x"


def test_reciprocal_of_exact_hyperbola_is_collinear():
    a, k = 0.1147, 5.961e-5
    years = [1500, 1600, 1700, 1820, 1870, 1900]
    s = new_series([(t, 1.0 / (a - k * t)) for t in years], "hyp")
    r = reciprocal(s)
    for t, v in r.points:
        assert v == pytest.approx(a - k * t, rel=1e-14)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-5000, max_value=5000),
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
        ),
        min_size=2,
        max_size=30,
        unique_by=lambda p: p[0],
    )
)
def test_reciprocal_is_involution(points):
    s = new_series(points, "x")
    twice = reciprocal(
        new_series(reciprocal(s).points, "x")
    )
    for (y0, v0), (y1, v1) in zip(s.points, twice.points):
        assert y0 == y1
        assert math.isclose(v0, v1, rel_tol=1e-12)


def test_window_filters_inclusively():
    years = [1, 1000, 1500, 1600, 1700, 1820, 1870, 1900]
    s = new_series([(y, float(i + 1)) for i, y in enumerate(years)], "x")
    sub = window(s, Window(1500, 1900))
    assert len(sub) == 6
    assert sub.years == (1500.0, 1600.0, 1700.0, 1820.0, 1870.0, 1900.0)
    assert "[1500, 1900]" in sub.label


def test_window_too_few_points():
    years = [1, 1000, 1500, 1600, 1700, 1820, 1870, 1900]
    s = new_series([(y, float(i + 1)) for i, y in enumerate(years)], "x")
    with pytest.raises(WindowTooFewPointsError):
        window(s, Window(2100, 2200))
    with pytest.raises(WindowTooFewPointsError):
        window(s, Window(1500, 1500.5))


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3000),
            st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
        ),
        min_size=2,
        max_size=40,
        unique_by=lambda p: p[0],
    ),
    st.integers(min_value=0, max_value=2999),
    st.integers(min_value=1, max_value=3000),
)
def test_window_partitions_series(points, lo, span):
    s = new_series(points, "x")
    w = Window(lo, lo + span)
    inside = [p for p in s.points if w.t0 <= p[0] <= w.t1]
    outside = [p for p in s.points if not (w.t0 <= p[0] <= w.t1)]
    assert len(inside) + len(outside) == len(s)
    if len(inside) >= 2:
        sub = window(s, w)
        assert list(sub.points) == inside  # order and values preserved exactly
    else:
        with pytest.raises(WindowTooFewPointsError):
            window(s, w)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-2000, max_value=4000),
            st.floats(
                min_value=-10.0, max_value=1e5,
                allow_nan=False, allow_infinity=False,
            ),
        ),
        min_size=0,
        max_size=20,
    )
)
def test_new_series_rejects_exactly_invariant_violations(points):
    years = [y for y, _ in points]
    has_dup = len(set(years)) != len(years)
    has_nonpos = any(v <= 0 or 1.0 / v == math.inf for _, v in points)
    too_few = len(points) < 2
    if too_few and not has_dup:
        with pytest.raises(TooFewPointsError):
            new_series(points, "x")
    elif has_dup or has_nonpos:
        with pytest.raises((DuplicateYearError, NonPositiveValueError)):
            new_series(points, "x")
    else:
        s = new_series(points, "x")
        assert len(s) == len(points)


def linear_reference(points, label):
    """Sorted float pairs of a valid series, checked one point at a time."""
    pts = sorted((float(y), float(v)) for y, v in points)
    if len(pts) < 2:
        raise TooFewPointsError(f"series {label!r}: need at least 2 points, got {len(pts)}")
    prev = None
    for y, v in pts:
        if not (-math.inf < y < math.inf and v < math.inf):
            raise NonFiniteValueError(f"series {label!r}: point ({y!r}, {v!r}) is not finite")
        if y == prev:
            raise DuplicateYearError(f"series {label!r}: duplicate year {y:g}")
        if not v > 0:
            raise NonPositiveValueError(
                f"series {label!r}: value {v!r} at year {y:g} is not positive")
        if math.isinf(1.0 / v):
            raise NonPositiveValueError(
                f"series {label!r}: value {v!r} at year {y:g} has an infinite reciprocal")
        prev = y
    return tuple(pts)


GOOD_YEAR = st.one_of(st.integers(-3000, 3000), st.floats(-3000.0, 3000.0))
GOOD_VALUE = st.floats(1e-300, 1e300)
BAD = [math.nan, math.inf, -math.inf]
WILD_YEAR = st.one_of(GOOD_YEAR, st.sampled_from([*BAD, 1500.0, 1500]))
WILD_VALUE = st.one_of(GOOD_VALUE,
                       st.sampled_from([*BAD, 0.0, -0.0, -2.5, 3.0, 5e-324, 2.0**-1024]))


@st.composite
def point_lists(draw):
    """Valid, sorted, unsorted, duplicate, non-finite, non-positive and short inputs."""
    if draw(st.booleans()):
        pts = draw(st.lists(st.tuples(GOOD_YEAR, GOOD_VALUE), max_size=12,
                            unique_by=lambda p: float(p[0])))
    else:
        pts = draw(st.lists(st.tuples(WILD_YEAR, WILD_VALUE), max_size=8))
    return sorted(pts, key=lambda p: float(p[0])) if draw(st.booleans()) else pts


@given(points=point_lists(), as_columns=st.booleans())
def test_column_constructor_matches_linear_reference(points, as_columns):
    def build():
        if as_columns:
            return from_columns([y for y, _ in points], [v for _, v in points], "c")
        return new_series(points, "c")

    try:
        want = linear_reference(points, "c")
    except HypergrowthError as exc:
        with pytest.raises(type(exc)) as caught:
            build()
        assert type(caught.value) is type(exc) and str(caught.value) == str(exc)
        return
    s = build()
    assert s.years == tuple(y for y, _ in want)
    assert s.values == tuple(v for _, v in want)
    assert all(type(x) is float for x in s.years + s.values)
    assert s.points == want
    assert s.reciprocals == tuple(1.0 / v for _, v in want)
    assert repr(s) == f"GrowthSeries(years={s.years!r}, values={s.values!r}, label='c')"
    assert hash(s) == hash((s.years, s.values, "c"))
    copy = pickle.loads(pickle.dumps(s))
    assert copy == s and repr(copy) == repr(s) and copy.years == s.years


def test_columns_of_different_lengths_rejected():
    with pytest.raises(ValueError, match="2 years but 1 values"):
        from_columns([1, 2], [3], "x")


def test_points_construct_a_series_over_columns():
    # only the validating constructors build a series
    with pytest.raises(TypeError):
        GrowthSeries(((1.0, 2.0), (3.0, 4.0)), "x")
    s = new_series([(3, 4), (1, 2)], "x")
    assert s.years == (1.0, 3.0) and s.values == (2.0, 4.0)
    assert reciprocal(s).points == ((1.0, 0.5), (3.0, 0.25))


def test_reciprocal_refuses_a_value_near_the_float_maximum():
    # 1/max is subnormal, and its own reciprocal overflows
    s = from_columns([1, 2, 3], [sys.float_info.max, 1e300, 1e200], "x")
    assert s.reciprocals[0] == 5.562684646268003e-309
    with pytest.raises(NonPositiveValueError,
                       match=r"'x': value 5\.562684646268003e-309 at year 1 has an infinite"):
        reciprocal(s)


# values up to the float maximum, whose reciprocals are subnormal
HUGE_VALUE = st.one_of(GOOD_VALUE, st.floats(1e307, sys.float_info.max))


@given(st.lists(st.tuples(GOOD_YEAR, HUGE_VALUE), min_size=2, max_size=12,
                unique_by=lambda p: float(p[0])))
def test_reciprocal_is_the_validated_series_of_the_reciprocals(points):
    s = new_series(points, "r")
    try:
        want = from_columns(s.years, s.reciprocals, s.label)
    except NonPositiveValueError as exc:
        with pytest.raises(NonPositiveValueError) as caught:
            reciprocal(s)
        assert str(caught.value) == str(exc)
        return
    assert reciprocal(s) == want


def long_series(n=200):
    return from_columns([1500.0 + i for i in range(n)], [1.0 + i / 8 for i in range(n)], "long")


def test_kept_arrays_are_read_only():
    s = long_series()
    for column in s.arrays:
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1.0
    assert s.arrays[1].tolist() == list(s.reciprocals)


def test_pickled_long_series_keeps_no_arrays():
    s = long_series()
    assert len(s.arrays) == 3 and "arrays" in vars(s)
    copy = pickle.loads(pickle.dumps(s))
    assert copy == s and hash(copy) == hash(s) and repr(copy) == repr(s)
    assert "arrays" not in vars(copy)
