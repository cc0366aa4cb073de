"""Regime hypothesis tests on fitted hyperbolic trajectories.

Four questions, each answered from reciprocal-space residuals:

* diversion: after the fit window, do the data leave the fitted line
  for good? Residuals persistently above the line (in units of the
  in-window rmse) mean growth slower than the hyperbola; persistently
  below mean faster.
* takeoff: inside a candidate acceleration window, is there a
  persistent downward break of the reciprocal values below the line?
* stagnation: on an early window, do the data look like a flat mean
  with fluctuations rather than a decreasing reciprocal line?
* segment consistency: do per-segment reciprocal slopes across claimed
  regime boundaries differ by more than their joint standard error?

Persistence means "this year and every later evaluable year exceed the
threshold", not a run count: sparse pre-industrial spacing makes run
counts meaningless, and a permanent break is what the tests are after.
Years past the fitted line's zero crossing are not evaluable.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

from . import (
    DEFAULT_KAPPA,
    DEFAULT_SEGMENT_BOUNDARIES,
    DEFAULT_SEGMENT_WINDOW,
    DEFAULT_STAGNATION_WINDOW,
    DEFAULT_TAKEOFF_WINDOW,
)
from .errors import (
    NoPointsAfterWindowError,
    NoPointsInWindowError,
    SegmentTooSparseError,
)
from .fitting import HyperbolicFit, fit_range, range_scans, scan_back, singularity
from .series import GrowthSeries, Window, index_range, new_record

Z_CRITICAL = 1.96
MONOTONE_THRESHOLD = 0.75


class DiversionReport(NamedTuple):
    diversion_year: float | None
    direction: str  # "slower" | "faster" | "none"
    bypass_years: float | None
    threshold_kappa: float
    evaluable_until: float


class TakeoffReport(NamedTuple):
    window: Window
    found: bool
    onset_year: float | None
    max_negative_normalized_residual: float


class StagnationVerdict(NamedTuple):
    window: Window
    runs_test_z: float
    n_sign_changes: int
    monotone_fraction: float
    rmse_constant_model: float
    rmse_hyperbolic_model: float
    verdict: str  # "stagnation-consistent" | "hyperbolic-consistent"


class SegmentSlope(NamedTuple):
    t0: float
    t1: float
    k: float
    se: float | None
    n: int


class SegmentReport(NamedTuple):
    boundaries: tuple[float, ...]
    segments: tuple[SegmentSlope, ...]
    z_scores: tuple[tuple[int, int, float], ...]
    verdict: str  # "single-line-consistent" | "segmented"


def detect_diversion(
    f: HyperbolicFit, s: GrowthSeries, kappa: float = DEFAULT_KAPPA
) -> DiversionReport:
    """Scan past the fit window for a persistent departure from the line.

    The diversion year is the earliest observed year after the window
    whose normalized residual exceeds kappa with every later evaluable
    year exceeding too. Positive exceedance (reciprocals above the
    line, GDP below the hyperbola) is direction "slower"; the symmetric
    negative rule gives "faster". bypass_years is the gap between the
    fitted blow-up year a/k and the diversion year. The scan reads back
    from the last year, so its cost follows the reported tail.
    """
    years = s.years
    lo = bisect_right(years, f.fit_window.t1)  # past the window, as t0 < t1
    if lo == len(years):
        raise NoPointsAfterWindowError(
            f"series {s.label!r}: no observed years after {f.fit_window.t1:g}"
        )
    last, above, below, _ = scan_back(f, s, lo, len(years), kappa, whole=False)
    until = f.fit_window.t1 if last is None else last
    # diversion_year, direction, bypass_years, threshold_kappa, evaluable_until
    if above is not None:
        return new_record(DiversionReport, (above, "slower", singularity(f) - above, kappa, until))
    if below is not None:
        return new_record(DiversionReport, (below, "faster", singularity(f) - below, kappa, until))
    return new_record(DiversionReport, (None, "none", None, kappa, until))


def takeoff_scan(
    f: HyperbolicFit,
    s: GrowthSeries,
    w: Window = DEFAULT_TAKEOFF_WINDOW,
    kappa: float = DEFAULT_KAPPA,
) -> TakeoffReport:
    """Look for a persistent downward break of the reciprocals in ``w``.

    A takeoff (abrupt acceleration of growth) would push reciprocal
    values below the fitted line; found is True only when some observed
    year in the window sits below -kappa and every later in-window year
    does too. The extreme negative normalized residual is reported
    either way.
    """
    lo, hi = index_range(s, w.t0, w.t1)
    if lo == hi:
        raise NoPointsInWindowError(
            f"series {s.label!r}: no observed years in [{w.t0:g}, {w.t1:g}]"
        )
    last, _, onset, least = scan_back(f, s, lo, hi, kappa, whole=True)
    if last is None:
        raise NoPointsInWindowError(
            f"series {s.label!r}: fitted line not positive anywhere in "
            f"[{w.t0:g}, {w.t1:g}]"
        )
    # window, found, onset_year, max_negative_normalized_residual
    return new_record(TakeoffReport, (w, onset is not None, onset, least))


def _runs_z(n_pos: int, n_neg: int, changes: int) -> float:
    """Wald-Wolfowitz z of ``changes + 1`` runs; 0 for a degenerate sign sequence."""
    if n_pos == 0 or n_neg == 0:
        return 0.0
    n = n_pos + n_neg
    mu = 2.0 * n_pos * n_neg / n + 1.0
    var = 2.0 * n_pos * n_neg * (2.0 * n_pos * n_neg - n) / (n**2 * (n - 1.0))
    if var <= 0.0:
        return 0.0
    return (changes + 1 - mu) / math.sqrt(var)


def stagnation_test(
    s: GrowthSeries, w: Window = DEFAULT_STAGNATION_WINDOW
) -> StagnationVerdict:
    """Test a window for stagnation versus hyperbolic growth.

    Compares a constant-mean model of the reciprocals against a
    decreasing line, and measures how consistently GDP increases
    between consecutive observations. When the least-squares line is
    not decreasing, the best admissible "hyperbolic" model degenerates
    to the constant mean, so its rmse equals the constant model's and
    the verdict falls to stagnation-consistent.

    Verdict rule: hyperbolic-consistent needs the decreasing line to
    beat the constant model and a monotone fraction of at least 0.75
    (sparse millennium-scale series may legitimately contain one early
    decline); stagnation-consistent is the complement.

    The line comes from ``fit_range``, and the constant model is its
    ``mean`` and ``rmse_constant``, so the line's rmse never exceeds it.
    The runs test takes the residuals about the model picked once: the
    line when it decreases, else the mean. ``fitting.range_scans`` counts
    the residual signs and the GDP increases, with the fits' own choice of
    kernel. A model with rmse 0 (the collinear snap) has no residual signs.
    """
    lo, hi = index_range(s, w.t0, w.t1, need=4)
    line = fit_range(s, lo, hi)
    if line.slope < 0.0:
        a, b, rmse_hyperbolic = line.intercept, line.slope, line.rmse
    else:  # r - (mean + 0.0 * y) is exactly r - mean
        a, b, rmse_hyperbolic = line.mean, 0.0, line.rmse_constant
    n_pos, n_neg, changes, increases = range_scans(s, lo, hi, a, b)
    if rmse_hyperbolic == 0.0:  # an exact model: residuals are float noise
        n_pos = n_neg = changes = 0
    monotone_fraction = increases / (hi - lo - 1)

    if rmse_hyperbolic < line.rmse_constant and monotone_fraction >= MONOTONE_THRESHOLD:
        verdict = "hyperbolic-consistent"
    else:
        verdict = "stagnation-consistent"

    return StagnationVerdict(
        window=w,
        runs_test_z=_runs_z(n_pos, n_neg, changes),
        n_sign_changes=changes,
        monotone_fraction=monotone_fraction,
        rmse_constant_model=line.rmse_constant,
        rmse_hyperbolic_model=rmse_hyperbolic,
        verdict=verdict,
    )


def segment_consistency(
    s: GrowthSeries,
    boundaries: tuple[float, ...] = DEFAULT_SEGMENT_BOUNDARIES,
    w: Window = DEFAULT_SEGMENT_WINDOW,
) -> SegmentReport:
    """Compare reciprocal-line slopes across claimed regime boundaries.

    The window is split once at each distinct boundary inside it into
    half-open segments (the last one closed), each with its own line fit.
    Adjacent segments with at least 3 points on both sides are compared with
    z = |k_i - k_j| / sqrt(se_i^2 + se_j^2). When both fit exactly (se 0,
    by ``fitting``'s collinear snap), the same snap decides on the fit over
    both segments: z is 0 when it is exact too, else inf. So the verdict
    does not depend on the unit of the values. It is single-line-consistent
    when every defined z stays below 1.96.
    """
    cuts = sorted({b for b in boundaries if w.t0 < b < w.t1})
    edges = [w.t0, *cuts, w.t1]
    # a segment ends where the next one starts, the last one at the window's end
    ranges = [index_range(s, t0, w.t1) for t0 in edges[:-1]]
    starts = [lo for lo, _ in ranges] + [ranges[-1][1]]

    segments: list[SegmentSlope] = []
    for i, (t0, t1) in enumerate(zip(edges, edges[1:])):
        lo, hi = starts[i], starts[i + 1]
        n = hi - lo
        if n < 2:
            raise SegmentTooSparseError(
                f"series {s.label!r}: segment [{t0:g}, {t1:g}"
                f"{']' if i == len(cuts) else ')'} has {n} point(s), need 2"
            )
        line = fit_range(s, lo, hi)
        segments.append(SegmentSlope(t0, t1, -line.slope, line.se_slope, n))

    z_scores: list[tuple[int, int, float]] = []
    for i in range(len(segments) - 1):
        a, b = segments[i], segments[i + 1]
        if a.n < 3 or b.n < 3:
            continue
        denom = math.sqrt(a.se**2 + b.se**2)  # segments of 3+ points have an se
        if denom == 0.0:
            # exact per-segment fits: one exact line over both is consistent,
            # anything else an unambiguous break
            z = 0.0 if fit_range(s, starts[i], starts[i + 2]).rmse == 0.0 else math.inf
        else:
            z = abs(a.k - b.k) / denom
        z_scores.append((i, i + 1, z))

    consistent = all(z < Z_CRITICAL for _, _, z in z_scores)
    return SegmentReport(
        boundaries=tuple(cuts),
        segments=tuple(segments),
        z_scores=tuple(z_scores),
        verdict="single-line-consistent" if consistent else "segmented",
    )
