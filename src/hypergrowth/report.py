"""End-to-end analysis of one regional series, and report serialization.

The machine report is a single JSON document with a fixed field order
and no timestamps, so two runs on the same input are byte-identical and
reports can be diffed as goldens. The regime sections are the regime
records, keyed by field name in field order. The human summary is a
fixed-width table for standard output.

This module alone decides what a number too big for floats does. A part
of the report that can be skipped (each regime section and each
probe-year deviation) is skipped with a reason when its computation
raises a HypergrowthError or an ArithmeticError, or holds a nan or an
infinity. The fit, and the plot tables drawn from it, cannot be skipped:
float trouble there raises NonFiniteValueError naming the series. So a
finished report always renders, and the library's own functions keep
raising or returning what they do.
"""

from __future__ import annotations

import json
import math
from itertools import repeat
from typing import NamedTuple

from . import (
    DEFAULT_FIT_WINDOW,
    DEFAULT_KAPPA,
    DEFAULT_PROBE_YEARS,
    DEFAULT_SEGMENT_BOUNDARIES,
    DEFAULT_STAGNATION_WINDOW,
    DEFAULT_TAKEOFF_WINDOW,
    __version__,
)
from .errors import HypergrowthError, NonFiniteValueError
from .fitting import HyperbolicFit, fit_hyperbolic, percent_deviation, singularity
from .regimes import detect_diversion, segment_consistency, stagnation_test, takeoff_scan
from .series import GrowthSeries, Window

_STRICT_JSON = json.JSONEncoder(allow_nan=False)
_TOO_EXTREME = "values too extreme for float arithmetic"


class AnalysisReport(NamedTuple):
    """All analysis results for one series, as a plain nested dict."""

    data: dict

    def to_json(self) -> str:
        """Indented JSON; raises ValueError for a nan or infinite number."""
        return json.dumps(self.data, indent=2, allow_nan=False) + "\n"

    def to_kv(self) -> str:
        """Flat key=value rendering of the same tree; rejects nan like to_json."""
        lines = [f"{key}={_STRICT_JSON.encode(value)}" for key, value in _leaves("", self.data)]
        return "\n".join(lines) + "\n"


def _leaves(prefix: str, node):
    """``(key, value)`` of each leaf of a plain tree in order, keyed as ``to_kv``
    writes it: ``a.b`` for a dict entry, ``a[0]`` for a list item."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(f"{prefix}.{key}" if prefix else str(key), value)
    elif isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            yield from _leaves(f"{prefix}[{i}]", value)
    else:
        yield prefix, node


def file_digest(raw: bytes) -> str:
    """SHA-256 hex digest, from the interpreter's builtin sha256 module when it has
    one: hashlib would load OpenSSL, about 5 ms of a fresh process. Loaded on first
    use, so callers without a digest skip it."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.11 and older
        except ImportError:
            from hashlib import sha256
    return sha256(raw).hexdigest()


def analyze_series(
    s: GrowthSeries,
    fit_window: Window = DEFAULT_FIT_WINDOW,
    kappa: float = DEFAULT_KAPPA,
    boundaries: tuple[float, ...] = DEFAULT_SEGMENT_BOUNDARIES,
    probe_years: tuple[float, ...] = DEFAULT_PROBE_YEARS,
    takeoff_window: Window = DEFAULT_TAKEOFF_WINDOW,
    stagnation_window: Window = DEFAULT_STAGNATION_WINDOW,
    input_path: str = "",
    input_sha256: str = "",
) -> AnalysisReport:
    """Fit the series and run every regime test.

    The fit must succeed; float trouble in it raises NonFiniteValueError.
    A regime test or a deviation whose preconditions fail (for example no
    observed years after the window, or years too close together for a
    line fit), or whose numbers leave the float range, is recorded as
    skipped rather than aborting the report.
    """
    try:
        fit = fit_hyperbolic(s, fit_window)
    except ArithmeticError:
        raise _too_extreme(s) from None
    fit_record = {
        "a": fit.a,
        "k": fit.k,
        "se_a": fit.se_a,
        "se_k": fit.se_k,
        "window": [fit_window.t0, fit_window.t1],
        "n_points": fit.n_points,
        "rmse_reciprocal": fit.rmse_reciprocal,
        "r2_reciprocal": fit.r2_reciprocal,
        "singularity_year": singularity(fit),
    }
    if _nonfinite(fit_record):
        raise _too_extreme(s)

    report = {
        "tool": {"name": "hypergrowth", "version": __version__},
        "input": {"path": input_path, "sha256": input_sha256},
        "series": {
            "label": s.label,
            "n_points": len(s),
            "first_year": s.years[0],
            "last_year": s.years[-1],
        },
        "fit": fit_record,
        "deviations": _deviation_section(fit, s, probe_years),
        "diversion": _part(detect_diversion, fit, s, kappa=kappa),
        "takeoff": _part(takeoff_scan, fit, s, w=takeoff_window, kappa=kappa),
        "stagnation": _part(stagnation_test, s, w=stagnation_window),
        "segments": _part(_segments, s, boundaries=boundaries, w=fit_window),
    }
    return AnalysisReport(data=report)


def _segments(s: GrowthSeries, boundaries: tuple[float, ...], w: Window) -> dict:
    """The segment test's record, with each z score as a dict."""
    record = _plain(segment_consistency(s, boundaries, w))
    record["z_scores"] = [
        # an exact break between collinear segments has z = inf
        {"left": i, "right": j, "z": z if math.isfinite(z) else repr(z)}
        for i, j, z in record["z_scores"]
    ]
    return record


def _too_extreme(s: GrowthSeries) -> NonFiniteValueError:
    """The error of a part that cannot be skipped, naming the series."""
    return NonFiniteValueError(f"series {s.label!r}: {_TOO_EXTREME}")


def _nonfinite(record) -> tuple | None:
    """``(key, value)`` of the first nan or infinity among ``record``'s leaves, or None."""
    for key, value in _leaves("", record):
        if isinstance(value, float) and not math.isfinite(value):
            return key, value
    return None


def _part(compute, *args, **kwargs) -> dict:
    """``compute``'s record as plain data, or its skip reason: the message of a
    HypergrowthError (such as years too close together for a line fit), or
    _TOO_EXTREME for an ArithmeticError or a nan or an infinity, which is named
    by its field. So the rest of the report is still written."""
    try:
        record = _plain(compute(*args, **kwargs))
    except HypergrowthError as exc:
        return {"skipped": str(exc)}
    except ArithmeticError:
        return {"skipped": _TOO_EXTREME}
    bad = _nonfinite(record)
    return {"skipped": f"{bad[0]} is {bad[1]!r}: {_TOO_EXTREME}"} if bad else record


def _plain(value):
    """A record as a dict in field order, a Window as [t0, t1], a tuple as a list."""
    if isinstance(value, Window):
        return [value.t0, value.t1]
    if not isinstance(value, tuple):
        return value
    if hasattr(value, "_asdict"):
        return {key: _plain(item) for key, item in value._asdict().items()}
    return [_plain(item) for item in value]


def _deviation_section(fit: HyperbolicFit, s: GrowthSeries, probe_years) -> list[dict]:
    """One entry per probe year: its percent, or a null percent and the skip reason."""
    return [
        {"year": year, "percent": None,
         **_part(lambda: {"percent": percent_deviation(fit, s, year)})}
        for year in probe_years
    ]


PLOT_SAMPLES = 256


def _grid(t0: float, t_end: float) -> list[float]:
    """PLOT_SAMPLES evenly spaced years from t0 to t_end; none unless t_end > t0."""
    step = (t_end - t0) / (PLOT_SAMPLES - 1)
    return [t0 + i * step for i in range(PLOT_SAMPLES)] if t_end > t0 else []


def gdp_plot_table(fit: HyperbolicFit, s: GrowthSeries) -> list[tuple[str, float, float]]:
    """Rows (tag, year, value) for the semilog GDP display.

    Observed points plus the model curve sampled on an even grid from
    the window start to min(singularity - 1, last observed year).
    """
    rows: list[tuple[str, float, float]] = list(zip(repeat("observed"), s.years, s.values))
    t_end = min(singularity(fit) - 1.0, s.years[-1])
    rows += [("model", t, 1.0 / fit.line_value(t)) for t in _grid(fit.fit_window.t0, t_end)]
    return rows


def reciprocal_plot_table(fit: HyperbolicFit, s: GrowthSeries) -> list[tuple[str, float, float]]:
    """Rows (tag, year, value) for the reciprocal (1/GDP) display.

    Observed reciprocals plus fitted-line samples over the full data
    range, clipped where the line reaches zero.
    """
    rows: list[tuple[str, float, float]] = list(
        zip(repeat("observed"), s.years, s.reciprocals)
    )
    for t in _grid(s.years[0], min(s.years[-1], singularity(fit))):
        line = fit.line_value(t)
        if line >= 0.0:
            rows.append(("fit", t, line))
    return rows


def plot_tables(s: GrowthSeries, fit_window: Window) -> tuple:
    """``(("gdp", rows), ("reciprocal", rows))``: the two plot tables of the fit
    of ``s`` on ``fit_window``. Like the report's fit they cannot be skipped, so
    an ArithmeticError or a value that is not finite raises NonFiniteValueError."""
    try:
        fit = fit_hyperbolic(s, fit_window)
        tables = (("gdp", gdp_plot_table(fit, s)), ("reciprocal", reciprocal_plot_table(fit, s)))
    except ArithmeticError:
        raise _too_extreme(s) from None
    if not all(math.isfinite(v) for _, table in tables for _, _, v in table):
        raise _too_extreme(s)
    return tables


def human_summary(report: AnalysisReport) -> str:
    """Fixed-width summary table of the main analysis quantities."""
    d = report.data
    fit = d["fit"]
    rows: list[tuple[str, str]] = [
        ("series", f"{d['series']['label']}  ({d['series']['n_points']} points)"),
        ("fit window", f"{fit['window'][0]:g} .. {fit['window'][1]:g}"),
        ("a (1/billion)", f"{fit['a']:.6e}"),
        ("k (1/billion/yr)", f"{fit['k']:.6e}"),
        ("r2 (reciprocal)", f"{fit['r2_reciprocal']:.6f}"),
        ("rmse (reciprocal)", f"{fit['rmse_reciprocal']:.3e}"),
        ("singularity year", f"{fit['singularity_year']:.1f}"),
    ]
    for entry in d["deviations"]:
        label = f"deviation @ {entry['year']:g}"
        if entry.get("percent") is None:
            rows.append((label, "n/a"))
        else:
            rows.append((label, f"{entry['percent']:+.1f}%"))
    for name in ("diversion", "takeoff", "stagnation", "segments"):
        sec = d[name]
        if "skipped" in sec:
            value = f"skipped ({sec['skipped']})"
        elif name == "diversion":
            value = "none detected" if sec["direction"] == "none" else (
                f"{sec['direction']} from {sec['diversion_year']:g} "
                f"(bypass {sec['bypass_years']:.1f} yr)"
            )
        elif name == "takeoff":
            value = "found" if sec["found"] else (
                f"none in {sec['window'][0]:g}..{sec['window'][1]:g}"
            )
        elif name == "stagnation":
            value = f"{sec['verdict']} (monotone {sec['monotone_fraction']:.2f})"
        else:
            value = sec["verdict"]
        rows.append((name, value))

    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows) + "\n"
