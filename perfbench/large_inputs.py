"""large-inputs: parse and analyse big wide tables and long series, in process.

Each cycle is one wide op then several long ops. A wide op parses a
Maddison-shaped table (up to 171 rows x 802 year columns, mostly blank
before 1820), aggregates sum-members groups and direct rows, and
analyses every resulting series. A long op takes a ``year,value`` text
of 2,008 to 20,000 points through parsing, the fit, the four regime
tests, the report and both plot tables. Parsing and large-n fitting
dominate here and nowhere else.
"""

from __future__ import annotations

import bisect
import math

from hypergrowth.fitting import fit_hyperbolic, fit_line, goodness, percent_deviation
from hypergrowth.ingest import RegionPreset, aggregate, parse_long_csv, parse_wide_csv
from hypergrowth.regimes import (
    DEFAULT_SEGMENT_WINDOW,
    DEFAULT_STAGNATION_WINDOW,
    DEFAULT_TAKEOFF_WINDOW,
    detect_diversion,
    segment_consistency,
    stagnation_test,
    takeoff_scan,
)
from hypergrowth.report import (
    DEFAULT_FIT_WINDOW,
    analyze_series,
    gdp_plot_table,
    human_summary,
    reciprocal_plot_table,
)
from hypergrowth.series import reciprocal, window

import inputs
import reference
from measure import Workload, compute_yardstick, size_class

FIT = (DEFAULT_FIT_WINDOW.t0, DEFAULT_FIT_WINDOW.t1)
LONG_PER_CYCLE = 5


class WideOp:
    kind = "wide"

    def __init__(self, table: inputs.WideTable) -> None:
        self.table = table
        self.nbytes = len(table.text.encode("utf-8"))
        self.work = table.n_cells - table.n_blank
        self.presets = [
            (RegionPreset(name, members, "sum-members"), "ingest.aggregate.sum_members")
            for name, members in table.groups
        ] + [
            (RegionPreset(label, (label,), "direct-row"), "ingest.aggregate.direct_row")
            for label in table.totals
        ]

    def run(self, tr):
        d = tr.call("ingest.parse_wide_csv", parse_wide_csv, self.table.text)
        series = [tr.call(name, aggregate, d, preset) for preset, name in self.presets]
        reports = [tr.call("report.analyze_series", analyze_series, s) for s in series]
        return d, series, reports

    def prepare(self) -> None:
        """Expected series (the generator's own sums, in billions) and fits."""
        cells = self.table.cells
        self.expected = []
        for preset, _ in self.presets:
            members = [cells[label] for label in preset.member_labels]
            years = sorted(set.intersection(*(set(m) for m in members)))
            points = [(t, math.fsum(m[t] for m in members) / 1000.0) for t in years]
            self.expected.append((points, reference.hyperbolic_reference(points, *FIT)))

    def check(self, out, counts) -> str | None:
        d, series, reports = out
        t = self.table
        if len(d.rows) != len(t.cells) or len(d.year_header) != len(inputs.WIDE_YEARS):
            return f"parsed {len(d.rows)} rows x {len(d.year_header)} years"
        kept = sum(len(row) for row in d.rows.values())
        if kept != t.n_cells - t.n_blank - t.n_nonpositive:
            return f"parse kept {kept} cells, generator wrote {t.n_cells - t.n_blank - t.n_nonpositive}"
        counts["wide.cells"] += t.n_cells
        counts["wide.dropped"] += t.n_blank + t.n_nonpositive
        counts["wide.tables"] += 1
        for s, rep, (points, ref) in zip(series, reports, self.expected):
            if len(s.points) != len(points) or any(
                ty != ey or not reference.close(tv, ev, 1e-12)
                for (ty, tv), (ey, ev) in zip(s.points, points)
            ):
                return f"{s.label}: aggregate differs from the generator's sums"
            fit = rep.data["fit"]
            if ref is None or not (
                reference.close(fit["a"], ref[0]) and reference.close(fit["k"], ref[1])
            ):
                return f"{s.label}: fit a, k differ from reference {ref!r}"
        return None


def _count(years, t0: float, t1: float) -> int:
    return bisect.bisect_right(years, t1) - bisect.bisect_left(years, t0)


class LongOp:
    kind = "long"

    def __init__(self, seed: int, size: int) -> None:
        self.text, self.points = inputs.long_series(seed, size)
        self.nbytes = len(self.text.encode("utf-8"))
        self.work = size
        self.label = f"long-{size}"
        # probe years must be observed: the first point and one mid-series
        self.probes = (self.points[0][0], self.points[size // 2][0])
        n_fit = _count([t for t, _ in self.points], *FIT)
        self.line_name = "fitting.fit_line." + size_class(size)
        self.fit_name = "fitting.fit_hyperbolic." + size_class(n_fit)

    def run(self, tr):
        c = tr.call
        s = c("ingest.parse_long_csv", parse_long_csv, self.text, self.label)
        r = c("series.reciprocal", reciprocal, s)
        line = c(self.line_name, fit_line, r.years, r.values, (FIT[0] + FIT[1]) / 2.0)
        in_fit = c("series.window", window, s, DEFAULT_FIT_WINDOW)
        fit = c(self.fit_name, fit_hyperbolic, s, DEFAULT_FIT_WINDOW)
        diag = c("fitting.goodness", goodness, fit, s)
        devs = [c("fitting.percent_deviation", percent_deviation, fit, s, t) for t in self.probes]
        tests = (
            c("regimes.detect_diversion", detect_diversion, fit, s),
            c("regimes.takeoff_scan", takeoff_scan, fit, s),
            c("regimes.stagnation_test", stagnation_test, s),
            c("regimes.segment_consistency", segment_consistency, s),
        )
        rep = c("report.analyze_series", analyze_series, s, probe_years=self.probes)
        rendered = (
            c("report.to_json", rep.to_json),
            c("report.to_kv", rep.to_kv),
            c("report.human_summary", human_summary, rep),
        )
        tables = (
            c("report.gdp_plot_table", gdp_plot_table, fit, s),
            c("report.reciprocal_plot_table", reciprocal_plot_table, fit, s),
        )
        return s, line, in_fit, fit, diag, devs, tests, rendered, tables

    def prepare(self) -> None:
        years = [t for t, _ in self.points]
        self.line_ref = reference.ols(years, [1.0 / v for _, v in self.points])
        self.fit_ref = reference.hyperbolic_reference(self.points, *FIT)
        self.test_points = {
            "detect_diversion": len(years) - bisect.bisect_right(years, FIT[1]),
            "takeoff_scan": _count(years, DEFAULT_TAKEOFF_WINDOW.t0, DEFAULT_TAKEOFF_WINDOW.t1),
            "stagnation_test": _count(
                years, DEFAULT_STAGNATION_WINDOW.t0, DEFAULT_STAGNATION_WINDOW.t1
            ),
            "segment_consistency": _count(
                years, DEFAULT_SEGMENT_WINDOW.t0, DEFAULT_SEGMENT_WINDOW.t1
            ),
        }
        self.n_fit = _count(years, *FIT)
        ra, rk, _ = self.fit_ref
        self.n_positive = sum(1 for t in years if ra - rk * t > 0.0)

    def check(self, out, counts) -> str | None:
        s, line, in_fit, fit, diag, devs, tests, rendered, tables = out
        if s.points != self.points:
            return f"{self.label}: parsed points differ from the generated ones"
        if not (
            reference.close(line.intercept, self.line_ref[0])
            and reference.close(line.slope, self.line_ref[1])
        ):
            return f"{self.label}: full-range line differs from reference"
        ra, rk, rn = self.fit_ref
        if fit.n_points != rn or not (reference.close(fit.a, ra) and reference.close(fit.k, rk)):
            return f"{self.label}: fit a, k = {fit.a!r}, {fit.k!r}; reference {ra!r}, {rk!r}"
        if len(in_fit) != self.n_fit:
            return f"{self.label}: window kept {len(in_fit)} points, expected {self.n_fit}"
        if len(diag.rows) != self.n_positive or len(devs) != len(self.probes):
            return f"{self.label}: {len(diag.rows)} residual rows, expected {self.n_positive}"
        text, kv, summary = rendered
        try:
            report = reference.finite_json(text)
        except ValueError as exc:
            return f"{self.label}: report {exc}"
        if report["fit"]["a"] != fit.a or report["fit"]["k"] != fit.k:
            return f"{self.label}: report fit differs from fit_hyperbolic"
        div, tko, stag, seg = tests
        if (
            [d["percent"] for d in report["deviations"]] != devs
            or report["diversion"]["direction"] != div.direction
            or report["takeoff"]["found"] != tko.found
            or report["stagnation"]["verdict"] != stag.verdict
            or report["segments"]["verdict"] != seg.verdict
        ):
            return f"{self.label}: report sections differ from the direct calls"
        if report["series"]["n_points"] != len(self.points):
            return f"{self.label}: report counts {report['series']['n_points']} points"
        if f"fit.a={fit.a!r}" not in kv.splitlines() or "singularity year" not in summary:
            return f"{self.label}: kv report or summary lacks the fit"
        gdp, recip = tables
        n = len(self.points)
        if gdp[:n] != [("observed", t, v) for t, v in self.points] or len(recip) < n:
            return f"{self.label}: plot tables do not start with the observed points"
        counts["report.bytes"] += len(text.encode("utf-8"))
        counts["report.count"] += 1
        counts["windows"] += 1
        counts["accepted"] += 1
        for name, points in self.test_points.items():
            counts["points." + name] += points
            counts["calls." + name] += 1
        return None


def setup(ctx):
    tables = [inputs.wide_table(ctx.seed, f) for f in inputs.WIDE_FRACTIONS]
    wide = [WideOp(t) for t in tables]
    long_ops = [LongOp(ctx.seed, size) for size in inputs.LONG_SIZES]
    ops = []
    for i in range(len(wide) * len(long_ops) // LONG_PER_CYCLE):
        ops.append(wide[i % len(wide)])
        for j in range(LONG_PER_CYCLE):
            ops.append(long_ops[(i * LONG_PER_CYCLE + j) % len(long_ops)])
    n_cells = sum(t.n_cells for t in tables)
    props = {
        "rows": sum(len(t.cells) for t in tables) / len(tables),
        "year_columns": len(inputs.WIDE_YEARS),
        "blank_frac": sum(t.n_blank for t in tables) / n_cells,
        "points_per_series": sum(op.work for op in long_ops) / len(long_ops),
        "windows_per_row": 0,
    }
    return Workload(
        ops, props, lambda: [op.prepare() for op in wide + long_ops], compute_yardstick, len(ops)
    )
