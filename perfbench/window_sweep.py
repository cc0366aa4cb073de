"""window-sweep: refit every contiguous window of many generated series, in process.

One op is one series (row): its reciprocal and full-range line, then
for every contiguous window with at least 3 points fit_hyperbolic and
singularity, and for each accepted fit detect_diversion and
takeoff_scan. This is the batch work of a window-sensitivity sweep of
the blow-up year; small-n fits dominate and nothing is parsed.
"""

from __future__ import annotations

from hypergrowth.errors import (
    NoPointsAfterWindowError,
    NoPointsInWindowError,
    NonDecreasingLineError,
)
from hypergrowth.fitting import fit_hyperbolic, fit_line, singularity
from hypergrowth.regimes import DEFAULT_TAKEOFF_WINDOW, detect_diversion, takeoff_scan
from hypergrowth.series import Window, new_series, reciprocal

import inputs
import reference
from measure import Workload, compute_yardstick, size_class

TAKEOFF = (DEFAULT_TAKEOFF_WINDOW.t0, DEFAULT_TAKEOFF_WINDOW.t1)
DIRECTIONS = ("slower", "faster", "none")


class RowOp:
    kind = "row"

    def __init__(self, tr, label: str, points) -> None:
        self.points = points
        self.years = [t for t, _ in points]
        n = len(points)
        self.pairs = [(i, j) for i in range(n) for j in range(i + 2, n)]
        self.fit_name = "fitting.fit_hyperbolic." + size_class(n)
        self.line_name = "fitting.fit_line." + size_class(n)
        self.work = len(self.pairs)
        self.series = tr.call("series.new_series", new_series, points, label)
        self.expected = None

    def run(self, tr):
        s, years = self.series, self.years
        r = tr.call("series.reciprocal", reciprocal, s)
        line = tr.call(
            self.line_name, fit_line, r.years, r.values, (years[0] + years[-1]) / 2.0
        )
        results = []
        for i, j in self.pairs:
            w = Window(years[i], years[j])
            try:
                fit = tr.call(self.fit_name, fit_hyperbolic, s, w)
            except NonDecreasingLineError:
                results.append(None)
                continue
            blowup = singularity(fit)
            try:
                div = tr.call("regimes.detect_diversion", detect_diversion, fit, s)
            except NoPointsAfterWindowError:
                div = None
            try:
                tko = tr.call("regimes.takeoff_scan", takeoff_scan, fit, s)
            except NoPointsInWindowError:
                tko = None
            results.append((fit.a, fit.k, fit.n_points, blowup, div, tko))
        return line, results

    def prepare(self) -> None:
        """Reference outcome of every window, from the generated points alone."""
        last = self.years[-1]
        in_takeoff = [t for t in self.years if TAKEOFF[0] <= t <= TAKEOFF[1]]
        self.line_ref = reference.ols(self.years, [1.0 / v for _, v in self.points])
        self.expected = []
        for i, j in self.pairs:
            t0, t1 = self.years[i], self.years[j]
            ref = reference.hyperbolic_reference(self.points, t0, t1)
            if ref is None:
                self.expected.append(None)
                continue
            a, k, n = ref
            takeoff_ok = any(a - k * t > 0.0 for t in in_takeoff)
            after = sum(1 for t in self.years if t > t1)
            self.expected.append((a, k, n, t1 == last, takeoff_ok, after, len(in_takeoff)))

    def check(self, out, counts) -> str | None:
        line, results = out
        if not (
            reference.close(line.intercept, self.line_ref[0])
            and reference.close(line.slope, self.line_ref[1])
        ):
            return f"{self.series.label}: full-range line differs from reference"
        counts["windows"] += len(results)
        for (i, j), got, exp in zip(self.pairs, results, self.expected):
            where = f"{self.series.label} [{self.years[i]:g}, {self.years[j]:g}]"
            if exp is None:
                if got is not None:
                    return f"{where}: accepted a fit whose reference slope is >= 0"
                continue
            if got is None:
                return f"{where}: rejected a fit whose reference slope is < 0"
            a, k, n, blowup, div, tko = got
            ra, rk, rn, at_end, takeoff_ok, after, in_takeoff = exp
            if n != rn or not (reference.close(a, ra) and reference.close(k, rk)):
                return f"{where}: a, k = {a!r}, {k!r}; reference {ra!r}, {rk!r}"
            if not reference.close(blowup, ra / rk):
                return f"{where}: singularity {blowup!r} is not a/k"
            counts["accepted"] += 1
            if (div is None) != at_end:
                return f"{where}: diversion skipped={div is None}, expected {at_end}"
            if div is None:
                counts["skipped"] += 1
            else:
                counts["points.detect_diversion"] += after
                counts["calls.detect_diversion"] += 1
                if div.direction not in DIRECTIONS or (
                    div.diversion_year is not None
                    and not (div.diversion_year > self.years[j] and div.diversion_year in self.years)
                ):
                    return f"{where}: diversion {div!r} is not an observed later year"
            if (tko is not None) != takeoff_ok:
                return f"{where}: takeoff skipped={tko is None}, expected {not takeoff_ok}"
            if tko is not None:
                counts["points.takeoff_scan"] += in_takeoff
                counts["calls.takeoff_scan"] += 1
                if tko.found and not TAKEOFF[0] <= tko.onset_year <= TAKEOFF[1]:
                    return f"{where}: takeoff onset {tko.onset_year!r} outside the window"
        return None


def setup(ctx):
    rows = inputs.sweep_rows(ctx.seed)
    ops = [RowOp(ctx.tracer, label, points) for label, _, points in rows]
    n_years = len(inputs.BUNDLED_YEARS)
    props = {
        "rows": len(rows),
        "year_columns": n_years,
        "blank_frac": 1.0 - sum(len(op.points) for op in ops) / (n_years * len(ops)),
        "points_per_series": sum(len(op.points) for op in ops) / len(ops),
        "windows_per_row": sum(op.work for op in ops) / len(ops),
    }
    period = len(inputs.SWEEP_SHAPES) * len(inputs.SWEEP_GAPS)
    return Workload(ops, props, lambda: [op.prepare() for op in ops], compute_yardstick, period)
