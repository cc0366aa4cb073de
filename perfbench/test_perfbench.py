"""Tests of the benchmark's own code: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

import inputs
import reference
import measure

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class TestGenerator:
    def test_same_seed_same_inputs(self):
        assert inputs.sweep_rows(7) == inputs.sweep_rows(7)
        assert inputs.long_series(7, 2008) == inputs.long_series(7, 2008)
        assert inputs.wide_table(7, 0.25).text == inputs.wide_table(7, 0.25).text
        assert inputs.simulate_args(7) == inputs.simulate_args(7)

    def test_other_seed_other_values_same_sizes(self):
        a, b = inputs.sweep_rows(1), inputs.sweep_rows(2)
        assert a != b
        assert [len(p) for _, _, p in a] == [len(p) for _, _, p in b]
        assert inputs.long_series(1, 4000)[0] != inputs.long_series(2, 4000)[0]

    def test_long_text_round_trips_exactly(self):
        text, points = inputs.long_series(3, 2008)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [(float(t), float(v)) for t, v in rows] == list(points)
        assert len(points) == 2008 and points[0][0] == 1.0 and points[-1][0] == 2008.0

    def test_wide_table_counts_match_text(self):
        t = inputs.wide_table(5, 0.25)
        lines = t.text.splitlines()
        cells = [c for line in lines[1:] for c in line.split(",")[1:]]
        assert len(cells) == t.n_cells
        assert sum(1 for c in cells if not c) == t.n_blank
        assert sum(1 for c in cells if c == "0") == t.n_nonpositive
        assert len(lines) - 1 == len(t.cells)


class TestPercentile:
    def test_needs_ten_samples_beyond(self):
        assert measure.percentile(list(range(1, 101)), 90) == 90
        with pytest.raises(ValueError):
            measure.percentile(list(range(1, 100)), 90)
        assert measure.percentile(list(range(1, 21)), 50) == 10
        with pytest.raises(ValueError):
            measure.percentile(list(range(1, 20)), 50)

    def test_order_does_not_matter(self):
        assert measure.percentile(list(range(200, 0, -1)), 50) == 100


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       300 |        300 |   _io
import time:       150 |        150 |       numpy._utils
import time:      2000 |      80000 |     numpy
import time:       500 |      80500 |   hypergrowth.fitting
import time:      1000 |      12000 |   click
import time:       700 |      13200 |   hypergrowth.cli
import time:       250 |      94000 | hypergrowth
"""


def test_parse_importtime():
    split = measure.parse_importtime(IMPORTTIME)
    assert split == {"numpy": 80.0, "click": 12.0, "hypergrowth": 1.45}


def test_self_time_subtracts_children():
    tr = measure.Tracer()
    tr.on = True
    outer = tr.begin("bench.op")
    tr.call("fitting.fit_line.small", sum, range(1000))
    tr.end(outer)
    (_, start, end, _, _), (_, cs, ce, parent, _) = list(tr.spans())
    assert parent == 0
    own = tr.self_us()
    assert own["bench"] == pytest.approx((end - start - (ce - cs)) / 1000.0)
    assert own["fitting"] == pytest.approx((ce - cs) / 1000.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reference_ols_matches_polyfit(seed):
    _, _, points = inputs.sweep_rows(seed)[seed]
    years = [t for t, _ in points]
    recip = [1.0 / v for _, v in points]
    intercept, slope = reference.ols(years, recip)
    want_slope, want_intercept = np.polyfit(years, recip, 1)
    assert slope == pytest.approx(want_slope, rel=1e-9)
    assert intercept == pytest.approx(want_intercept, rel=1e-9)


def test_finite_json_rejects_non_finite():
    assert reference.finite_json('{"a": [1.5, {"b": 2}]}') == {"a": [1.5, {"b": 2}]}
    for bad in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}'):
        with pytest.raises(ValueError):
            reference.finite_json(bad)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_exactly_the_declared_metrics(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "window-sweep",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_setup_only_reports_its_cpu_time():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "window-sweep",
         "--seed", "3", "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    wall = time.perf_counter() - t0
    name, value = proc.stdout.split()
    assert name == "setup_cpu_s" and 0.0 < float(value) < wall
