"""Measurement plumbing: workloads, yardsticks, spans and statistics.

A span is (name, start_ns, end_ns, parent, op): parent is the index of
the enclosing span or -1, op the id of the benchmark op that made it.
Spans stay in memory and are written out once, when the run ends.

A yardstick is a fixed piece of work, timed between every two ops. The
end-to-end latencies are op times divided by the mean of the yardsticks
either side of the op. On a shared machine the speed of the whole
machine drifts by 10-40% over tens of seconds, and it moves an op and
its neighbouring yardsticks alike, so the ratio stays steady where the
raw time does not. The yardstick runs no program code, so a change to
the program moves the ratio as it moves the op time.
"""

from __future__ import annotations

import gzip
import json
import math
import random
import re
import subprocess
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import reference

# Public functions the benchmark times, as "<module>.<function>[.<variant>]".
# fit_line and fit_hyperbolic are split at SMALL_N points; aggregate by mode.
FUNCTIONS = (
    "cli.main",
    "ingest.parse_wide_csv",
    "ingest.aggregate.sum_members",
    "ingest.aggregate.direct_row",
    "ingest.parse_long_csv",
    "series.new_series",
    "series.window",
    "series.reciprocal",
    "fitting.fit_line.small",
    "fitting.fit_line.large",
    "fitting.fit_hyperbolic.small",
    "fitting.fit_hyperbolic.large",
    "fitting.goodness",
    "fitting.percent_deviation",
    "regimes.detect_diversion",
    "regimes.takeoff_scan",
    "regimes.stagnation_test",
    "regimes.segment_consistency",
    "report.analyze_series",
    "report.to_json",
    "report.to_kv",
    "report.human_summary",
    "report.gdp_plot_table",
    "report.reciprocal_plot_table",
    "synthetic.generate",
)
LAYERS = ("bench", "cli", "ingest", "series", "fitting", "regimes", "report", "synthetic")
REGIME_TESTS = ("detect_diversion", "takeoff_scan", "stagnation_test", "segment_consistency")
SMALL_N = 64


def size_class(n: int) -> str:
    return "small" if n <= SMALL_N else "large"


@dataclass
class Workload:
    """What a workload module's ``setup`` hands the run loop.

    ``ops`` run in order, cyclically, and a run stops only after a
    multiple of ``period`` ops, the length after which the mix of op
    sizes repeats, so every run times the same mix. ``trace_ops`` builds
    the ops of a traced run (the same ops unless the workload replays
    them in process); ``prepare`` computes the references the checks
    need; ``props`` describes the generated inputs.
    """

    ops: list
    props: dict
    prepare: Callable[[], object]
    yardstick: Callable[[], float]
    period: int
    trace_ops: Callable[[], list] | None = None


def _yardstick_series() -> list[tuple[list[float], list[float]]]:
    rng = random.Random(0)
    return [
        ([1500.0 + 10.0 * i for i in range(n)], [1.0 / rng.uniform(1.0, 2.0) for _ in range(n)])
        for n in range(3, 40)
    ]


_YARDSTICK_SERIES = _yardstick_series()


def compute_yardstick() -> float:
    """Seconds for a fixed set of small pure-Python line fits: the in-process yardstick.

    The fits run twice and only the second pass is timed, so the time
    does not depend on how much of the cache the op before it evicted.
    """
    for years, values in _YARDSTICK_SERIES:
        reference.ols(years, values)
    t0 = time.perf_counter()
    for years, values in _YARDSTICK_SERIES:
        reference.ols(years, values)
    return time.perf_counter() - t0


def startup_yardstick(python: str, cwd, env) -> Callable[[], float]:
    """The yardstick of process ops: seconds to start and stop a bare interpreter."""

    def run() -> float:
        t0 = time.perf_counter()
        subprocess.run([python, "-c", "pass"], cwd=cwd, env=env, check=True)
        return time.perf_counter() - t0

    return run


# The yardstick of set-up: a fresh interpreter that imports numpy and
# formats random numbers into CSV-like rows, much as a set-up process
# starts, imports and generates its inputs. It runs no program code and
# prints the CPU seconds of its main thread.
SETUP_YARDSTICK = (
    "import random, time, numpy\n"
    "rng = random.Random(0)\n"
    "rows = [','.join(f'{rng.uniform(1.0, 1e4):.6g}' for _ in range(40)) for _ in range(4000)]\n"
    "print(time.thread_time())\n"
)
# Its CPU seconds on the machine the baseline was measured on (see README):
# set-up CPU time is scaled to that machine's speed.
SETUP_YARDSTICK_REF_S = 0.32


def child_cpu_s(argv, cwd, env) -> float:
    """Run a process that prints its CPU seconds as its last word; returns them."""
    proc = subprocess.run(argv, cwd=cwd, env=env, check=True, stdout=subprocess.PIPE, text=True)
    return float(proc.stdout.split()[-1])


class Tracer:
    """Records spans while ``on``; with it off, ``call`` only calls through.

    Spans live in flat integer arrays, which the garbage collector does
    not scan, so a long traced run does not slow collections down.
    """

    def __init__(self) -> None:
        self.on = False
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end_ns = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def call(self, name: str, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end_ns.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self.end_ns[index] = time.perf_counter_ns()
        self._stack.pop()

    def spans(self):
        """(name, start_ns, end_ns, parent, op) of every span, in start order."""
        for i in range(len(self.name)):
            yield (self.names[self.name[i]], self.start[i], self.end_ns[i],
                   self.parent[i], self.op_id[i])

    def durations(self) -> dict[str, list[float]]:
        """Span durations in microseconds, by span name."""
        out: dict[str, list[float]] = {}
        for name, start, end, _, _ in self.spans():
            out.setdefault(name, []).append((end - start) / 1000.0)
        return out

    def self_us(self) -> dict[str, float]:
        """Total self time per layer (first dotted part of the span name), in microseconds.

        A span's self time is its duration minus the durations of its
        direct children, which never overlap in a single-threaded run.
        """
        child = [0] * len(self.name)
        for _, start, end, parent, _ in self.spans():
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans()):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start - child[i]) / 1000.0
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")


def percentile(samples, q: float, beyond: int = 10) -> float:
    """The q-th percentile (0 < q < 100), nearest rank.

    Raises ValueError unless at least ``beyond`` samples lie above the
    reported rank, so a percentile is never read off a thin tail.
    """
    n = len(samples)
    rank = math.ceil(q / 100.0 * n)
    if rank < 1 or n - rank < beyond:
        raise ValueError(f"p{q:g} of {n} samples has fewer than {beyond} samples beyond it")
    return sorted(samples)[rank - 1]


def median(samples) -> float:
    """Median of at least one sample (mean of the middle two for even counts)."""
    s = sorted(samples)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Split ``-X importtime`` output into numpy, click and hypergrowth, in ms.

    numpy and click are the cumulative time of their top package (which
    covers their submodules); hypergrowth is the summed self time of its
    own modules, which leaves out the numpy and click imports they
    trigger.
    """
    out = {"numpy": 0.0, "click": 0.0, "hypergrowth": 0.0}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        self_us, cumulative_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name in ("numpy", "click"):
            out[name] = max(out[name], cumulative_us / 1000.0)
        elif name == "hypergrowth" or name.startswith("hypergrowth."):
            out["hypergrowth"] += self_us / 1000.0
    return out
