"""hypergrowth benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload window-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` and never installed. ``--trace 0`` measures the end-to-end
metrics. ``--trace 1`` runs every op twice, untraced and traced in
alternating order, and reports the per-layer metrics from the spans
together with the tracing overhead. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
describe the generated inputs and give the raw wall-clock figures.
Spans of a traced run are written to ``.perfbench-out/``. The exit code
is 0 only when a result is printed.

``setup_s`` is the median over fresh set-up processes of the CPU time
each spent on its main thread (interpreter start, imports, input
generation) plus its children's CPU, scaled by a set-up yardstick run
before and after each one to the speed of the reference machine. CPU
time leaves out time stolen by other guests and time spent waiting for
a core; the yardstick follows the drift of the CPU's own speed.
Together they keep set-up time steady on a shared VM, where the
wall-clock set-up time of the same code moved by more than 25% between
two sets of runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter

import measure

WORKLOADS = ("cli-bundled", "window-sweep", "large-inputs")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
MIN_OPS = 100  # op_rel_p90 needs ten samples beyond it
MIN_CALLS = 20  # a per-layer p50 needs ten samples beyond it
HARD_CAP_S = 150.0


class Context:
    def __init__(self, root: pathlib.Path, workload: str, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.tracer = measure.Tracer()
        self.python = sys.executable
        src = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
        self.out_dir = root / ".perfbench-out"
        self.work_dir = self.out_dir / f"{workload}-{seed}-{os.getpid()}"


def load(name: str):
    """The workload module; each one imports the program, so import only the one run."""
    if name == "cli-bundled":
        import cli_bundled as module
    elif name == "window-sweep":
        import window_sweep as module
    else:
        import large_inputs as module
    return module


def import_split(ctx) -> dict[str, float]:
    """Medians of interpreter start-up and the numpy/click/hypergrowth import split, in ms."""
    samples: dict[str, list[float]] = {"interp": [], "numpy": [], "click": [], "hypergrowth": []}
    start_up = measure.startup_yardstick(ctx.python, ctx.root, ctx.env)
    for _ in range(IMPORT_REPEATS):
        samples["interp"].append(1000.0 * start_up())
        proc = subprocess.run(
            [ctx.python, "-X", "importtime", "-c", "import hypergrowth.cli"],
            cwd=ctx.root, env=ctx.env, check=True, capture_output=True, text=True,
        )
        for name, ms in measure.parse_importtime(proc.stderr).items():
            samples[name].append(ms)
    return {name: measure.median(v) for name, v in samples.items()}


class Loop:
    """Closed loop over the ops, one at a time, with per-op checks outside the timing."""

    def __init__(self, tracer) -> None:
        self.tr = tracer
        self.counts: Counter = Counter()
        self.attempted = 0
        self.failures: list[str] = []

    def once(self, op, traced: bool) -> float:
        """Run and check one op; returns its time in seconds."""
        tr = self.tr
        tr.on = traced
        root = tr.begin("bench.op") if traced else None
        t0 = time.perf_counter_ns()
        try:
            out = op.run(tr)
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        elapsed = (time.perf_counter_ns() - t0) / 1e9
        if root is not None:
            tr.end(root)
        tr.on = False
        self.attempted += 1
        if error is None:
            error = op.check(out, self.counts)
        if error is not None:
            self.failures.append(error)
        return elapsed


def setup_cpu_s() -> float:
    """CPU seconds of this process's main thread since it started, plus its children's.

    Thread time leaves out numpy's BLAS threads, which only wait during set-up.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + kids.ru_utime + kids.ru_stime


def time_setup(ctx, workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up time of SETUP_REPEATS fresh set-up processes: scaled CPU seconds and wall seconds.

    Each process's CPU time is divided by the mean CPU time of the
    set-up yardsticks run just before and just after it, and multiplied
    by the yardstick's time on the reference machine.
    """
    argv = [ctx.python, str(pathlib.Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    yardstick = [ctx.python, "-c", measure.SETUP_YARDSTICK]
    yards = [measure.child_cpu_s(yardstick, ctx.root, ctx.env)]
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cpu = measure.child_cpu_s(argv, ctx.root, ctx.env)
        wall.append(time.perf_counter() - t0)
        yards.append(measure.child_cpu_s(yardstick, ctx.root, ctx.env))
        scaled.append(cpu / ((yards[-2] + yards[-1]) / 2.0) * measure.SETUP_YARDSTICK_REF_S)
    return scaled, wall


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _skip_frac(counts) -> float:
    """Share of detect_diversion calls skipped for want of points after the window."""
    return _ratio(counts["skipped"], counts["skipped"] + counts["calls.detect_diversion"])


def run_e2e(ctx, workload: str, wl, seconds: float, setup_times) -> tuple[Loop, dict, dict]:
    """End-to-end metrics; op times are divided by the yardsticks either side of the op."""
    loop = Loop(ctx.tracer)
    ops = wl.ops
    wall: list[float] = []
    rel: list[float] = []
    yards: list[float] = []
    work = 0.0
    before = wl.yardstick()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        whole = len(wall) % wl.period == 0
        if (elapsed >= seconds and len(wall) >= MIN_OPS and whole) or elapsed >= HARD_CAP_S:
            break
        op = ops[len(wall) % len(ops)]
        dt = loop.once(op, traced=False)
        after = wl.yardstick()
        wall.append(dt)
        rel.append(dt / ((before + after) / 2.0))
        yards.append(after)
        work += op.work
        before = after
    who = resource.RUSAGE_CHILDREN if workload == "cli-bundled" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (measure.median(setup_times), "s"),
        "ok_frac": (1.0 - len(loop.failures) / loop.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "op_rel_p50": (measure.percentile(rel, 50), "yardstick"),
        "op_rel_p90": (measure.percentile(rel, 90), "yardstick"),
        "work_rel": (work / sum(rel), "1/yardstick"),
    }
    raw = {
        "ops": len(wall),
        "op_ms_p50": 1000.0 * measure.percentile(wall, 50),
        "op_ms_p90": 1000.0 * measure.percentile(wall, 90),
        "work_per_s": work / sum(wall),
        "yardstick_ms_p50": 1000.0 * measure.median(yards),
    }
    return loop, metrics, raw


def run_traced(ctx, wl, seconds: float) -> tuple[Loop, dict, dict]:
    tr = ctx.tracer
    imports = import_split(ctx)
    ops = wl.trace_ops() if wl.trace_ops else wl.ops
    loop = Loop(tr)
    ratios: list[float] = []
    yards: list[float] = []
    plain: Counter = Counter()  # untraced time and work, by op kind
    calls: Counter = Counter()
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = calls and min(calls.values()) >= MIN_CALLS
        if (elapsed >= seconds and enough) or elapsed >= HARD_CAP_S:
            break
        op = ops[i % len(ops)]
        tr.op = i
        first = len(tr)
        times = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            times[traced] = loop.once(op, traced)
        for k in range(first, len(tr)):
            calls[tr.names[tr.name[k]]] += 1
        yards.append(wl.yardstick())
        ratios.append(times[True] / times[False])
        plain[op.kind + ".s"] += times[False]
        plain[op.kind + ".work"] += op.work
        plain[op.kind + ".bytes"] += getattr(op, "nbytes", 0)
        i += 1
    traced_ops = i

    m: dict[str, tuple[float, str]] = {}
    for name in ("interp", "numpy", "click", "hypergrowth"):
        m[f"import.{name}.ms"] = (imports[name], "ms")
    durations = tr.durations()
    for name in measure.FUNCTIONS:
        samples = durations.get(name, [])
        m[name + ".us_p50"] = (measure.percentile(samples, 50) if samples else 0.0, "us")
        m[name + ".calls"] = (len(samples), "count")
    m["cli.self.us"] = (_cli_self_us(tr), "us")
    c = loop.counts
    m["ingest.parse_wide_csv.cells"] = (_ratio(c["wide.cells"], c["wide.tables"]), "count")
    m["ingest.parse_wide_csv.dropped_frac"] = (_ratio(c["wide.dropped"], c["wide.cells"]), "ratio")
    m["fitting.fit_hyperbolic.accept_frac"] = (_ratio(c["accepted"], c["windows"]), "ratio")
    m["regimes.detect_diversion.skip_frac"] = (_skip_frac(c), "ratio")
    for test in measure.REGIME_TESTS:
        m[f"regimes.{test}.points"] = (_ratio(c["points." + test], c["calls." + test]), "count")
    m["report.to_json.bytes"] = (_ratio(c["report.bytes"], c["report.count"]), "B")
    for layer, us in tr.self_us().items():
        m[f"{layer}.self_us_per_op"] = (us / traced_ops, "us")
    m["bench.yardstick.us_p50"] = (1e6 * measure.median(yards), "us")
    m["trace.overhead_frac"] = (measure.median(ratios) - 1.0, "ratio")
    m["trace.spans_per_op"] = (len(tr) / traced_ops, "count")
    m["sweep_windows_per_s"] = (_ratio(plain["row.work"], plain["row.s"]), "1/s")
    m["wide_mb_per_s"] = (_ratio(plain["wide.bytes"] / 1e6, plain["wide.s"]), "MB/s")
    m["long_points_per_s"] = (_ratio(plain["long.work"], plain["long.s"]), "1/s")
    ctx.out_dir.mkdir(exist_ok=True)
    tr.write(ctx.out_dir / f"trace-{ctx.work_dir.name}.jsonl.gz")
    return loop, m, {"ops": traced_ops, "spans": len(tr)}


def _cli_self_us(tr) -> float:
    """Median of cli.main minus the stage replay of the same command, in microseconds."""
    diffs = []
    main = None
    for name, start, end, _, _ in tr.spans():
        if name == "cli.main":
            main = end - start
        elif name == "bench.replay" and main is not None:
            diffs.append((main - (end - start)) / 1000.0)
            main = None
    return measure.median(diffs) if diffs else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs and exit (times set-up)")
    args = parser.parse_args(argv)

    root = pathlib.Path(__file__).resolve().parent.parent
    if not (root / "src" / "hypergrowth" / "__init__.py").is_file():
        print(f"error: no hypergrowth sources under {root / 'src'}", file=sys.stderr)
        return 2
    os.chdir(root)
    sys.path.insert(0, str(root / "src"))
    ctx = Context(root, args.workload, args.seed)
    try:
        return _run(args, ctx)
    finally:
        shutil.rmtree(ctx.work_dir, ignore_errors=True)


def _run(args, ctx) -> int:
    setup_times, setup_wall = [], []
    if not args.setup_only and not args.trace:
        setup_times, setup_wall = time_setup(ctx, args.workload, args.seed)

    ctx.tracer.on = bool(args.trace)  # a traced run also times the set-up's calls
    wl = load(args.workload).setup(ctx)
    ctx.tracer.on = False
    if args.setup_only:
        print(f"setup_cpu_s {setup_cpu_s()!r}")
        return 0
    wl.prepare()
    gc.collect()
    gc.freeze()

    if args.trace:
        loop, metrics, raw = run_traced(ctx, wl, args.seconds)
    else:
        loop, metrics, raw = run_e2e(ctx, args.workload, wl, args.seconds, setup_times)
        raw["setup_wall_s"] = measure.median(setup_wall)

    c = loop.counts
    props = dict(wl.props)
    props["rejected_frac"] = _ratio(c["windows"] - c["accepted"], c["windows"])
    props["skipped_frac"] = _skip_frac(c)
    print("inputs " + json.dumps(props, sort_keys=True))
    print("raw " + json.dumps(raw, sort_keys=True))
    for failure in loop.failures[:10]:
        print("failed: " + failure, file=sys.stderr)
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
