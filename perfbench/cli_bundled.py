"""cli-bundled: fresh ``python -m hypergrowth.cli`` processes on the bundled table.

One op is one CLI invocation, run one at a time. A cycle is the fixed
mix below; interpreter start-up and imports dominate every invocation.
The traced run replays the same cycle in process instead: each command
through ``cli.main`` and then stage by stage through the public
functions, so ``cli.main`` minus the replay is the CLI's own time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import pathlib
import subprocess

import inputs
import reference
from measure import Workload, startup_yardstick

CSV = "tests/data/europe_gdp_wide.csv"
FIT = (1500.0, 1900.0)
W12_MEMBERS = (
    "Austria", "Belgium", "Denmark", "Finland", "France", "Germany", "Italy",
    "Netherlands", "Norway", "Sweden", "Switzerland", "United Kingdom",
)
ROWS = {"W30": ("Total 30 Western Europe",), "EE": ("Total Eastern Europe",), "W12": W12_MEMBERS}


def _read_table(path: pathlib.Path) -> dict[str, dict[float, float]]:
    with path.open(newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    years = [float(c) for c in records[0][1:]]
    return {
        r[0].strip(): {t: float(c) for t, c in zip(years, r[1:]) if c.strip() and float(c) > 0}
        for r in records[1:]
    }


def _preset_points(table, preset: str):
    members = [table[label] for label in ROWS[preset]]
    years = sorted(set.intersection(*(set(m) for m in members)))
    return [(t, sum(m[t] for m in members) / 1000.0) for t in years]


def _report_json(stdout: str) -> str:
    """The JSON report that follows the human summary on ``analyze`` stdout."""
    start = stdout.index("\n{\n") + 1
    return stdout[start:]


class Cycle:
    """The command mix, the references it is checked against, and first outputs."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        work = ctx.work_dir.relative_to(ctx.root)
        self.sim_csv = str(work / "sim.csv")
        self.plot_prefix = str(work / "w30")
        self.commands = [
            ("analyze", "W12", ["analyze", CSV, "--preset", "W12"]),
            ("analyze", "W30", ["analyze", CSV, "--preset", "W30"]),
            ("analyze", "EE", ["analyze", CSV, "--preset", "EE", "--kappa", "2.5"]),
            ("plotdata", "W30", ["plotdata", CSV, "--preset", "W30", "--out-prefix", self.plot_prefix]),
            ("simulate", None, inputs.simulate_args(ctx.seed) + ["-o", self.sim_csv]),
            ("analyze", "long", ["analyze", self.sim_csv, "--long"]),
        ]
        self.first: dict[int, bytes] = {}
        self.refs: dict[str, tuple] = {}

    def prepare(self) -> None:
        table = _read_table(self.ctx.root / CSV)
        for preset in ROWS:
            points = _preset_points(table, preset)
            self.refs[preset] = (points, reference.hyperbolic_reference(points, *FIT))
        with (self.ctx.root / CSV).open(encoding="utf-8") as fh:
            self.n_cells = len(table) * (len(next(csv.reader(fh))) - 1)
        self.n_dropped = self.n_cells - sum(len(r) for r in table.values())

    def check_outputs(self, index: int, stdout: str) -> str | None:
        """Check one command's outputs (stdout and files) against references and repeats."""
        verb, preset, args = self.commands[index]
        if verb == "plotdata":
            files = [pathlib.Path(f"{self.plot_prefix}_{s}.csv") for s in ("gdp", "reciprocal")]
            blob = stdout.encode() + b"".join(f.read_bytes() for f in files)
        elif verb == "simulate":
            blob = pathlib.Path(self.sim_csv).read_bytes()
            if index not in self.first:
                err = self._take_simulated(blob.decode())
                if err:
                    return err
        else:
            blob = stdout.encode()
            try:
                report = reference.finite_json(_report_json(stdout))
            except ValueError as exc:
                return f"{' '.join(args)}: report {exc}"
            points, ref = self.refs[preset]
            fit = report["fit"]
            if report["series"]["n_points"] != len(points) or not (
                reference.close(fit["a"], ref[0]) and reference.close(fit["k"], ref[1])
            ):
                return f"{' '.join(args)}: fit {fit['a']!r}, {fit['k']!r}; reference {ref!r}"
            if "--kappa" in args and report["diversion"].get("threshold_kappa") != 2.5:
                return f"{' '.join(args)}: kappa not applied"
        if self.first.setdefault(index, blob) != blob:
            return f"{' '.join(args)}: output differs from the first run of the same command"
        return None

    def _take_simulated(self, text: str) -> str | None:
        rows = list(csv.reader(io.StringIO(text)))
        points = [(float(t), float(v)) for t, v in rows[1:]]
        args = self.commands[4][2]
        years = [float(y) for y in args[args.index("--years") + 1].split(",")]
        if [t for t, _ in points] != years or not all(0.0 < v < float("inf") for _, v in points):
            return f"simulate wrote {len(points)} points that do not match --years"
        self.refs["long"] = (points, reference.hyperbolic_reference(points, *FIT))
        return None


class CliOp:
    kind = "cli"
    work = 1

    def __init__(self, cycle: Cycle, index: int) -> None:
        self.cycle = cycle
        self.index = index
        ctx = cycle.ctx
        self.argv = [ctx.python, "-m", "hypergrowth.cli", *cycle.commands[index][2]]

    def run(self, tr):
        ctx = self.cycle.ctx
        return subprocess.run(
            self.argv, cwd=ctx.root, env=ctx.env, capture_output=True, text=True
        )

    def check(self, proc, counts) -> str | None:
        if proc.returncode != 0:
            return f"{' '.join(self.argv[3:])}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        return self.cycle.check_outputs(self.index, proc.stdout)


class ReplayOp:
    """The whole cycle in process: each command via cli.main, then stage by stage."""

    kind = "replay"
    work = 6

    def __init__(self, cycle: Cycle) -> None:
        self.cycle = cycle
        # imported here, so that timing set-up in a fresh process imports no program code
        import hypergrowth.cli as cli
        import hypergrowth.fitting as fitting
        import hypergrowth.ingest as ingest
        import hypergrowth.report as report
        import hypergrowth.series as series
        import hypergrowth.synthetic as synthetic
        self.cli, self.fitting, self.ingest = cli, fitting, ingest
        self.report, self.series, self.synthetic = report, series, synthetic
        self.catalog = {p.name: p for p in ingest.preset_catalog()}

    def run(self, tr):
        out = []
        for verb, preset, args in self.cycle.commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                tr.call("cli.main", self.cli.main, list(args), standalone_mode=False)
            replay = tr.begin("bench.replay") if tr.on else None
            try:
                staged = getattr(self, "_" + verb)(tr, preset, args)
            finally:
                if replay is not None:
                    tr.end(replay)
            out.append((buf.getvalue(), staged))
        return out

    def _series(self, tr, preset, args):
        raw = pathlib.Path(args[1]).read_bytes()
        text = raw.decode("utf-8-sig")
        if preset == "long":
            return tr.call("ingest.parse_long_csv", self.ingest.parse_long_csv, text,
                           pathlib.Path(args[1]).stem), raw
        d = tr.call("ingest.parse_wide_csv", self.ingest.parse_wide_csv, text)
        p = self.catalog[preset]
        name = "ingest.aggregate." + p.mode.replace("-", "_")
        return tr.call(name, self.ingest.aggregate, d, p), raw

    def _analyze(self, tr, preset, args):
        s, raw = self._series(tr, preset, args)
        kappa = float(args[args.index("--kappa") + 1]) if "--kappa" in args else 3.0
        rep = tr.call("report.analyze_series", self.report.analyze_series, s, kappa=kappa,
                      input_path=args[1], input_sha256=self.report.file_digest(raw))
        return (tr.call("report.human_summary", self.report.human_summary, rep)
                + tr.call("report.to_json", rep.to_json))

    def _plotdata(self, tr, preset, args):
        s, _ = self._series(tr, preset, args)
        fit = tr.call("fitting.fit_hyperbolic.small", self.fitting.fit_hyperbolic, s,
                      self.series.Window(*FIT))
        return (tr.call("report.gdp_plot_table", self.report.gdp_plot_table, fit, s),
                tr.call("report.reciprocal_plot_table", self.report.reciprocal_plot_table, fit, s))

    def _simulate(self, tr, preset, args):
        flag = {args[i]: args[i + 1] for i in range(1, len(args) - 1, 2)}
        spec = self.synthetic.ModelSpec(
            kind=flag["--kind"], params={"a": float(flag["--a"]), "k": float(flag["--k"])},
            sample_years=tuple(float(y) for y in flag["--years"].split(",")),
            sigma=float(flag["--sigma"]), seed=int(flag["--seed"]),
        )
        return tr.call("synthetic.generate", self.synthetic.generate, spec)

    def check(self, out, counts) -> str | None:
        for index, (stdout, staged) in enumerate(out):
            verb, _, args = self.cycle.commands[index]
            err = self.cycle.check_outputs(index, stdout)
            if err:
                return err
            if verb == "analyze" and staged != stdout:
                return f"{' '.join(args)}: staged replay differs from cli.main output"
            if verb == "plotdata" and [r[1:] for r in staged[0] if r[0] == "observed"] != [
                tuple(p) for p in self.cycle.refs["W30"][0]
            ]:
                return "plotdata: staged gdp table lacks the observed points"
            if verb == "simulate" and list(staged.points) != self.cycle.refs["long"][0]:
                return "simulate: staged generate differs from the written file"
            if verb == "analyze":
                counts["report.bytes"] += len(_report_json(stdout).encode())
                counts["report.count"] += 1
            if verb == "plotdata":
                counts["windows"] += 1
                counts["accepted"] += 1
            if args[1] == CSV:
                counts["wide.cells"] += self.cycle.n_cells
                counts["wide.dropped"] += self.cycle.n_dropped
                counts["wide.tables"] += 1
        return None


def setup(ctx):
    ctx.work_dir.mkdir(parents=True, exist_ok=True)
    cycle = Cycle(ctx)
    # warm-up: fills the file cache and writes bytecode caches
    subprocess.run([ctx.python, "-m", "hypergrowth.cli", *cycle.commands[0][2]],
                   cwd=ctx.root, env=ctx.env, capture_output=True, check=True)
    ops = [CliOp(cycle, i) for i in range(len(cycle.commands))]
    table = _read_table(ctx.root / CSV)
    with (ctx.root / CSV).open(encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    n_years = len(header) - 1
    n_points = [len(_preset_points(table, p)) for p in ROWS]
    props = {
        "rows": len(table),
        "year_columns": n_years,
        "blank_frac": 1.0 - sum(len(r) for r in table.values()) / (n_years * len(table)),
        "points_per_series": sum(n_points) / len(n_points),
        "windows_per_row": 0,
    }
    return Workload(ops, props, cycle.prepare, startup_yardstick(ctx.python, ctx.root, ctx.env),
                    len(ops), trace_ops=lambda: [ReplayOp(cycle)])
