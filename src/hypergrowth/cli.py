"""Command-line surface.

Three commands: ``analyze`` runs the full pipeline on a wide CSV and
emits a machine report plus a human summary, ``plotdata`` emits two
plot-ready tables (semilog GDP and reciprocal displays), ``simulate``
generates synthetic series for round-trip checks. Each command imports
the modules it runs when it runs; the parser's defaults come from the
package, so building it loads no analysis module.

Exit codes: 0 ok, 2 input parsing or command-line usage, 3 fitting,
4 window/preset selection, 5 internal. The CLI's own checks (usage,
files, window and year flags) raise the library's error families too,
and ``main`` alone turns any of them into its ``error:`` line and exits
with the family's ``exit_code`` (see ``hypergrowth.errors``). Every
failure prints a one-line diagnostic naming the offending input element;
stack traces never reach the user.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import pathlib
import re
import sys

from . import (
    DEFAULT_FIT_WINDOW,
    DEFAULT_KAPPA,
    DEFAULT_PROBE_YEARS,
    DEFAULT_SEGMENT_BOUNDARIES,
    DEFAULT_STAGNATION_WINDOW,
    DEFAULT_TAKEOFF_WINDOW,
    KINDS,
)
from .errors import (
    DataError,
    HypergrowthError,
    PresetDefinitionError,
    UnknownPresetError,
    WindowError,
)
from .series import GrowthSeries, Window

# --years START:STOP:STEP may not take more steps than this.
MAX_SAMPLE_YEARS = 100_000


def _fail(code: int, message: str) -> None:
    try:
        if sys.stderr is not None:  # None when fd 2 was closed at start-up
            print(f"error: {message}", file=sys.stderr, flush=True)
    except OSError:
        # stderr is closed: keep the exit code, and point it at devnull so the
        # flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    raise SystemExit(code)


def _write(path, text: str) -> None:
    try:
        pathlib.Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None


def _parse_window(spec: str, flag: str) -> Window:
    try:
        t0, _, t1 = spec.partition(":")
        bounds = float(t0), float(t1)
        if all(map(math.isfinite, bounds)):
            return Window(*bounds)
    except ValueError:  # also WindowOrderError, for T0 >= T1
        pass
    raise WindowError(f"{flag} must look like T0:T1 with finite T0 < T1, got {spec!r}")


def _spell_window(w: Window) -> str:
    return f"{w.t0:g}:{w.t1:g}"


def _spell_years(years: tuple[float, ...]) -> str:
    return ",".join(f"{t:g}" for t in years)


def _parse_year_list(spec: str, flag: str) -> tuple[float, ...]:
    try:
        years = tuple(float(x) for x in spec.split(",") if x.strip())
    except ValueError:
        years = ()
    if not years or not all(map(math.isfinite, years)):
        raise WindowError(f"{flag} must list one or more finite years, got {spec!r}")
    return years


def _read(path: str) -> tuple[bytes, str]:
    """Raw bytes and UTF-8 text (a leading BOM dropped) of a user file."""
    try:
        raw = pathlib.Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        return raw, raw.decode("utf-8-sig")
    except UnicodeDecodeError:
        raise DataError(f"{path} is not UTF-8 text") from None


def _load_series(
    input_path: str,
    preset: str | None,
    members: str | None,
    long_format: bool,
    label: str | None,
    preset_config: str | None,
) -> tuple[GrowthSeries, bytes]:
    """Read the input file and build the selected series. Returns (series, raw bytes)."""
    from .ingest import (
        aggregate, parse_long_csv, parse_preset_overrides, parse_wide_csv, preset_catalog,
    )

    raw, text = _read(input_path)
    if long_format:
        return parse_long_csv(text, label=label or pathlib.Path(input_path).stem), raw

    dataset = parse_wide_csv(text)
    overrides = parse_preset_overrides(_read(preset_config)[1]) if preset_config else {}
    name = "W12" if preset is None else preset
    if members is not None:
        name = "custom"
        labels = tuple(m.strip() for m in members.split(",") if m.strip())
        if not labels:
            raise UnknownPresetError("--members lists no usable labels")
        for i, member in enumerate(labels):  # named here, not as the internal preset
            if member in labels[:i]:
                raise PresetDefinitionError(
                    f"--members: member {member!r} is listed more than once")
        overrides[name] = labels
    catalog = {p.name: p for p in preset_catalog(overrides)}
    if name not in catalog:
        raise UnknownPresetError(
            f"unknown preset {name!r}; available: " + ", ".join(catalog)
        )
    return aggregate(dataset, catalog[name]), raw


def analyze(
    input_path, preset, members, long_format, label, window_spec, kappa,
    boundaries, probe_years, takeoff_window, stagnation_window,
    preset_config, fmt, output,
) -> None:
    """Fit INPUT_CSV and run diversion, takeoff, stagnation and segment tests."""
    from .report import analyze_series, file_digest, human_summary

    if not 0.0 < kappa < math.inf:
        raise WindowError(f"--kappa must be a finite number > 0, got {kappa!r}")
    fit_window = _parse_window(window_spec, "--window")
    takeoff_w = _parse_window(takeoff_window, "--takeoff-window")
    stagnation_w = _parse_window(stagnation_window, "--stagnation-window")
    boundary_years = _parse_year_list(boundaries, "--boundaries")
    probes = _parse_year_list(probe_years, "--probe-years")

    series, raw = _load_series(
        input_path, preset, members, long_format, label, preset_config
    )
    report = analyze_series(
        series,
        fit_window=fit_window,
        kappa=kappa,
        boundaries=boundary_years,
        probe_years=probes,
        takeoff_window=takeoff_w,
        stagnation_window=stagnation_w,
        input_path=str(input_path),
        input_sha256=file_digest(raw),
    )
    rendered = report.to_json() if fmt == "json" else report.to_kv()

    if output:
        _write(output, rendered)
    sys.stdout.write(human_summary(report))
    if not output:
        sys.stdout.write(rendered)


def plotdata(
    input_path, preset, members, long_format, label, window_spec,
    preset_config, out_prefix,
) -> None:
    """Emit plot-ready tables for the semilog GDP and reciprocal displays."""
    from .report import plot_tables

    fit_window = _parse_window(window_spec, "--window")
    series, _ = _load_series(
        input_path, preset, members, long_format, label, preset_config
    )
    for suffix, table in plot_tables(series, fit_window):
        path = pathlib.Path(f"{out_prefix}_{suffix}.csv")
        lines = ["series,year,value"]
        lines += [
            f"{tag},{float(year)!r},{float(value)!r}" for tag, year, value in table
        ]
        _write(path, "\n".join(lines) + "\n")
        print(f"wrote {path}")


def simulate(kind, years, sigma, seed, output, **params) -> None:
    """Generate a synthetic year,value series (values in billions)."""
    from .synthetic import ModelSpec, generate  # only this command needs the generators

    if ":" in years:
        try:
            start, stop, step = (float(x) for x in years.split(":"))
        except ValueError:
            raise DataError(f"--years range must be START:STOP:STEP, got {years!r}") from None
        # exact steps: no year past STOP, none repeated
        from decimal import Decimal, InvalidOperation
        count = 0  # the number of years built; 0 refuses the range
        if 0.0 < step < math.inf and -math.inf < start < stop < math.inf:
            start, stop, step = map(Decimal, years.split(":"))
            with contextlib.suppress(InvalidOperation):  # a quotient of 28 digits or more
                count = int((stop - start) // step) + 1
        if not 0 < count <= MAX_SAMPLE_YEARS:  # so fewer than MAX_SAMPLE_YEARS steps
            raise DataError("--years range needs finite STOP > START, STEP > 0 "
                            f"and fewer than {MAX_SAMPLE_YEARS} steps")
        sample_years = tuple(float(start + i * step) for i in range(count))
    else:
        sample_years = _parse_year_list(years, "--years")

    params = {name: value for name, value in params.items() if value is not None}
    spec = ModelSpec(
        kind=kind, params=params, sample_years=sample_years, sigma=sigma, seed=seed,
    )
    series = generate(spec)

    lines = ["year,value"]
    lines += [f"{y!r},{v!r}" for y, v in zip(series.years, series.values)]
    text = "\n".join(lines) + "\n"
    if output == "-":
        sys.stdout.write(text)
    else:
        _write(output, text)


class _Parser(argparse.ArgumentParser):
    """Usage errors print one ``error:`` line, exit 2; command parsers share the class."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)
        # argparse takes only -1 and -.5 as values, not options; widen that to
        # --window -500:1900, --kappa -1e-5, --years -1000,0,1000 and -inf
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.I)

    def error(self, message: str) -> None:
        raise DataError(" ".join(message.split()))  # an argument may hold a newline


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hypergrowth",
                     description="Hyperbolic growth analysis of sparse historical GDP series.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run, *parents) -> argparse.ArgumentParser:
        cmd = commands.add_parser(run.__name__, parents=parents, help=run.__doc__,
                                  description=run.__doc__)
        cmd.set_defaults(run=run)
        return cmd

    source = argparse.ArgumentParser(add_help=False)  # input flags of analyze and plotdata
    source.add_argument("input_path", metavar="INPUT_CSV")
    rows = source.add_mutually_exclusive_group()
    rows.add_argument("--preset", help="Built-in region preset (default W12).")
    rows.add_argument("--members", help="Comma-separated row labels to sum.")
    source.add_argument("--long", dest="long_format", action="store_true",
                        help="Input is a year,value file with values in billions.")
    source.add_argument("--label", help="Series label for --long input.")
    source.add_argument("--window", dest="window_spec", metavar="T0:T1",
                        default=_spell_window(DEFAULT_FIT_WINDOW),
                        help="Fit window (default: %(default)s).")
    source.add_argument("--preset-config", help="key=value file overriding preset row labels.")

    cmd = command(analyze, source)
    cmd.add_argument("--kappa", type=float, default=DEFAULT_KAPPA,
                     help="Exceedance threshold in rmse units (default: %(default)s).")
    cmd.add_argument("--boundaries", default=_spell_years(DEFAULT_SEGMENT_BOUNDARIES),
                     help="Segment boundaries, comma-separated years (default: %(default)s).")
    cmd.add_argument("--probe-years", default=_spell_years(DEFAULT_PROBE_YEARS),
                     help="Years at which to report percent deviation (default: %(default)s).")
    cmd.add_argument("--takeoff-window", metavar="T0:T1",
                     default=_spell_window(DEFAULT_TAKEOFF_WINDOW),
                     help="Takeoff scan window (default: %(default)s).")
    cmd.add_argument("--stagnation-window", metavar="T0:T1",
                     default=_spell_window(DEFAULT_STAGNATION_WINDOW),
                     help="Stagnation test window (default: %(default)s).")
    cmd.add_argument("--format", dest="fmt", choices=("json", "kv"), default="json",
                     help="Machine report format (default: %(default)s).")
    cmd.add_argument("-o", "--output", help="Write the machine report to this path.")

    cmd = command(plotdata, source)
    cmd.add_argument("--out-prefix", default="plot", help="Writes <prefix>_gdp.csv and "
                     "<prefix>_reciprocal.csv (default: %(default)s).")

    cmd = command(simulate)
    cmd.add_argument("--kind", choices=KINDS, required=True)
    for flag, text in (
        ("--a", "hyperbolic intercept"), ("--k", "hyperbolic slope"),
        ("--s0", "exponential/logistic start value"), ("--r", "growth rate"),
        ("--cap", "logistic ceiling"), ("--mean", "stagnation mean level"),
        ("--amplitude", "stagnation oscillation amplitude"),
        ("--period", "stagnation oscillation period, years"),
    ):
        cmd.add_argument(flag, type=float, metavar="FLOAT", help=text)
    cmd.add_argument("--years", required=True,
                     help="Sample years: comma list (1,1000,1500) or range START:STOP:STEP.")
    cmd.add_argument("--sigma", type=float, default=0.0,
                     help="Multiplicative lognormal noise scale (default: %(default)s).")
    cmd.add_argument("--seed", type=int, default=0, help="Noise seed (default: %(default)s).")
    cmd.add_argument("-o", "--output", default="-", help="Output CSV path, '-' for stdout.")
    return parser


def main(argv: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Run one command line; a failure prints one ``error:`` line, raises SystemExit."""
    # standalone_mode is ignored: callers written for the earlier entry point pass it
    try:
        args = vars(_parser().parse_args(argv))
        # usage errors, refused before any other check: a flag is never dropped silently
        if args.get("long_format"):
            flags = [f"--{name.replace('_', '-')}"
                     for name in ("preset", "members", "preset_config") if args[name] is not None]
            if flags:
                raise DataError(
                    f"--long reads a year,value file; it takes no {' or '.join(flags)}")
        elif args.get("label") is not None:
            raise DataError("--label names the series of a --long file; it needs --long")
        for flag, what in (("preset", "a preset name"), ("label", "a series name")):
            if args.get(flag) == "":
                raise DataError(f"--{flag} needs {what}, got ''")
        args.pop("run")(**args)
        sys.stdout.flush()  # buffered output meets a closed pipe here, not at exit
    except HypergrowthError as exc:
        _fail(exc.exit_code, str(exc))
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull, so the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        exc = DataError("cannot write standard output: broken pipe")
        _fail(exc.exit_code, str(exc))


if __name__ == "__main__":
    main()
