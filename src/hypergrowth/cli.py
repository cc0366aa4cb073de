"""Command-line surface.

Three commands: ``analyze`` runs the full pipeline on a wide CSV and
emits a machine report plus a human summary, ``plotdata`` emits two
plot-ready tables (semilog GDP and reciprocal displays), ``simulate``
generates synthetic series for round-trip checks.

Exit codes: 0 ok, 2 input parsing or command-line usage, 3 fitting,
4 window/preset selection, 5 internal. Every failure prints a one-line
diagnostic naming the offending input element; stack traces never reach
the user.
"""

from __future__ import annotations

import math
import pathlib

import click

from .errors import (
    DataError,
    FitError,
    HypergrowthError,
    ModelSpecError,
    ParseError,
    TooFewPointsError,
    UnknownPresetError,
    WindowError,
)
from .fitting import fit_hyperbolic
from .ingest import (
    aggregate,
    parse_long_csv,
    parse_preset_overrides,
    parse_wide_csv,
    preset_catalog,
)
from .report import (
    analyze_series,
    file_digest,
    gdp_plot_table,
    human_summary,
    reciprocal_plot_table,
)
from .series import GrowthSeries, Window
from .synthetic import KINDS, ModelSpec, generate

EXIT_PARSE = 2
EXIT_FIT = 3
EXIT_WINDOW = 4
EXIT_INTERNAL = 5

# --years START:STOP:STEP may not take more steps than this.
MAX_SAMPLE_YEARS = 100_000


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    raise SystemExit(code)


def _write(path, text: str) -> None:
    try:
        pathlib.Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        _fail(EXIT_PARSE, f"cannot write {path}: {exc.strerror or exc}")


def _out_of_range(label: str) -> None:
    _fail(EXIT_PARSE, f"series {label!r}: values too extreme for float arithmetic")


def _parse_window(spec: str, flag: str) -> Window:
    try:
        t0, _, t1 = spec.partition(":")
        return Window(float(t0), float(t1))
    except (ValueError, TypeError):
        _fail(EXIT_WINDOW, f"{flag} must look like T0:T1 with T0 < T1, got {spec!r}")


def _parse_year_list(spec: str, flag: str) -> tuple[float, ...]:
    try:
        years = tuple(float(x) for x in spec.split(",") if x.strip())
    except ValueError:
        _fail(EXIT_WINDOW, f"{flag} must be a comma-separated year list, got {spec!r}")
    if not years:
        _fail(EXIT_WINDOW, f"{flag} must name at least one year")
    return years


def _load_series(
    input_path: str,
    preset: str | None,
    members: str | None,
    long_format: bool,
    label: str | None,
    preset_config: str | None,
) -> tuple[GrowthSeries, str]:
    """Read the input file and build the selected series. Returns (series, sha256)."""
    path = pathlib.Path(input_path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        _fail(EXIT_PARSE, f"cannot read {input_path}: {exc.strerror or exc}")
    digest = file_digest(raw)
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError:
        _fail(EXIT_PARSE, f"{input_path} is not UTF-8 text")

    if long_format:
        try:
            series = parse_long_csv(text, label=label or path.stem)
        except DataError as exc:
            _fail(EXIT_PARSE, str(exc))
        return series, digest

    try:
        dataset = parse_wide_csv(text)
    except ParseError as exc:
        _fail(EXIT_PARSE, str(exc))

    overrides = None
    if preset_config:
        try:
            overrides = parse_preset_overrides(
                pathlib.Path(preset_config).read_text(encoding="utf-8")
            )
        except OSError as exc:
            _fail(EXIT_PARSE, f"cannot read {preset_config}: {exc.strerror or exc}")
        except ParseError as exc:
            _fail(EXIT_PARSE, str(exc))

    try:
        if members:
            member_labels = tuple(m.strip() for m in members.split(",") if m.strip())
            if not member_labels:
                raise UnknownPresetError("--members lists no usable labels")
            catalog = preset_catalog(
                {**(overrides or {}), "custom": member_labels}
            )
            chosen = next(p for p in catalog if p.name == "custom")
        else:
            name = preset or "W12"
            catalog = preset_catalog(overrides)
            try:
                chosen = next(p for p in catalog if p.name == name)
            except StopIteration:
                raise UnknownPresetError(
                    f"unknown preset {name!r}; available: "
                    + ", ".join(p.name for p in catalog)
                ) from None
        series = aggregate(dataset, chosen)
    except (WindowError, TooFewPointsError) as exc:
        _fail(EXIT_WINDOW, str(exc))
    return series, digest


# click >= 8.2 raises this usage error for a bare command; it prints the help
_HELP_ERRORS = getattr(click.exceptions, "NoArgsIsHelpError", ())


def _show_on_one_line(exc: click.UsageError) -> None:
    """Make ``exc`` print as one ``error:`` line instead of click's usage block.

    Only the display changes: with ``standalone_mode=False`` the caller
    gets the same exception, with the same type and message.
    """
    if isinstance(exc, _HELP_ERRORS):
        return
    # some messages list choices on lines of their own
    message = " ".join(exc.format_message().split())
    exc.show = lambda file=None: click.echo(f"error: {message}", file=file, err=True)


class _Group(click.Group):
    """Group whose usage errors (a flag value of the wrong type, an unknown
    option or command, a missing argument) print one ``error:`` line, exit 2."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            _show_on_one_line(exc)
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _show_on_one_line(exc)
            raise


@click.group(cls=_Group)
def main() -> None:
    """Hyperbolic growth analysis of sparse historical GDP series."""


@main.command()
@click.argument("input_path", metavar="INPUT_CSV")
@click.option("--preset", default=None, help="Built-in region preset (default W12).")
@click.option("--members", default=None, help="Comma-separated row labels to sum.")
@click.option("--long", "long_format", is_flag=True,
              help="Input is a year,value file with values in billions.")
@click.option("--label", default=None, help="Series label for --long input.")
@click.option("--window", "window_spec", default="1500:1900", show_default=True,
              help="Fit window T0:T1.")
@click.option("--kappa", type=float, default=3.0, show_default=True,
              help="Exceedance threshold in rmse units.")
@click.option("--boundaries", default="1750,1870", show_default=True,
              help="Segment boundaries, comma-separated years.")
@click.option("--probe-years", default="1,1000", show_default=True,
              help="Years at which to report percent deviation.")
@click.option("--takeoff-window", default="1760:1840", show_default=True)
@click.option("--stagnation-window", default="1:1750", show_default=True)
@click.option("--preset-config", default=None,
              help="key=value file overriding preset row labels.")
@click.option("--format", "fmt", type=click.Choice(["json", "kv"]), default="json",
              show_default=True, help="Machine report format.")
@click.option("-o", "--output", default=None,
              help="Write the machine report to this path.")
def analyze(
    input_path, preset, members, long_format, label, window_spec, kappa,
    boundaries, probe_years, takeoff_window, stagnation_window,
    preset_config, fmt, output,
) -> None:
    """Fit INPUT_CSV and run diversion, takeoff, stagnation and segment tests."""
    if not 0.0 < kappa < math.inf:
        _fail(EXIT_WINDOW, f"--kappa must be a finite number > 0, got {kappa!r}")
    fit_window = _parse_window(window_spec, "--window")
    takeoff_w = _parse_window(takeoff_window, "--takeoff-window")
    stagnation_w = _parse_window(stagnation_window, "--stagnation-window")
    boundary_years = _parse_year_list(boundaries, "--boundaries")
    probes = _parse_year_list(probe_years, "--probe-years")

    series, digest = _load_series(
        input_path, preset, members, long_format, label, preset_config
    )
    try:
        report = analyze_series(
            series,
            fit_window=fit_window,
            kappa=kappa,
            boundaries=boundary_years,
            probe_years=probes,
            takeoff_window=takeoff_w,
            stagnation_window=stagnation_w,
            input_path=str(input_path),
            input_sha256=digest,
        )
        rendered = report.to_json() if fmt == "json" else report.to_kv()
    except FitError as exc:
        _fail(EXIT_FIT, str(exc))
    except HypergrowthError as exc:
        _fail(EXIT_INTERNAL, str(exc))
    except (ArithmeticError, ValueError):  # the renderers refuse nan and infinity
        _out_of_range(series.label)

    if output:
        _write(output, rendered)
    click.echo(human_summary(report), nl=False)
    if not output:
        click.echo(rendered, nl=False)


@main.command()
@click.argument("input_path", metavar="INPUT_CSV")
@click.option("--preset", default=None, help="Built-in region preset (default W12).")
@click.option("--members", default=None, help="Comma-separated row labels to sum.")
@click.option("--long", "long_format", is_flag=True)
@click.option("--label", default=None)
@click.option("--window", "window_spec", default="1500:1900", show_default=True)
@click.option("--preset-config", default=None)
@click.option("--out-prefix", default="plot", show_default=True,
              help="Writes <prefix>_gdp.csv and <prefix>_reciprocal.csv.")
def plotdata(
    input_path, preset, members, long_format, label, window_spec,
    preset_config, out_prefix,
) -> None:
    """Emit plot-ready tables for the semilog GDP and reciprocal displays."""
    fit_window = _parse_window(window_spec, "--window")
    series, _ = _load_series(
        input_path, preset, members, long_format, label, preset_config
    )
    try:
        fit = fit_hyperbolic(series, fit_window)
        tables = (
            ("gdp", gdp_plot_table(fit, series)),
            ("reciprocal", reciprocal_plot_table(fit, series)),
        )
    except FitError as exc:
        _fail(EXIT_FIT, str(exc))
    except ArithmeticError:
        _out_of_range(series.label)
    if not all(math.isfinite(v) for _, table in tables for _, _, v in table):
        _out_of_range(series.label)

    for suffix, table in tables:
        path = pathlib.Path(f"{out_prefix}_{suffix}.csv")
        lines = ["series,year,value"]
        lines += [
            f"{tag},{float(year)!r},{float(value)!r}" for tag, year, value in table
        ]
        _write(path, "\n".join(lines) + "\n")
        click.echo(f"wrote {path}")


@main.command()
@click.option("--kind", type=click.Choice(list(KINDS)), required=True)
@click.option("--a", "a_param", type=float, default=None, help="hyperbolic intercept")
@click.option("--k", "k_param", type=float, default=None, help="hyperbolic slope")
@click.option("--s0", type=float, default=None, help="exponential/logistic start value")
@click.option("--r", "r_param", type=float, default=None, help="growth rate")
@click.option("--cap", type=float, default=None, help="logistic ceiling")
@click.option("--mean", type=float, default=None, help="stagnation mean level")
@click.option("--amplitude", type=float, default=None, help="stagnation oscillation amplitude")
@click.option("--period", type=float, default=None, help="stagnation oscillation period, years")
@click.option("--years", required=True,
              help="Sample years: comma list (1,1000,1500) or range START:STOP:STEP.")
@click.option("--sigma", type=float, default=0.0, show_default=True,
              help="Multiplicative lognormal noise scale.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("-o", "--output", default="-", help="Output CSV path, '-' for stdout.")
def simulate(
    kind, a_param, k_param, s0, r_param, cap, mean, amplitude, period,
    years, sigma, seed, output,
) -> None:
    """Generate a synthetic year,value series (values in billions)."""
    if ":" in years:
        try:
            start, stop, step = (float(x) for x in years.split(":"))
        except ValueError:
            _fail(EXIT_PARSE, f"--years range must be START:STOP:STEP, got {years!r}")
        if not (
            0.0 < step < math.inf
            and -math.inf < start < stop
            and (stop - start) / step < MAX_SAMPLE_YEARS
        ):
            _fail(EXIT_PARSE, "--years range needs finite STOP > START, STEP > 0 "
                  f"and fewer than {MAX_SAMPLE_YEARS} steps")
        count = int((stop - start + 1e-9) // step) + 1
        sample_years = tuple(round(start + i * step, 9) for i in range(count))
    else:
        sample_years = _parse_year_list(years, "--years")

    provided = {
        "a": a_param, "k": k_param, "s0": s0, "r": r_param,
        "cap": cap, "mean": mean, "amplitude": amplitude, "period": period,
    }
    params = {name: value for name, value in provided.items() if value is not None}
    try:
        spec = ModelSpec(
            kind=kind, params=params, sample_years=sample_years,
            sigma=sigma, seed=seed,
        )
        series = generate(spec)
    except (ModelSpecError, DataError) as exc:
        _fail(EXIT_PARSE, str(exc))
    except FitError as exc:
        _fail(EXIT_FIT, str(exc))

    lines = ["year,value"]
    lines += [f"{y!r},{v!r}" for y, v in series.points]
    text = "\n".join(lines) + "\n"
    if output == "-":
        click.echo(text, nl=False)
    else:
        _write(output, text)


if __name__ == "__main__":
    main()
