import ast
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypergrowth
from hypergrowth import cli, errors, report
from hypergrowth.cli import _parser, main
from hypergrowth.ingest import W12_MEMBERS

W12_A, W12_K = 1.147e-1, 5.961e-5


def run(runner, *args):
    return runner(args, catch_exceptions=False)


class TestAnalyze:
    def test_w12_defaults(self, runner, europe_csv_path, tmp_path):
        out = tmp_path / "report.json"
        result = run(runner, "analyze", str(europe_csv_path), "--preset", "W12",
                     "-o", str(out))
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert abs(report["fit"]["a"] / W12_A - 1) <= 0.05
        assert abs(report["fit"]["k"] / W12_K - 1) <= 0.05
        assert report["diversion"]["direction"] == "slower"
        assert "singularity year" in result.output

    def test_ee_singularity_in_expected_band(self, runner, europe_csv_path, tmp_path):
        out = tmp_path / "report.json"
        result = run(runner, "analyze", str(europe_csv_path), "--preset", "EE",
                     "-o", str(out))
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert 1911 <= report["fit"]["singularity_year"] <= 1919

    def test_members_flag(self, runner, europe_csv_path, tmp_path):
        reports = []
        # the parser strips each label and drops empty items
        for i, members in enumerate(["France,United Kingdom", " France , ,United Kingdom "]):
            out = tmp_path / f"report{i}.json"
            result = run(runner, "analyze", str(europe_csv_path), "--members", members,
                         "-o", str(out))
            assert result.exit_code == 0, result.output
            reports.append(out.read_bytes())
        assert json.loads(reports[0])["series"]["label"] == "custom"
        assert reports[1] == reports[0]

    @pytest.mark.parametrize("spec, labels", [
        (" France , ,United Kingdom ", ("France", "United Kingdom")),
        ("", ()),
        (" , ", ()),
    ])
    def test_members_flag_becomes_its_labels(self, spec, labels):
        # never raises: _load_series refuses an empty tuple, after the table is read
        assert cli._parse_members(spec) == labels

    def test_label_names_a_members_series(self, runner, europe_csv_path, tmp_path):
        out = tmp_path / "report.json"
        result = run(runner, "analyze", str(europe_csv_path),
                     "--members", "Total Eastern Europe", "--label", "W30", "-o", str(out))
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        # the label names the series; the rows are still the Eastern Europe total's
        assert report["series"]["label"] == "W30"
        assert report["series"]["n_points"] == 35  # the W30 preset has 37
        assert 1911 <= report["fit"]["singularity_year"] <= 1919

    def test_label_renames_a_preset_series(self, runner, europe_csv_path, tmp_path):
        reports = {}
        for name, flags in (("W30", []), ("Foo", ["--label", "Foo"])):
            out = tmp_path / f"{name}.json"
            result = run(runner, "analyze", str(europe_csv_path), "--preset", "W30", *flags,
                         "-o", str(out))
            assert result.exit_code == 0, result.output
            reports[name] = json.loads(out.read_text())
        assert reports["Foo"]["series"].pop("label") == "Foo"
        assert reports["W30"]["series"].pop("label") == "W30"
        assert reports["Foo"] == reports["W30"]

    def test_kv_format(self, runner, europe_csv_path, tmp_path):
        out = tmp_path / "report.kv"
        result = run(runner, "analyze", str(europe_csv_path), "--preset", "W12",
                     "--format", "kv", "-o", str(out))
        assert result.exit_code == 0
        assert any(line.startswith("fit.a=") for line in out.read_text().splitlines())

    def test_byte_identical_reports(self, runner, europe_csv_path, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            result = run(runner, "analyze", str(europe_csv_path), "--preset", "W30",
                         "-o", str(out))
            assert result.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_repeated_boundary_gives_the_same_segments(self, runner, europe_csv_path,
                                                       tmp_path):
        sections = []
        for spec in ("1750,1870", "1750,1750,1870"):
            out = tmp_path / f"{spec}.json"
            result = run(runner, "analyze", str(europe_csv_path), "--boundaries", spec,
                         "-o", str(out))
            assert result.exit_code == 0, result.output
            sections.append(json.loads(out.read_text())["segments"])
        assert "verdict" in sections[0]
        assert sections[1] == sections[0]

    def test_near_flat_stagnation_line_is_never_worse_than_the_mean(self, runner,
                                                                    tmp_path):
        # symmetric values, the last nudged by 23 ulps: the line explains less than
        # an ulp of the variance, and both rmse values come from one fit
        path = write_long(tmp_path, [(1, "0.9930178432893716"), (11, "0.9992193598750976"),
                                     (21, "0.9992193598750976"), (31, "0.9930178432893741")])
        out = tmp_path / "report.json"
        result = run(runner, "analyze", path, "--long", "--window", "1:31",
                     "--stagnation-window", "0:40", "-o", str(out))
        assert result.exit_code == 0, result.output
        stagnation = json.loads(out.read_text())["stagnation"]
        assert stagnation["rmse_hyperbolic_model"] <= stagnation["rmse_constant_model"]

    def test_exact_segment_break_has_an_infinite_z(self, runner, tmp_path):
        # reciprocals on a line of slope 5e-5 up to 1750 and 1e-4 after it: each
        # segment fits exactly (se 0) with its own slope, so the break is certain
        path = write_long(tmp_path, [
            (t, 1 / (0.2 - 5e-5 * min(t, 1750) - 1e-4 * max(t - 1750, 0)))
            for t in range(1500, 1901, 25)
        ])
        reports = {}
        for fmt in ("json", "kv"):
            out = tmp_path / f"report.{fmt}"
            result = run(runner, "analyze", path, "--long", "--boundaries", "1750",
                         "--format", fmt, "-o", str(out))
            assert result.exit_code == 0, result.output
            reports[fmt] = out.read_text()
        segments = json.loads(reports["json"])["segments"]
        assert [s["se"] for s in segments["segments"]] == [0.0, 0.0]
        assert segments["z_scores"] == [{"left": 0, "right": 1, "z": "inf"}]
        assert segments["verdict"] == "segmented"
        kv = reports["kv"].splitlines()
        assert 'segments.z_scores[0].z="inf"' in kv
        assert 'segments.verdict="segmented"' in kv

    @pytest.mark.parametrize("values, fit_a", [
        # reciprocals 1e100 to 1e-90: their scaled squares overflow a float
        ("1e-100,1e-50,1,1e50,1e90", "3.599999999999999e+100"),
        # reciprocals near 1e-155: the centred sum of their squares is subnormal
        ("1e155,1.1e155,1.3e155,1.6e155,2e155", "2.943618881118881e-155"),
    ])
    def test_extreme_values_fit_to_their_correctly_rounded_line(self, runner, tmp_path,
                                                                values, fit_a):
        path = write_long(tmp_path, zip(range(1500, 1901, 100), values.split(",")))
        out = tmp_path / "report.kv"
        result = run(runner, "analyze", path, "--long", "--format", "kv", "-o", str(out))
        assert result.exit_code == 0, result.output
        assert f"fit.a={fit_a}" in out.read_text().splitlines()


REPO_ROOT = pathlib.Path(__file__).parents[1]
GOLDEN_DIR = REPO_ROOT / "tests" / "data" / "golden"


def assert_matches_golden(got, want, where="report"):
    """Same tree, key order and types; floats to a relative 1e-12, the rest exactly.

    The tolerance absorbs last-digit libm differences across platforms.
    """
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_matches_golden(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches_golden(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (where, got, want)
    else:
        assert got == want, where


class TestGolden:
    @pytest.mark.parametrize("golden, flags", [
        ("analyze_W12.json", ["--preset", "W12"]),
        ("analyze_W30.json", ["--preset", "W30"]),
        ("analyze_EE.json", ["--preset", "EE"]),
        ("analyze_EE_kappa2.5.json", ["--preset", "EE", "--kappa", "2.5"]),
        # a preset's rows under its name, through --members and --label, give its report
        ("analyze_W12.json", ["--members", ",".join(W12_MEMBERS), "--label", "W12"]),
        ("analyze_W30.json", ["--members", "Total 30 Western Europe", "--label", "W30"]),
    ])
    def test_analyze_matches_golden(self, runner, monkeypatch, tmp_path, golden, flags):
        # the report records the input path as given, so run from the repository root
        monkeypatch.chdir(REPO_ROOT)
        out = tmp_path / "report.json"
        result = run(runner, "analyze", "tests/data/europe_gdp_wide.csv", *flags,
                     "-o", str(out))
        assert result.exit_code == 0, result.output
        want = json.loads((GOLDEN_DIR / golden).read_text(encoding="utf-8"))
        assert_matches_golden(json.loads(out.read_text(encoding="utf-8")), want)

    def test_long_series_analyze_matches_golden(self, runner, monkeypatch, tmp_path):
        # 380 points (simulate --years 1,6,...,1896 --sigma 0.05): the fit of 81
        # points and the stagnation test of 350 run in the numpy kernels
        monkeypatch.chdir(REPO_ROOT)
        out = tmp_path / "report.json"
        result = run(runner, "analyze", "tests/data/long_hyperbolic.csv", "--long", "-o", str(out))
        assert result.exit_code == 0, result.output
        want = json.loads((GOLDEN_DIR / "analyze_long.json").read_text(encoding="utf-8"))
        assert_matches_golden(json.loads(out.read_text(encoding="utf-8")), want)

    @pytest.mark.parametrize("prefix, args", [
        ("plot_W30", ["europe_gdp_wide.csv", "--preset", "W30"]),
        ("plot_long", ["long_hyperbolic.csv", "--long"]),
    ])
    def test_plot_tables_match_golden(self, runner, tmp_path, prefix, args):
        # the tables hold no path, and their values come from float arithmetic
        # alone, so they compare byte for byte; CRLF line ends, a trailing blank
        # line and a leading byte-order mark in the input leave them unchanged
        text = (GOLDEN_DIR.parent / args[0]).read_bytes()
        for i, variant in enumerate([text, text.replace(b"\n", b"\r\n"), text + b"\n",
                                     b"\xef\xbb\xbf" + text]):
            out = tmp_path / str(i)
            out.mkdir()
            (out / args[0]).write_bytes(variant)
            result = run(runner, "plotdata", str(out / args[0]), *args[1:],
                         "--out-prefix", str(out / prefix))
            assert result.exit_code == 0, result.output
            for table in ("gdp", "reciprocal"):
                name = f"{prefix}_{table}.csv"
                assert (out / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), (i, name)


class TestExitCodes:
    def test_parse_error_is_2(self, runner, tmp_path):
        # a bad cell of a wide table, an empty --long file, and a --long row after
        # a quoted cell over two lines, named by the line on which it starts
        bad = tmp_path / "bad.csv"
        for text, flags, message in [
            ("Region,1,1000\nX,10,n.a.\n", ["--members", "X"],
             "row 'X', year 1000: cell 'n.a.' is not numeric"),
            ("", ["--long"], "empty input: no header row"),
            ('year,value\n"1500\n",1\n1600,2\nfoo,bar\n', ["--long"],
             "line 5: expected numeric year,value"),
        ]:
            bad.write_text(text)
            result = run(runner, "analyze", str(bad), *flags)
            assert result.exit_code == 2
            assert result.output == f"error: {message}\n"

    def test_missing_file_is_2(self, runner, tmp_path):
        result = run(runner, "analyze", str(tmp_path / "nope.csv"))
        assert result.exit_code == 2

    def test_fit_error_is_3(self, runner, tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("Region,1,1000\nX,10,20\n")
        result = run(runner, "analyze", str(short), "--members", "X")
        assert result.exit_code == 3  # 0 in-window points -> too few to fit
        assert result.output == "error: series 'custom': 0 point(s) in [1500, 1900], need 3\n"

    def test_unknown_preset_is_4(self, runner, europe_csv_path):
        result = run(runner, "analyze", str(europe_csv_path), "--preset", "NOPE")
        assert result.exit_code == 4
        assert "NOPE" in result.output

    def test_unknown_preset_lists_the_built_in_presets(self, runner, europe_csv_path):
        result = run(runner, "analyze", str(europe_csv_path), "--preset", "NOPE")
        assert_one_error_line(result, 4)
        assert result.output.endswith("available: W12, W30, EE\n")

    @pytest.mark.parametrize("flags", [
        ["--preset", "W12"],
        ["--members", "France"],
        ["--preset", ""],
        ["--members", ""],
    ])
    def test_long_with_wide_table_flags_is_2(self, runner, tmp_path, flags):
        # --long, --preset and --members each name the source, so the parser refuses a
        # pair in either order
        path = write_long(tmp_path, GOOD_ROWS)
        for command in (["analyze"], ["plotdata", "--out-prefix", str(tmp_path / "p")]):
            for source in (["--long", *flags], [*flags, "--long"]):
                result = run(runner, *command, path, *source)
                assert_one_error_line(result, 2)
                assert "--long" in result.output and flags[0] in result.output

    def test_members_with_preset_is_2(self, runner, europe_csv_path):
        for flags in (["--members", "France", "--preset", "EE"],
                      ["--preset", "EE", "--members", "France"]):
            result = run(runner, "analyze", str(europe_csv_path), *flags)
            assert_one_error_line(result, 2)
            assert "--members" in result.output and "--preset" in result.output

    def test_members_without_labels_are_4(self, runner, europe_csv_path):
        for members in (" , ", ""):  # an empty --members once meant W12
            result = run(runner, "analyze", str(europe_csv_path), "--members", members)
            assert_one_error_line(result, 4)
            assert "--members lists no usable labels" in result.output

    def test_repeated_member_is_4(self, runner, europe_csv_path):
        result = run(runner, "analyze", str(europe_csv_path),
                     "--members", "Austria,Belgium,Austria")
        assert_one_error_line(result, 4)
        # the message names what the user typed, never the internal preset 'custom'
        assert result.output == "error: --members: member 'Austria' is listed more than once\n"

    @pytest.mark.parametrize("flags, message", [
        (["--preset", ""], "--preset needs a preset name"),
        (["-o", ""], "--output needs a path, got ''"),
    ])
    def test_flags_without_effect_are_2(self, runner, europe_csv_path, tmp_path, flags, message):
        analyze = ["analyze", str(europe_csv_path)]
        other = {  # the other command that takes the flag
            "--preset": ["plotdata", str(europe_csv_path), "--out-prefix", str(tmp_path / "p")],
            "-o": ["simulate", "--kind", "hyperbolic", "--a", "0.1", "--k", "1e-5",
                   "--years", "1,2"],
        }[flags[0]]
        for command in (analyze, other):
            result = run(runner, *command, *flags)
            assert_one_error_line(result, 2)
            assert message in result.output

    def test_empty_label_is_2(self, runner, europe_csv_path, tmp_path):
        # an empty --label was once replaced by the file name without a word
        long_path = write_long(tmp_path, GOOD_ROWS)
        for source in ([long_path, "--long"], [str(europe_csv_path)]):
            for command in (["analyze"], ["plotdata", "--out-prefix", str(tmp_path / "p")]):
                result = run(runner, *command, *source, "--label", "")
                assert_one_error_line(result, 2)
                assert "--label needs a series name, got ''" in result.output

    def test_oversized_field_is_2(self, runner, tmp_path):
        big = "1" * 200_000
        long_path = tmp_path / "big_long.csv"
        long_path.write_text(f"year,value\n{big},5\n1900,6\n")
        wide_path = tmp_path / "big_wide.csv"
        wide_path.write_text(f"Region,1,1000\nX,{big},5\n")
        for args in ([str(long_path), "--long"], [str(wide_path), "--members", "X"]):
            result = run(runner, "analyze", *args)
            assert_one_error_line(result, 2)
            assert "line 2: field larger than field limit" in result.output

    def test_wide_row_longer_than_header_is_2(self, runner, tmp_path):
        wide = tmp_path / "wide.csv"
        wide.write_text("Region,1,1000,1500\nA,10,20,30,40\n")
        result = run(runner, "analyze", str(wide), "--members", "A")
        assert_one_error_line(result, 2)
        assert "row 'A' has 4 value cells, the header has 3 years" in result.output

    def test_unknown_member_is_4(self, runner, europe_csv_path):
        result = run(runner, "analyze", str(europe_csv_path), "--members", "Atlantis")
        assert result.exit_code == 4
        assert "Atlantis" in result.output

    def test_members_without_two_complete_years_are_4(self, runner, tmp_path):
        wide = tmp_path / "wide.csv"
        wide.write_text("Region,1,1000,1500\nA,10,,30\nB,,20,40\n")
        result = run(runner, "analyze", str(wide), "--members", "A,B")
        assert_one_error_line(result, 4)
        assert "only 1 complete year(s)" in result.output

    def test_bad_window_flag_is_4(self, runner, europe_csv_path):
        # an earlier bad value of a repeated flag is refused, not overridden
        for flags in (["--window", "oops"], ["--window", "bad", "--window", "1500:1900"]):
            result = run(runner, "analyze", str(europe_csv_path), *flags)
            assert_one_error_line(result, 4)
            assert result.output.endswith(f"got {flags[1]!r}\n")

    def test_diagnostics_are_one_line(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("Region,1,1000\nX,10,n.a.\n")
        result = run(runner, "analyze", str(bad), "--members", "X")
        assert len([l for l in result.output.splitlines() if l]) == 1
        assert "Traceback" not in result.output

    # the documented code of each family; a class under two takes the first listed
    FAMILY_CODES = [(errors.WindowError, 4), (errors.FitError, 3), (errors.DataError, 2),
                    (errors.ModelSpecError, 2), (errors.HypergrowthError, 5)]

    @pytest.mark.parametrize("cls", [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.HypergrowthError)
    ], ids=lambda c: c.__name__)
    def test_every_error_carries_its_family_code(self, cls):
        assert cls.exit_code == next(
            code for family, code in self.FAMILY_CODES if issubclass(cls, family)
        )

    @pytest.mark.parametrize("error, code", [
        (errors.HypergrowthError("unexpected state"), 5),
        (errors.WindowOrderError("window requires t0 < t1, got [2, 1]"), 4),
        (errors.FitError("no fit on this window"), 3),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
    def test_library_error_from_the_analysis_exits_with_its_code(
        self, runner, europe_csv_path, monkeypatch, error, code
    ):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(report, "analyze_series", fail)
        result = run(runner, "analyze", str(europe_csv_path))
        assert_one_error_line(result, code)
        assert result.output == f"error: {error}\n"

    @pytest.mark.parametrize("helper, args, error, message", [
        ("_parse_window", ["1900:1500", "--window"], errors.WindowError,
         "--window must look like T0:T1 with finite T0 < T1, got '1900:1500'"),
        ("_parse_window", ["1500", "--takeoff-window"], errors.WindowError,
         "--takeoff-window must look like T0:T1 with finite T0 < T1, got '1500'"),
        ("_parse_year_list", ["1,x", "--boundaries"], errors.WindowError,
         "--boundaries must list one or more finite years, got '1,x'"),
        ("_parse_year_list", [" , ", "--probe-years"], errors.WindowError,
         "--probe-years must list one or more finite years, got ' , '"),
        ("_read", ["{tmp}/nope.csv"], errors.DataError,
         "cannot read {tmp}/nope.csv: No such file or directory"),
        ("_read", ["{tmp}/latin1.csv"], errors.DataError, "{tmp}/latin1.csv is not UTF-8 text"),
        ("_write", ["{tmp}/no/x.json", "text"], errors.DataError,
         "cannot write {tmp}/no/x.json: No such file or directory"),
    ])
    def test_cli_checks_raise_their_error_family(self, tmp_path, helper, args, error,
                                                 message):
        # main alone turns an error into its exit code; a helper never exits itself
        (tmp_path / "latin1.csv").write_bytes(b"\xe9")
        with pytest.raises(error) as caught:
            getattr(cli, helper)(*(arg.format(tmp=tmp_path) for arg in args))
        assert type(caught.value) is error
        assert str(caught.value) == message.format(tmp=tmp_path)


class TestPlotdata:
    def test_writes_both_tables(self, runner, europe_csv_path, tmp_path):
        prefix = tmp_path / "w12"
        result = run(runner, "plotdata", str(europe_csv_path), "--preset", "W12",
                     "--out-prefix", str(prefix))
        assert result.exit_code == 0, result.output
        gdp = (tmp_path / "w12_gdp.csv").read_text().splitlines()
        rec = (tmp_path / "w12_reciprocal.csv").read_text().splitlines()
        assert gdp[0] == "series,year,value"
        assert rec[0] == "series,year,value"
        model = [line for line in gdp if line.startswith("model,")]
        fit = [line for line in rec if line.startswith("fit,")]
        assert len(model) >= 200 and len(fit) >= 200

    def test_fit_samples_collinear(self, runner, europe_csv_path, tmp_path):
        prefix = tmp_path / "w30"
        run(runner, "plotdata", str(europe_csv_path), "--preset", "W30",
            "--out-prefix", str(prefix))
        values = [
            float(line.split(",")[2])
            for line in (tmp_path / "w30_reciprocal.csv").read_text().splitlines()
            if line.startswith("fit,")
        ]
        scale = max(abs(v) for v in values)
        second = [abs((c - b) - (b - a)) for a, b, c in zip(values, values[1:], values[2:])]
        assert max(second) <= 1e-12 * scale


class TestSimulate:
    def test_round_trip_recovers_parameters(self, runner, tmp_path):
        sim = tmp_path / "sim.csv"
        result = run(runner, "simulate", "--kind", "hyperbolic",
                     "--a", str(W12_A), "--k", str(W12_K),
                     "--years", "1,1000,1500,1600,1700,1820,1870,1900",
                     "-o", str(sim))
        assert result.exit_code == 0, result.output
        out = tmp_path / "report.json"
        result = run(runner, "analyze", str(sim), "--long", "-o", str(out))
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["fit"]["a"] == pytest.approx(W12_A, rel=1e-10)
        assert report["fit"]["k"] == pytest.approx(W12_K, rel=1e-10)
        # an exact fit leaves only float noise, which has no signs to test
        assert report["stagnation"]["runs_test_z"] == 0.0
        assert report["stagnation"]["n_sign_changes"] == 0

    def test_stagnation_round_trip_verdict(self, runner, tmp_path):
        sim = tmp_path / "stag.csv"
        result = run(runner, "simulate", "--kind", "stagnation",
                     "--mean", "2.0", "--amplitude", "0.3", "--period", "600",
                     "--years", "1500:1900:40", "-o", str(sim))
        assert result.exit_code == 0, result.output
        out = tmp_path / "report.json"
        result = run(runner, "analyze", str(sim), "--long",
                     "--stagnation-window", "1500:1900", "-o", str(out))
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["stagnation"]["verdict"] == "stagnation-consistent"

    @pytest.mark.parametrize("kind, params", [
        ("hyperbolic", {"a": W12_A, "k": W12_K}),
        ("exponential", {"s0": 2.5, "r": 0.003}),
        ("logistic", {"cap": 100.0, "s0": 1.0, "r": 0.01}),
        ("stagnation", {"mean": 10.0, "amplitude": 2.0, "period": 50.0}),
    ])
    def test_each_kind_writes_the_generated_series(self, runner, kind, params):
        from hypergrowth.synthetic import ModelSpec, generate

        years = (1.0, 500.0, 1000.0, 1500.0, 1820.0, 1900.0)
        flags = [item for name, value in params.items() for item in (f"--{name}", repr(value))]
        result = run(runner, "simulate", "--kind", kind, *flags, "--sigma", "0.05",
                     "--seed", "3", "--years", ",".join(map(repr, years)))
        assert result.exit_code == 0, result.output
        s = generate(ModelSpec(kind, params, years, sigma=0.05, seed=3))
        assert result.output == "year,value\n" + "".join(f"{y!r},{v!r}\n" for y, v in s.points)

    def test_help_names_each_model_flag(self, runner, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        result = run(runner, "simulate", "--help")
        assert result.exit_code == 0
        assert ("[--a FLOAT] [--k FLOAT] [--s0 FLOAT] [--r FLOAT] [--cap FLOAT] [--mean FLOAT] "
                "[--amplitude FLOAT] [--period FLOAT]") in " ".join(result.output.split())
        assert [line for line in result.output.splitlines() if line.startswith("  --")
                and " FLOAT " in line] == [
            "  --a FLOAT             hyperbolic intercept",
            "  --k FLOAT             hyperbolic slope",
            "  --s0 FLOAT            exponential/logistic start value",
            "  --r FLOAT             growth rate",
            "  --cap FLOAT           logistic ceiling",
            "  --mean FLOAT          stagnation mean level",
            "  --amplitude FLOAT     stagnation oscillation amplitude",
            "  --period FLOAT        stagnation oscillation period, years",
        ]

    def test_same_seed_byte_identical(self, runner, tmp_path):
        args = ["simulate", "--kind", "hyperbolic", "--a", "1.0", "--k", "0.001",
                "--years", "0,200,400,600", "--sigma", "0.1", "--seed", "7"]
        a = run(runner, *args)
        b = run(runner, *args)
        assert a.exit_code == b.exit_code == 0
        assert a.output == b.output
        # so do fresh processes, whatever their hash seed
        for hash_seed in ("1", "2"):
            proc = subprocess.run([sys.executable, "-m", "hypergrowth.cli", *args],
                                  env=fresh_env(PYTHONHASHSEED=hash_seed),
                                  capture_output=True, check=True)
            assert proc.stdout == a.output.encode()

    def test_invalid_parameter_named(self, runner):
        # a value the kind refuses, and flags of another kind: the first one given is named
        for flags, message in [
            (["--a", "-1.0", "--k", "0.001", "--years", "0,100"],
             "hyperbolic model: parameter a=-1.0 must be positive"),
            (["--a", "0.1", "--k", "1e-5", "--cap", "5", "--r", "3", "--years", "1,2,3"],
             "hyperbolic model: takes no parameter 'cap'"),
            (["--a", "0.1", "--k", "1e-5", "--r", "3", "--cap", "5", "--years", "1,2,3"],
             "hyperbolic model: takes no parameter 'r'"),
        ]:
            result = run(runner, "simulate", "--kind", "hyperbolic", *flags)
            assert result.exit_code == 2
            assert result.output == f"error: {message}\n"

    def test_sample_beyond_singularity_is_fit_error(self, runner):
        result = run(runner, "simulate", "--kind", "hyperbolic",
                     "--a", "1.0", "--k", "0.001", "--years", "0,500,1500")
        assert result.exit_code == 3


def assert_one_error_line(result, code):
    assert result.exit_code == code, result.output
    lines = [line for line in result.output.splitlines() if line.strip()]
    assert len(lines) == 1 and lines[0].startswith("error:"), result.output
    assert "Traceback" not in result.output


def range_years(runner, spec):
    """The years ``simulate --years SPEC`` writes, as printed."""
    result = run(runner, "simulate", "--kind", "stagnation", "--mean", "2",
                 "--amplitude", "0.5", "--period", "100", "--years", spec)
    assert result.exit_code == 0, result.output
    return [line.split(",")[0] for line in result.output.splitlines()[1:]]


def write_long(tmp_path, rows):
    path = tmp_path / "long.csv"
    path.write_text("year,value\n" + "".join(f"{y},{v}\n" for y, v in rows))
    return str(path)


GOOD_ROWS = [(1, 11.0), (1000, 12.0), (1500, 44.0), (1600, 55.0), (1700, 80.0),
             (1820, 160.0), (1870, 300.0), (1900, 600.0), (1913, 700.0)]
# an exact line on 1500-1800 after four tiny values: the default stagnation window
# takes those in, and the squares of their reciprocals overflow its line fit
STAGNATION_OVERFLOW_ROWS = [
    (1, "1e-300"), (2, "2e-300"), (3, "3e-300"), (4, "4e-300"), (1500, "1"),
    (1600, "1.1111111111111112"), (1700, "1.25"), (1800, "1.4")]
# an exact hyperbola on 1500-1900, and a year 1000 whose percent deviation,
# about 1e312, overflows to inf
DEVIATION_OVERFLOW_ROWS = [(1000, "1e300")] + [
    (t, repr(1 / (2e10 - 1e7 * t))) for t in range(1500, 1901, 50)]


class TestContract:
    """Inputs and flag values that once crashed or passed silently."""

    @pytest.mark.parametrize("bad", [("1", "inf"), ("nan", "1")])
    def test_nonfinite_input_is_2(self, runner, tmp_path, bad):
        path = write_long(tmp_path, [bad] + GOOD_ROWS[1:])
        assert_one_error_line(run(runner, "analyze", path, "--long"), 2)

    @pytest.mark.parametrize("kappa", ["nan", "inf", "-5", "0"])
    def test_kappa_must_be_finite_positive(self, runner, europe_csv_path, kappa):
        result = run(runner, "analyze", str(europe_csv_path), "--kappa", kappa)
        assert_one_error_line(result, 4)

    def test_value_overflowing_stagnation_skips_its_section(self, runner, tmp_path):
        path, out = write_long(tmp_path, [(1, "1e-200")] + GOOD_ROWS[1:]), tmp_path / "r.json"
        result = run(runner, "analyze", path, "--long", "-o", str(out))
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["stagnation"] == {"skipped": "values too extreme for float arithmetic"}

    def test_stagnation_test_raising_arithmetic_error_skips_its_section(self, runner,
                                                                       tmp_path):
        from hypergrowth.ingest import parse_long_csv
        from hypergrowth.regimes import stagnation_test

        path, out = write_long(tmp_path, STAGNATION_OVERFLOW_ROWS), tmp_path / "r.json"
        result = run(runner, "analyze", path, "--long", "--window", "1500:1800",
                     "-o", str(out))
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["stagnation"] == {"skipped": "values too extreme for float arithmetic"}
        assert report["fit"]["n_points"] == 4
        # the library function itself still raises
        s = parse_long_csv(pathlib.Path(path).read_text(), label="long")
        with pytest.raises(ArithmeticError):
            stagnation_test(s, hypergrowth.DEFAULT_STAGNATION_WINDOW)

    def test_infinite_deviation_skips_its_entry(self, runner, tmp_path):
        from hypergrowth.fitting import fit_hyperbolic, percent_deviation
        from hypergrowth.ingest import parse_long_csv

        path, out = write_long(tmp_path, DEVIATION_OVERFLOW_ROWS), tmp_path / "r.json"
        result = run(runner, "analyze", path, "--long", "-o", str(out))
        assert result.exit_code == 0, result.output
        assert "deviation @ 1000   n/a" in result.output
        report = json.loads(out.read_text())
        assert report["deviations"][1] == {
            "year": 1000.0, "percent": None,
            "skipped": "percent is inf: values too extreme for float arithmetic"}
        # the library function itself still returns the infinity
        s = parse_long_csv(pathlib.Path(path).read_text(), label="long")
        fit = fit_hyperbolic(s, hypergrowth.DEFAULT_FIT_WINDOW)
        assert percent_deviation(fit, s, 1000.0) == math.inf
        assert report["fit"]["a"] == fit.a and report["fit"]["k"] == fit.k

    def test_unwritable_outputs_are_2(self, runner, europe_csv_path, tmp_path):
        missing = tmp_path / "no" / "such"
        assert_one_error_line(run(runner, "analyze", str(europe_csv_path),
                                  "-o", str(missing / "x.json")), 2)
        assert_one_error_line(run(runner, "plotdata", str(europe_csv_path),
                                  "--out-prefix", str(missing / "p")), 2)
        assert_one_error_line(run(runner, "simulate", "--kind", "hyperbolic",
                                  "--a", "1", "--k", "0.001", "--years", "0,100",
                                  "-o", str(missing / "s.csv")), 2)

    def test_member_sum_beyond_float_range_is_2(self, runner, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("Region,1500,1600,1700,1800,1900\n"
                        "A,1e308,100,200,300,400\nB,1e308,100,200,300,400\n")
        result = run(runner, "analyze", str(path), "--members", "A,B")
        assert_one_error_line(result, 2)
        assert "not finite" in result.output

    def test_simulate_duplicate_years_is_2(self, runner):
        result = run(runner, "simulate", "--kind", "hyperbolic",
                     "--a", "1", "--k", "0.001", "--years", "1,1,500")
        assert_one_error_line(result, 2)

    def test_simulate_overflow_is_2(self, runner):
        # the model's float arithmetic fails at a year: an overflow, and a math
        # domain error (the sine of an infinite angle)
        for args, message in [
            (["--kind", "exponential", "--s0", "1", "--r", "1", "--years", "1,1000"],
             "exponential model fails at sample year 1000: math range error"),
            (["--kind", "stagnation", "--mean", "1", "--amplitude", "0.5",
              "--period", "1e-320", "--years", "1,2,3"],
             "stagnation model fails at sample year 1: math domain error"),
        ]:
            result = run(runner, "simulate", *args)
            assert result.exit_code == 2
            assert result.output == f"error: {message}\n"

    def test_range_years_do_not_accumulate_rounding(self, runner):
        assert range_years(runner, "0:2000:0.1") == [repr(round(i * 0.1, 9))
                                                      for i in range(20001)]
        # START + i * STEP in decimal, rounded once to a float, gives the same
        # years as the float sum rounded to 9 decimals on ranges of such steps
        for spec in ["1500:1900:40", "1000:2000:10", "1:1900:5", "0:0.3:0.1",
                     "-1000:1000:0.7", "1820.5:1900:0.01"]:
            start, stop, step = map(float, spec.split(":"))
            count = int((stop - start + 1e-9) // step) + 1
            assert range_years(runner, spec) == [repr(round(start + i * step, 9))
                                                 for i in range(count)], spec

    @pytest.mark.parametrize("spec, years", [
        ("0:2e-9:5e-10", ["0.0", "5e-10", "1e-09", "1.5e-09", "2e-09"]),
        ("1:1.000000001:2.5e-10",
         ["1.0", "1.00000000025", "1.0000000005", "1.00000000075", "1.000000001"]),
        ("0:1e-9:3e-10", ["0.0", "3e-10", "6e-10", "9e-10"]),
    ])
    def test_range_years_with_small_steps_stop_at_stop(self, runner, spec, years):
        # steps finer than 9 decimals: no year past STOP, none repeated
        assert range_years(runner, spec) == years

    @pytest.mark.parametrize("sigma", [[], ["--sigma", "0.1"]])
    def test_simulate_negative_seed_is_2(self, runner, sigma):
        result = run(runner, "simulate", "--kind", "hyperbolic", "--a", "0.1", "--k", "1e-5",
                     "--years", "1,2,3", "--seed", "-1", *sigma)
        assert_one_error_line(result, 2)
        assert result.output == "error: seed=-1 must be an integer >= 0\n"

    def test_simulate_noise_leaving_float_range_names_sigma(self, runner):
        result = run(runner, "simulate", "--kind", "hyperbolic", "--a", "0.1", "--k", "1e-5",
                     "--years", "1,2,3", "--sigma", "1000", "--seed", "1")
        assert_one_error_line(result, 2)
        assert result.output == ("error: --sigma 1000.0: the noise leaves "
                                 "float range at sample year 3\n")

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-0.1"])
    def test_simulate_sigma_must_be_finite_nonnegative(self, runner, sigma):
        result = run(runner, "simulate", "--kind", "hyperbolic", "--a", "1",
                     "--k", "0.001", "--years", "0,100", "--sigma", sigma)
        assert_one_error_line(result, 2)

    @pytest.mark.parametrize("args", [
        ["analyze", "IN", "--kappa", "abc"],
        ["analyze", "IN", "--format", "xml"],
        ["analyze", "IN", "--bogus"],
        ["analyze"],
        ["simulate", "--kind", "hyperbolic", "--a", "x", "--k", "1", "--years", "0,1"],
        ["simulate", "--kind", "hyperbolic", "--a", "1", "--k", "1", "--years", "0,1",
         "--sigma", "abc"],
        ["simulate", "--kind", "hyperbolic", "--a", "1", "--k", "1", "--years", "0,1",
         "--seed", "1.5"],
        ["simulate", "--years", "0,1"],
        ["nosuchcommand"],
        ["--bogus"],
        [],
        ["analyze", "IN", "--kap", "2"],
    ])
    def test_usage_errors_are_one_line(self, runner, europe_csv_path, args):
        args = [str(europe_csv_path) if a == "IN" else a for a in args]
        assert_one_error_line(run(runner, *args), 2)

    def test_help_lists_options(self, runner, europe_csv_path):
        result = run(runner, "analyze", "--help")
        assert result.exit_code == 0
        usage = result.output.split("\n\n")[0]
        assert usage.startswith("usage: hypergrowth analyze [-h] ")
        assert "INPUT_CSV" in usage and "[--kappa KAPPA]" in usage
        source = "[--preset PRESET | --members MEMBERS | --long]"  # one group, one source
        assert source in usage
        result = run(runner, "plotdata", "--help")
        assert result.exit_code == 0 and source in result.output.split("\n\n")[0]
        result = run(runner, "--help")
        assert result.exit_code == 0
        assert "analyze" in result.output and "simulate" in result.output
        # a library call fails the way the console script does
        with pytest.raises(SystemExit) as stop:
            main(["analyze", str(europe_csv_path), "--kappa", "abc"],
                 standalone_mode=False)
        assert stop.value.code == 2

    @pytest.mark.parametrize("args, code", [
        (["analyze", "IN", "--window", "-500:1900"], 0),
        (["analyze", "IN", "--kappa", "-1e-5"], 4),
        (["simulate", "--kind", "stagnation", "--mean", "2", "--amplitude", "0.3",
          "--period", "600", "--years", "-1000,0,1000"], 0),
        (["simulate", "--kind", "stagnation", "--mean", "2", "--amplitude", "0.3",
          "--period", "600", "--years", "-1e308:1e308:1"], 2),
    ])
    def test_dash_leading_values_stay_values(self, runner, europe_csv_path, args, code):
        args = [str(europe_csv_path) if a == "IN" else a for a in args]
        result = run(runner, *args)
        if code:
            # refused by the flag's own check, not as an unknown option
            assert_one_error_line(result, code)
            assert args[-2] in result.output and "argument" not in result.output
        else:
            assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("command, flag, value", [
        ("analyze", "--window", "1500:inf"),
        ("analyze", "--takeoff-window", "-inf:1840"),
        ("analyze", "--stagnation-window", "1:nan"),
        ("analyze", "--probe-years", "nan"),
        ("analyze", "--probe-years", "1,inf"),
        ("analyze", "--boundaries", "inf"),
        ("plotdata", "--window", "1500:inf"),
        ("simulate", "--years", "0,nan,100"),
    ])
    def test_nonfinite_window_and_year_flags_are_4(
        self, runner, europe_csv_path, tmp_path, command, flag, value
    ):
        args = {
            "analyze": ["analyze", str(europe_csv_path)],
            "plotdata": ["plotdata", str(europe_csv_path),
                         "--out-prefix", str(tmp_path / "p")],
            "simulate": ["simulate", "--kind", "hyperbolic", "--a", "1", "--k", "0.001"],
        }[command]
        result = run(runner, *args, flag, value)
        assert_one_error_line(result, 4)
        assert flag in result.output

    def test_large_series_overflowing_the_fit_is_2(self, runner, tmp_path):
        # more points than SMALL_FIT_MAX, so the fit runs in the numpy kernel
        rows = [(t, 1.0 / (W12_A - W12_K * t)) for t in range(1500, 1901, 5)]
        rows[40] = (rows[40][0], "1e-200")
        path = write_long(tmp_path, rows)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for args in (["analyze", path, "--long"],
                         ["plotdata", path, "--long", "--out-prefix", str(tmp_path / "p")]):
                result = run(runner, *args)
                assert_one_error_line(result, 2)
                assert "values too extreme for float arithmetic" in result.output
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_plotted_model_overflowing_is_2(self, runner, tmp_path):
        # the fit succeeds (k about 1.7e-309), but the plotted GDP model reaches
        # infinity one year before the blow-up; the report has no such table
        path = write_long(tmp_path, [(1500, "1e306"), (1600, "1.2e306"), (1700, "1.5e306"),
                                     (1800, "2e306"), (1900, "3e306"), (2200, 1)])
        result = run(runner, "plotdata", path, "--long", "--window", "1500:1900",
                     "--out-prefix", str(tmp_path / "p"))
        assert_one_error_line(result, 2)
        assert result.output == (
            "error: series 'long': values too extreme for float arithmetic\n")
        assert not list(tmp_path.glob("p_*.csv"))
        assert run(runner, "analyze", path, "--long", "--window", "1500:1900").exit_code == 0

    def test_fit_with_an_infinite_standard_error_is_2(self, runner, tmp_path):
        # a, k and rmse are finite, but se_a overflows: the fit cannot be skipped,
        # while the plot tables draw no standard error
        from hypergrowth.fitting import fit_hyperbolic
        from hypergrowth.ingest import parse_long_csv

        path = write_long(tmp_path, [("1e15", "2.5e-151"), ("1000000000000001", "1e-150"),
                                     ("1000000000000002", "3.3333333333333334e-151"),
                                     ("1000000000000003", "1e-148")])
        window = ["--window", "1e15:1.000000000000003e15"]
        result = run(runner, "analyze", path, "--long", *window)
        assert_one_error_line(result, 2)
        assert result.output == (
            "error: series 'long': values too extreme for float arithmetic\n")
        result = run(runner, "plotdata", path, "--long", *window,
                     "--out-prefix", str(tmp_path / "p"))
        assert result.exit_code == 0, result.output
        s = parse_long_csv(pathlib.Path(path).read_text(), label="long")
        fit = fit_hyperbolic(s, hypergrowth.Window(1e15, 1.000000000000003e15))
        assert fit.se_a == math.inf
        assert all(map(math.isfinite, (fit.a, fit.k, fit.se_k, fit.rmse_reciprocal)))

    def test_subnormal_value_with_an_infinite_reciprocal_is_2(self, runner, tmp_path):
        path = write_long(tmp_path, [(1500, "5e-324"), (1600, 1), (1700, 2), (1800, 3)])
        for args in (["analyze", path, "--long"],
                     ["plotdata", path, "--long", "--out-prefix", str(tmp_path / "p")]):
            result = run(runner, *args)
            assert_one_error_line(result, 2)
            assert "value 5e-324 at year 1500 has an infinite reciprocal" in result.output

    def test_distinct_years_too_close_for_the_fit_are_2(self, runner, tmp_path):
        # their centred squares underflow to 0; the years are distinct, so not a fit
        # error, and the message names the years, not the values
        path = write_long(tmp_path, [(0, 1.0), (9.3e-247, 2.0), (6e-227, 3.0)])
        for args in (["analyze", path, "--long"],
                     ["plotdata", path, "--long", "--out-prefix", str(tmp_path / "p")]):
            result = run(runner, *args, "--window", "-1:1")
            assert_one_error_line(result, 2)
            assert result.output == ("error: years too close together "
                                     "for float arithmetic (0 to 6e-227)\n")

    def test_regime_window_with_years_too_close_is_skipped(self, runner, tmp_path):
        # the fit is well posed; only the stagnation window's years are too close,
        # so that section is skipped and the report still has every other section
        path = write_long(tmp_path, [(0, 1), (9.3e-247, 2), (6e-227, 3), (1e-226, 4)]
                          + [(1500, 10), (1600, 12), (1700, 15), (1820, 20), (1870, 30),
                             (1900, 40), (1913, 50)])
        out = tmp_path / "report.json"
        result = run(runner, "analyze", path, "--long", "--stagnation-window", "-1:1",
                     "-o", str(out))
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["stagnation"] == {
            "skipped": "years too close together for float arithmetic (0 to 1e-226)"
        }
        assert report["fit"]["n_points"] == 6
        assert "direction" in report["diversion"] and "found" in report["takeoff"]
        # the same years as the fit window are still a failure of the fit itself,
        # reported with the text of the skipped section
        result = run(runner, "analyze", path, "--long", "--window", "-1:1")
        assert_one_error_line(result, 2)
        assert result.output == f"error: {report['stagnation']['skipped']}\n"

    @pytest.mark.parametrize("spec", ["0:1e12:1", "-1e308:1e308:1", "0:inf:1", "0:1:nan",
                                      "1:x:1", "1:2", "0:110000.0:1.1"])
    def test_range_years_refused_before_building(self, runner, spec):
        # the first two would take hours to build; the cap answers at once. The
        # last has a float quotient just below the cap, but builds 100,001 years
        result = run(runner, "simulate", "--kind", "stagnation", "--mean", "2",
                     "--amplitude", "0.5", "--period", "100", "--years", spec)
        assert_one_error_line(result, 2)
        if spec in ("1:x:1", "1:2"):  # not three numbers
            assert result.output == (
                f"error: --years range must be START:STOP:STEP, got {spec!r}\n")


def fresh_env(**extra):
    """The environment for a fresh interpreter with the package importable, plus ``extra``."""
    src = str(pathlib.Path(hypergrowth.__file__).parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_probe(script, payload):
    """Run ``script`` in a fresh interpreter with the package importable; parse its JSON."""
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(payload)],
                          env=fresh_env(COLUMNS="100"), capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


# each command that writes to standard output; plotdata writes its files first
STDOUT_COMMANDS = [
    ["analyze", "IN"],
    ["simulate", "--kind", "stagnation", "--mean", "2", "--amplitude", "0.5",
     "--period", "100", "--years", "0:2000:0.1"],
    ["plotdata", "IN", "--out-prefix", "PREFIX"],
    ["analyze", "--help"],
]


def stdout_command(args, europe_csv_path, tmp_path):
    """The fresh-interpreter command line of ``args``, with IN and PREFIX filled in."""
    paths = {"IN": str(europe_csv_path), "PREFIX": str(tmp_path / "p")}
    return [sys.executable, "-m", "hypergrowth.cli", *(paths.get(a, a) for a in args)]


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("args", STDOUT_COMMANDS)
def test_closed_stdout_is_2(europe_csv_path, tmp_path, args, unbuffered):
    """A reader that goes away before any output (``| head``) gets exit 2 and one
    error: line, whether the write or the flush at exit meets the closed pipe."""
    proc = subprocess.Popen(stdout_command(args, europe_csv_path, tmp_path),
                            env=fresh_env(PYTHONUNBUFFERED=unbuffered),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2, err
    assert err == "error: cannot write standard output: broken pipe\n"


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("redirect, reason", [
    ("> /dev/full", "No space left on device"),
    (">&-", "Bad file descriptor"),
], ids=["full-disk", "closed-fd"])
@pytest.mark.parametrize("args", STDOUT_COMMANDS)
def test_failed_stdout_write_is_2(europe_csv_path, tmp_path, args, redirect, reason,
                                  unbuffered):
    """Any failed write to standard output, not only a gone reader, exits 2 with one
    error: line: a full disk (``> /dev/full``) and fd 1 closed at start-up (``>&-``,
    which leaves sys.stdout None), whether the write or the flush at exit fails."""
    if "/dev/full" in redirect and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    command = ["sh", "-c", f'exec "$@" {redirect}', "sh",
               *stdout_command(args, europe_csv_path, tmp_path)]
    proc = subprocess.run(command, env=fresh_env(PYTHONUNBUFFERED=unbuffered),
                          stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: cannot write standard output: {reason}\n"


@pytest.mark.parametrize("args", [
    ["analyze", "IN"],
    ["analyze", "IN", "--preset", "EE", "--format", "kv"],
    ["simulate", "--kind", "hyperbolic", "--a", str(W12_A), "--k", str(W12_K),
     "--years", "1,1000,1500,1900", "--sigma", "0.05", "--seed", "2"],
])
def test_dash_output_is_standard_output(runner, europe_csv_path, tmp_path, monkeypatch,
                                        args):
    """``-o -`` prints exactly what a run without ``-o`` prints, in every command that
    takes it, and writes no file named ``-``."""
    monkeypatch.chdir(tmp_path)
    args = [str(europe_csv_path) if a == "IN" else a for a in args]
    plain, dashed = run(runner, *args), run(runner, *args, "-o", "-")
    assert plain.exit_code == dashed.exit_code == 0, dashed.output
    assert dashed.output == plain.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("closed", ["pipe", "fd", "at-start"])
@pytest.mark.parametrize("args, code", [
    (["analyze", "MISSING"], 2),
    (["analyze", "IN", "--preset", "NOPE"], 4),
])
def test_closed_stderr_keeps_the_exit_code(
    europe_csv_path, tmp_path, closed, args, code, unbuffered
):
    """With nowhere to print the error: line, a failure still exits with its code
    and prints nothing to stdout: whether the reader of stderr has gone, fd 2 is
    closed while running or before start-up (``2>&-``, which leaves sys.stderr
    None), and whether the write or the flush at exit meets the closed stream."""
    args = [{"IN": str(europe_csv_path), "MISSING": str(tmp_path / "nope.csv")}.get(a, a)
            for a in args]
    command = [sys.executable, "-m", "hypergrowth.cli", *args]
    if closed == "fd":
        command[1:3] = ["-c", "import os, sys; os.close(2); "
                              "from hypergrowth.cli import main; main(sys.argv[1:])"]
    elif closed == "at-start":
        command = ["sh", "-c", 'exec "$@" 2>&-', "sh", *command]
    proc = subprocess.Popen(command, env=fresh_env(PYTHONUNBUFFERED=unbuffered),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stderr.close()
    assert proc.stdout.read() == ""
    assert proc.wait(timeout=60) == code


SEQUENCE_PROBE = """
import contextlib, io, json, sys
from hypergrowth.cli import main
results = []
for args in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args)
            code = 0
        except SystemExit as exc:
            code = exc.code or 0
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_repeated_main_calls_match_fresh_processes(europe_csv_path):
    """main builds its parser once per process; reusing it changes no call's result."""
    commands = [
        ["analyze", str(europe_csv_path), "--kappa", "abc"],
        ["analyze", str(europe_csv_path), "--preset", "W30"],
        ["analyze", "--help"],
    ]
    together = run_probe(SEQUENCE_PROBE, commands)
    alone = [run_probe(SEQUENCE_PROBE, [args])[0] for args in commands]
    assert together == alone
    assert [code for code, _, _ in together] == [2, 0, 0]
    assert _parser() is _parser()


IMPORT_PROBE = """
import ast, contextlib, importlib, io, sys
watched = {"numpy", "click", "dataclasses", "inspect", "hashlib", "_hashlib", "json", "csv"}
def loaded():
    return sorted(m for m in sys.modules if m in watched or m.split(".")[0] == "hypergrowth")
target, commands = ast.literal_eval(sys.argv[1])
module = importlib.import_module(target)
seen = [loaded()]
for args in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        module.main(args, standalone_mode=False)
    seen.append(loaded())
import json  # only now: json is watched
print(json.dumps(seen))
"""

PACKAGE = ["hypergrowth", "hypergrowth.errors", "hypergrowth.series"]
CLI = sorted([*PACKAGE, "hypergrowth.cli"])
PLOTDATA = sorted([*CLI, "csv", "hypergrowth.fitting", "hypergrowth.ingest",
                   "hypergrowth.report"])
ANALYSIS = sorted([*PLOTDATA, "hypergrowth.regimes", "json"])


def test_commands_load_only_what_they_use(europe_csv_path, tmp_path):
    """Every fit of the bundled table has few points, and the standard library
    draws simulate's noise, so numpy stays unloaded; the CLI uses argparse and no
    dataclasses. Each command loads its modules on first use: ingest, fitting
    and report for plotdata, those, regimes and json (to render the report) for
    analyze, whose input digest loads no hashlib (nor its OpenSSL module), and
    only the synthetic generators for simulate. The package itself loads only
    what its constants need."""
    csv = str(europe_csv_path)
    simulate = ["simulate", "--kind", "hyperbolic", "--a", str(W12_A), "--k", str(W12_K),
                "--years", "1,1000,1500,1600,1700,1820,1870,1900", "--sigma", "0.05",
                "-o", str(tmp_path / "sim.csv")]
    commands = [
        ["plotdata", csv, "--preset", "W30", "--out-prefix", str(tmp_path / "w30")],
        ["analyze", csv, "--preset", "W12"],
        ["analyze", csv, "--preset", "W30"],
        ["analyze", csv, "--preset", "EE", "--kappa", "2.5"],
        simulate,
    ]
    assert run_probe(IMPORT_PROBE, ["hypergrowth.cli", commands]) == [
        CLI, PLOTDATA, ANALYSIS, ANALYSIS, ANALYSIS, sorted([*ANALYSIS, "hypergrowth.synthetic"])]
    assert run_probe(IMPORT_PROBE, ["hypergrowth.cli", [simulate]]) == [
        CLI, sorted([*CLI, "hypergrowth.synthetic"])]
    assert run_probe(IMPORT_PROBE, ["hypergrowth", []]) == [PACKAGE]


def test_public_names_resolve(monkeypatch):
    """Each public name is its home module's own object. __getattr__ serves a name
    on first use and stores it, so a second use does not reach it; dir lists every
    name before its first use."""
    for name in hypergrowth.__all__:
        if name in hypergrowth._HOMES:
            monkeypatch.delitem(vars(hypergrowth), name, raising=False)
    assert set(hypergrowth.__all__) <= set(dir(hypergrowth))
    for name in hypergrowth.__all__:
        value = getattr(hypergrowth, name)
        home = hypergrowth if name == "__version__" else sys.modules[value.__module__]
        assert getattr(home, name) is value
        assert vars(hypergrowth)[name] is value
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        hypergrowth.nosuch

    def refuse(name):
        raise AssertionError(f"{name} went through __getattr__ twice")

    monkeypatch.setattr(hypergrowth, "__getattr__", refuse)
    for name in hypergrowth.__all__:
        getattr(hypergrowth, name)
    names = {}
    exec("from hypergrowth import *", names)
    assert set(hypergrowth.__all__) <= set(names)


def test_defaults_have_one_home():
    from hypergrowth import regimes

    imported = {module.__name__: sorted(n for n in vars(module) if n.startswith("DEFAULT_"))
                for module in (regimes, report)}
    assert imported == {
        "hypergrowth.regimes": ["DEFAULT_KAPPA", "DEFAULT_SEGMENT_BOUNDARIES",
                                "DEFAULT_SEGMENT_WINDOW", "DEFAULT_STAGNATION_WINDOW",
                                "DEFAULT_TAKEOFF_WINDOW"],
        "hypergrowth.report": ["DEFAULT_FIT_WINDOW", "DEFAULT_KAPPA", "DEFAULT_PROBE_YEARS",
                               "DEFAULT_SEGMENT_BOUNDARIES", "DEFAULT_STAGNATION_WINDOW",
                               "DEFAULT_TAKEOFF_WINDOW"],
    }
    for module in (regimes, report):
        for name in imported[module.__name__]:
            assert getattr(module, name) is getattr(hypergrowth, name)


def test_parser_gives_each_flag_its_value():
    args = vars(_parser().parse_args(["analyze", "x.csv"]))
    # each default is spelled with :g for --help and parsed back by the flag's type
    assert {name: args[name] for name in ("fit_window", "kappa", "boundaries", "probe_years",
                                          "takeoff_window", "stagnation_window")} == {
        "fit_window": hypergrowth.DEFAULT_FIT_WINDOW,
        "kappa": hypergrowth.DEFAULT_KAPPA,
        "boundaries": hypergrowth.DEFAULT_SEGMENT_BOUNDARIES,
        "probe_years": hypergrowth.DEFAULT_PROBE_YEARS,
        "takeoff_window": hypergrowth.DEFAULT_TAKEOFF_WINDOW,
        "stagnation_window": hypergrowth.DEFAULT_STAGNATION_WINDOW,
    }
    # analyze hands on by name every flag it does not name itself, and those are
    # exactly analyze_series's analysis parameters other than kappa
    options = set(args) - {"run"} - set(inspect.signature(cli.analyze).parameters)
    assert options == set(inspect.signature(report.analyze_series).parameters) - {
        "s", "kappa", "input_path", "input_sha256"}
    assert vars(_parser().parse_args(["plotdata", "x.csv"]))["fit_window"] == (
        hypergrowth.DEFAULT_FIT_WINDOW)
    # simulate receives only the model flags given
    args = vars(_parser().parse_args(["simulate", "--kind", "hyperbolic", "--a", "0.1",
                                      "--k", "1e-5", "--years", "1,2"]))
    assert {"a": 0.1, "k": 1e-5}.items() <= args.items()
    assert not {"s0", "r", "cap", "mean", "amplitude", "period"} & set(args)
    # the commands take typed values: none of them parses flag text itself
    for command in (cli.analyze, cli.plotdata, cli.simulate):
        tree = ast.parse(inspect.getsource(command))
        called = {node.func.id for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert not [name for name in called if name.startswith("_parse_")], command.__name__


def test_cli_leaves_float_trouble_to_report():
    # report alone turns an ArithmeticError or a nan into a skip or a failed fit
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    assert "ArithmeticError" not in names
    built = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert not [f for f in built
                if getattr(f, "id", getattr(f, "attr", None)) == "NonFiniteValueError"]


def _reject_constant(token):
    raise ValueError(f"report holds {token}")


# the last token is a field longer than the csv module reads
TOKENS = ("nan", "inf", "-inf", "1e-200", "1e308", "5e-324", "0", "-1", "9" * 140_000)
KAPPAS = st.one_of(
    st.floats(0.5, 6.0),
    st.sampled_from([0.0, -5.0, math.nan, math.inf, -math.inf]),
    st.floats(),
)


SCALES = st.one_of(st.just(1.0), st.sampled_from([1e-300, 1e-200, 1e200, 1e300]),
                   st.builds(lambda e: 10.0 ** e, st.integers(-300, 300)))


@st.composite
def long_rows(draw):
    """Noisy hyperbola rows (blow-up near 1924), those before a drawn year scaled by
    a power of ten up to 1e±300, with up to two cells replaced by TOKENS."""
    year = st.one_of(st.integers(1500, 1920), st.integers(1, 1499))
    years = draw(st.lists(year, unique=True, max_size=20))
    scale, cut = draw(SCALES), draw(year)
    rows = [
        [str(t), repr(draw(st.floats(0.9, 1.1)) * (scale if t < cut else 1.0)
                      / (W12_A - W12_K * t))]
        for t in years
    ]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, 1))] = draw(st.sampled_from(TOKENS))
    return rows


def assert_contract_holds(runner, tmp_path, source, kappa, refused=False):
    """Exit code in {0,2,3,4,5}; a failure is one error: line; a report is finite.
    Flags that cannot go together are ``refused``: every command then exits 2."""
    out = tmp_path / "report.json"
    results = [
        runner(["analyze", *source, "--kappa", repr(kappa), "-o", str(out)]),
        runner(["plotdata", *source, "--out-prefix", str(tmp_path / "plot")]),
    ]
    for result in results:
        assert result.exit_code in ({2} if refused else {0, 2, 3, 4, 5}), (
            result.output, result.exception)
        if result.exit_code:
            assert_one_error_line(result, result.exit_code)
    if results[0].exit_code == 0:
        json.loads(out.read_text(), parse_constant=_reject_constant)
    return results


# --long reads no wide table, so each of these is refused with it; so is an empty label
REFUSED_LONG_FLAGS = st.sampled_from([
    [], ["--preset", "W12"], ["--members", "A,B"], ["--preset", ""], ["--members", ""],
    ["--label", ""],
])


def fits_finitely(text):
    """Whether ``fit_hyperbolic`` on the parsed series succeeds with finite fields
    and a finite a/k. The fit is the one part of ``analyze`` that float trouble
    may fail, so then ``analyze`` must exit 0."""
    from hypergrowth.fitting import fit_hyperbolic, singularity
    from hypergrowth.ingest import parse_long_csv

    try:
        fit = fit_hyperbolic(parse_long_csv(text, label="long"), hypergrowth.DEFAULT_FIT_WINDOW)
    except (errors.HypergrowthError, ArithmeticError):
        return False
    numbers = [fit.a, fit.k, fit.rmse_reciprocal, fit.r2_reciprocal, singularity(fit),
               *(se for se in (fit.se_a, fit.se_k) if se is not None)]
    return all(map(math.isfinite, numbers))


@settings(max_examples=150, deadline=None)
@given(rows=long_rows(), kappa=KAPPAS, flags=REFUSED_LONG_FLAGS)
# a stagnation test that raises, and a probe-year deviation that overflows to inf
@example(rows=STAGNATION_OVERFLOW_ROWS, kappa=3.0, flags=[])
@example(rows=DEVIATION_OVERFLOW_ROWS, kappa=3.0, flags=[])
def test_cli_contract_holds_for_any_long_input(tmp_path_factory, runner, rows, kappa,
                                               flags):
    tmp_path = tmp_path_factory.mktemp("contract")
    path = write_long(tmp_path, rows)
    results = assert_contract_holds(runner, tmp_path, [path, "--long", *flags], kappa,
                                    refused=bool(flags))
    if not flags and 0.0 < kappa < math.inf and fits_finitely(pathlib.Path(path).read_text()):
        assert results[0].exit_code == 0, results[0].output


@st.composite
def wide_tables(draw):
    """Two rows of noisy hyperbola halves, in millions, with up to three cells and
    perhaps one header year replaced by TOKENS."""
    year = st.one_of(st.integers(1500, 1920), st.integers(1, 1499))
    years = sorted(draw(st.lists(year, unique=True, min_size=1, max_size=16)))
    header = ["Region", *map(str, years)]
    rows = [
        [label, *(repr(500.0 * draw(st.floats(0.9, 1.1)) / (W12_A - W12_K * t))
                  for t in years)]
        for label in ("A", "B")
    ]
    for _ in range(draw(st.integers(0, 3))):
        draw(st.sampled_from(rows))[draw(st.integers(1, len(years)))] = draw(
            st.sampled_from(TOKENS))
    if draw(st.booleans()):
        header[draw(st.integers(1, len(years)))] = draw(st.sampled_from(TOKENS))
    # cells past the last header year: blank ones are legal, a value is refused
    draw(st.sampled_from(rows)).extend(draw(st.sampled_from([[], [""], ["", " "], ["", "7"]])))
    return "".join(",".join(row) + "\n" for row in [header, *rows])


@settings(max_examples=150, deadline=None)
@given(table=wide_tables(), members=st.sampled_from(["A,B", "B", "A,A", ""]), kappa=KAPPAS,
       flags=st.sampled_from([[], ["--preset", "W12"], ["--preset", "NOPE"], ["--preset", ""],
                              ["--label", "L"]]))
def test_cli_contract_holds_for_any_wide_input(tmp_path_factory, runner, table, members,
                                               kappa, flags):
    tmp_path = tmp_path_factory.mktemp("contract")
    path = tmp_path / "wide.csv"
    path.write_text(table)
    # --members and --preset each name the rows to use, so together they are refused;
    # --label names the series, so it goes with either
    results = assert_contract_holds(runner, tmp_path, [str(path), "--members", members, *flags],
                                    kappa, refused=flags not in ([], ["--label", "L"]))
    if flags and results[0].exit_code == 0:
        assert json.loads((tmp_path / "report.json").read_text())["series"]["label"] == "L"
    for result in results:
        if "listed more than once" in result.output:  # "A,A": named as the flag the user typed
            assert "error: --members: member 'A'" in result.output, result.output


# a valid value of each model flag; each flag may also take one of EXTREMES
MODEL_FLAGS = {"a": 0.1147, "k": 5.961e-5, "s0": 1.0, "r": 0.01, "cap": 100.0, "mean": 2.0,
               "amplitude": 0.3, "period": 600.0}
EXTREMES = (0.0, -1.0, 1e-320, 1e308, math.inf, math.nan)


@st.composite
def simulate_args(draw):
    """A kind, any model flags (its own ones more often) with valid or extreme values,
    noise up to sigma 1e300, and a few sample years, negative ones among them."""
    kind = draw(st.sampled_from(hypergrowth.KINDS))
    args = ["--kind", kind]
    for name, valid in MODEL_FLAGS.items():
        own = name in hypergrowth.KIND_PARAMS[kind]
        if draw(st.sampled_from([own] * 7 + [not own])):
            value = draw(st.one_of(st.just(valid), st.just(valid), st.sampled_from(EXTREMES)))
            args += [f"--{name}", repr(value)]
    years = draw(st.lists(st.one_of(st.integers(-3000, 3000), st.floats(-1e4, 1e4)),
                          min_size=2, max_size=5))
    sigma = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5), st.floats(0.0, 1e300)))
    return [*args, "--sigma", repr(sigma), "--years", ",".join(map(repr, years))]


@settings(max_examples=200, deadline=None)
@given(args=simulate_args())
# a math domain error (the sine of an infinite angle) and a division by zero
@example(args=["--kind", "stagnation", "--mean", "1", "--amplitude", "0.5",
               "--period", "1e-320", "--years", "1,2,3"])
@example(args=["--kind", "logistic", "--cap", "0.5", "--s0", "1", "--r", "1",
               "--years=-0.6931471805599453,1"])
# noise that leaves float range, and an infinite model parameter: each is named
@example(args=["--kind", "hyperbolic", "--a", "0.1", "--k", "1e-5", "--years", "1,2",
               "--sigma", "1e300"])
@example(args=["--kind", "hyperbolic", "--a", "inf", "--k", "1", "--years", "1,2"])
# flags of another kind must not be dropped silently
@example(args=["--kind", "hyperbolic", "--a", "0.1", "--k", "1e-5", "--cap", "5", "--r", "3",
               "--years", "1,2,3"])
def test_cli_contract_holds_for_any_simulate_flags(runner, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner(["simulate", *args])
    assert result.exit_code in {0, 2, 3, 4, 5}, (result.output, result.exception)
    if result.exit_code:
        assert_one_error_line(result, result.exit_code)
        return
    flags = {arg[2:] for arg in args if arg[2:] in MODEL_FLAGS}
    assert flags == set(hypergrowth.KIND_PARAMS[args[1]]), result.output
    for line in result.output.splitlines()[1:]:
        value = float(line.split(",")[1])
        assert 0.0 < value < math.inf, result.output
