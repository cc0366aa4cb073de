import hashlib
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hypergrowth.fitting import fit_hyperbolic, singularity
from hypergrowth.report import (
    AnalysisReport,
    analyze_series,
    file_digest,
    gdp_plot_table,
    human_summary,
    reciprocal_plot_table,
)
from hypergrowth.series import Window


@pytest.fixture(scope="module")
def w12_report(regional_series):
    return analyze_series(regional_series["W12"], input_path="x.csv", input_sha256="ab")


class TestAnalyzeSeries:
    def test_sections_present(self, w12_report):
        d = w12_report.data
        assert set(d) == {
            "tool", "input", "series", "fit", "deviations", "diversion",
            "takeoff", "stagnation", "segments",
        }
        assert d["tool"]["name"] == "hypergrowth"
        assert d["fit"]["singularity_year"] == pytest.approx(
            d["fit"]["a"] / d["fit"]["k"]
        )

    def test_probe_years_reported_in_order(self, w12_report):
        years = [e["year"] for e in w12_report.data["deviations"]]
        assert years == [1.0, 1000.0]

    def test_unobservable_probe_year_is_skipped_not_fatal(self, regional_series):
        rep = analyze_series(regional_series["W12"], probe_years=(1.0, 1234.0))
        entries = {e["year"]: e for e in rep.data["deviations"]}
        assert entries[1.0]["percent"] is not None
        assert entries[1234.0]["percent"] is None
        assert "skipped" in entries[1234.0]

    def test_deterministic_serialization(self, regional_series):
        a = analyze_series(regional_series["W30"], input_path="p", input_sha256="h")
        b = analyze_series(regional_series["W30"], input_path="p", input_sha256="h")
        assert a.to_json() == b.to_json()
        assert a.to_kv() == b.to_kv()

    def test_json_round_trip_is_exact(self, w12_report):
        assert json.loads(w12_report.to_json()) == w12_report.data

    def test_kv_lines_are_flat_pairs(self, w12_report):
        lines = w12_report.to_kv().strip().splitlines()
        assert all("=" in line for line in lines)
        assert any(line.startswith("fit.a=") for line in lines)
        assert any(line.startswith("deviations[0].year=") for line in lines)

    def test_human_summary_mentions_key_quantities(self, w12_report):
        text = human_summary(w12_report)
        assert "singularity year" in text
        assert "diversion" in text
        assert "stagnation" in text
        assert "W12" in text


class TestPlotTables:
    def test_reciprocal_fit_samples_exactly_collinear(self, regional_series):
        s = regional_series["W12"]
        f = fit_hyperbolic(s, Window(1500, 1900))
        fit_rows = [
            (y, v) for tag, y, v in reciprocal_plot_table(f, s) if tag == "fit"
        ]
        assert len(fit_rows) >= 200
        values = [v for _, v in fit_rows]
        scale = max(abs(v) for v in values)
        second_diff = [
            abs((c - b) - (b - a)) for a, b, c in zip(values, values[1:], values[2:])
        ]
        assert max(second_diff) <= 1e-12 * scale

    def test_gdp_model_samples_strictly_increasing(self, regional_series):
        s = regional_series["W12"]
        f = fit_hyperbolic(s, Window(1500, 1900))
        model = [v for tag, _, v in gdp_plot_table(f, s) if tag == "model"]
        assert len(model) >= 200
        assert all(b > a for a, b in zip(model, model[1:]))

    def test_gdp_model_stops_below_singularity(self, regional_series):
        s = regional_series["W12"]
        f = fit_hyperbolic(s, Window(1500, 1900))
        model_years = [y for tag, y, _ in gdp_plot_table(f, s) if tag == "model"]
        assert max(model_years) <= min(singularity(f) - 1.0, s.points[-1][0]) + 1e-9

    def test_observed_reciprocals_above_line_from_1913_on(self, regional_series):
        s = regional_series["W12"]
        f = fit_hyperbolic(s, Window(1500, 1900))
        observed = {
            y: v for tag, y, v in reciprocal_plot_table(f, s) if tag == "observed"
        }
        late = {y: v for y, v in observed.items() if y >= 1913}
        assert late
        assert all(v > f.line_value(y) for y, v in late.items())


class TestJsonSafety:
    def test_report_json_has_no_nan_or_inf(self, w12_report):
        # json.loads round-trip with allow_nan=False already guarantees this,
        # but parse defensively to pin the contract
        parsed = json.loads(w12_report.to_json())
        assert isinstance(parsed, dict)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_both_renderers_refuse_nonfinite_numbers(self, bad):
        report = AnalysisReport(data={"fit": {"a": bad}})
        with pytest.raises(ValueError):
            report.to_json()
        with pytest.raises(ValueError):
            report.to_kv()


def test_file_digest_of_the_bundled_table_is_its_sha256(europe_csv_path):
    raw = europe_csv_path.read_bytes()
    assert file_digest(raw) == hashlib.sha256(raw).hexdigest()


@given(raw=st.binary(max_size=4096))
@example(raw=b"")
def test_file_digest_is_sha256(raw):
    assert file_digest(raw) == hashlib.sha256(raw).hexdigest()
