"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[C#] PASS/FAIL` line (run with ``pytest -v -s``
to see them all). The data-driven criteria run on the bundled European
GDP table; the property criteria are data-independent.
"""

import json
import math

import numpy as np

from hypergrowth.fitting import fit_hyperbolic, percent_deviation, singularity
from hypergrowth.regimes import (
    detect_diversion,
    segment_consistency,
    stagnation_test,
    takeoff_scan,
)
from hypergrowth.series import Window, new_series, reciprocal
from hypergrowth.synthetic import ModelSpec, generate

FIT_WINDOW = Window(1500, 1900)

PUBLISHED = {
    "W12": dict(a=1.147e-1, k=5.961e-5, sing=(1920, 1928), dev1=(22, 32),
                dev1000=(-59, -49)),
    "W30": dict(a=9.859e-2, k=5.112e-5, sing=(1925, 1933), dev1=(37, 47),
                dev1000=(-53, -43)),
    "EE": dict(a=7.749e-1, k=4.048e-4, sing=(1911, 1919), dev1=(45, 57),
               dev1000=None),
}


def _criterion(cid: str, ok: bool, detail: str) -> None:
    print(f"[{cid}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid}: {detail}"


def _fits(regional_series):
    return {name: fit_hyperbolic(s, FIT_WINDOW) for name, s in regional_series.items()}


def _check_reproduction(cid, name, regional_series):
    t = PUBLISHED[name]
    f = fit_hyperbolic(regional_series[name], FIT_WINDOW)
    sing = singularity(f)
    ok = (
        abs(f.a / t["a"] - 1) <= 0.05
        and abs(f.k / t["k"] - 1) <= 0.05
        and t["sing"][0] <= sing <= t["sing"][1]
    )
    _criterion(
        cid, ok,
        f"{name}: a={f.a:.4e} ({100 * (f.a / t['a'] - 1):+.2f}%), "
        f"k={f.k:.4e} ({100 * (f.k / t['k'] - 1):+.2f}%), "
        f"singularity={sing:.1f} in {t['sing']}",
    )


def _check_deviations(cid, name, regional_series):
    t = PUBLISHED[name]
    s = regional_series[name]
    f = fit_hyperbolic(s, FIT_WINDOW)
    d1 = percent_deviation(f, s, 1)
    ok = t["dev1"][0] <= d1 <= t["dev1"][1]
    detail = f"{name}: dev@1={d1:+.1f} in {t['dev1']}"
    if t["dev1000"] is not None:
        d1000 = percent_deviation(f, s, 1000)
        ok = ok and t["dev1000"][0] <= d1000 <= t["dev1000"][1]
        detail += f", dev@1000={d1000:+.1f} in {t['dev1000']}"
    _criterion(cid, ok, detail)


def test_c1_w12_reproduction(regional_series):
    _check_reproduction("C1", "W12", regional_series)


def test_c2_w12_deviations(regional_series):
    _check_deviations("C2", "W12", regional_series)


def test_c3_w30_reproduction_and_deviations(regional_series):
    _check_reproduction("C3", "W30", regional_series)
    _check_deviations("C3", "W30", regional_series)


def test_c4_ee_reproduction_and_deviation(regional_series):
    _check_reproduction("C4", "EE", regional_series)
    _check_deviations("C4", "EE", regional_series)


def test_c5_diversion(regional_series):
    year_bounds = {"W12": (1875, 1913), "W30": (1875, 1913), "EE": (1870, 1913)}
    details = []
    ok = True
    for name, f in _fits(regional_series).items():
        rep = detect_diversion(f, regional_series[name])
        lo, hi = year_bounds[name]
        good = (
            rep.direction == "slower"
            and rep.diversion_year is not None
            and lo <= rep.diversion_year <= hi
            and rep.bypass_years is not None
            and 15 <= rep.bypass_years <= 35
        )
        ok = ok and good
        details.append(
            f"{name}: {rep.direction}@{rep.diversion_year} "
            f"bypass={rep.bypass_years and round(rep.bypass_years, 1)}"
        )
    _criterion("C5", ok, "; ".join(details))


def test_c6_no_takeoff(regional_series):
    details = []
    ok = True
    for name, f in _fits(regional_series).items():
        rep = takeoff_scan(f, regional_series[name])  # default window 1760..1840
        ok = ok and rep.found is False
        details.append(
            f"{name}: found={rep.found} "
            f"(min rho {rep.max_negative_normalized_residual:.2f})"
        )
    _criterion("C6", ok, "; ".join(details))


def test_c7_no_stagnation(regional_series):
    details = []
    ok = True
    for name, s in regional_series.items():
        v = stagnation_test(s)  # default window 1..1750
        ok = ok and v.verdict == "hyperbolic-consistent"
        details.append(f"{name}: {v.verdict} (monotone {v.monotone_fraction:.2f})")
    _criterion("C7", ok, "; ".join(details))


def test_c8_segment_consistency(regional_series):
    rep = segment_consistency(regional_series["W12"])  # boundaries 1750, 1870
    _criterion(
        "C8",
        rep.verdict == "single-line-consistent",
        f"W12: {rep.verdict}, z-scores "
        f"{[round(z, 2) for _, _, z in rep.z_scores] or 'none defined'}",
    )


def test_c9_property_suite():
    failures = []

    # OLS exact recovery on synthetic hyperbolas
    for a, k, years in [
        (1.147e-1, 5.961e-5, (1500, 1600, 1700, 1820, 1870, 1900)),
        (0.5, 2e-4, (100, 400, 900, 1400, 1900)),
        (2.0, 1e-3, (0, 300, 700, 1100, 1500, 1900)),
    ]:
        s = new_series([(t, 1 / (a - k * t)) for t in years], "hyp")
        f = fit_hyperbolic(s, Window(min(years), max(years)))
        if abs(f.a / a - 1) > 1e-10 or abs(f.k / k - 1) > 1e-10:
            failures.append(f"recovery a={a} k={k}")

    # shift / scale equivariance on a noisy hyperbola
    rng = np.random.default_rng(17)
    a, k, delta, c = 0.1147, 5.961e-5, 300.0, 41.0
    pts = [
        (t, (1 / (a - k * t)) * math.exp(rng.normal(0, 0.03)))
        for t in (1500, 1600, 1700, 1820, 1870, 1900)
    ]
    base = fit_hyperbolic(new_series(pts, "b"), FIT_WINDOW)
    shifted = fit_hyperbolic(
        new_series([(y + delta, v) for y, v in pts], "s"),
        Window(1500 + delta, 1900 + delta),
    )
    scaled = fit_hyperbolic(new_series([(y, v * c) for y, v in pts], "c"), FIT_WINDOW)
    if abs(shifted.k / base.k - 1) > 1e-10:
        failures.append("shift k")
    if abs(shifted.a - (base.a + base.k * delta)) > 1e-10 * base.a:
        failures.append("shift a")
    if abs(singularity(shifted) - (singularity(base) + delta)) > 1e-6:
        failures.append("shift singularity")
    if abs(scaled.a - base.a / c) > 1e-10 * base.a or abs(scaled.k - base.k / c) > 1e-10 * base.k:
        failures.append("scale a,k")
    if abs(scaled.rmse_reciprocal - base.rmse_reciprocal / c) > 1e-10 * base.rmse_reciprocal:
        failures.append("scale rmse")
    if abs(scaled.r2_reciprocal - base.r2_reciprocal) > 1e-10:
        failures.append("scale r2")
    if abs(singularity(scaled) - singularity(base)) > 1e-6:
        failures.append("scale singularity")

    # in-window residuals sum to zero
    from hypergrowth.fitting import goodness

    diag = goodness(base, new_series(pts, "b"))
    if abs(sum(raw for y, raw, _, _ in diag.rows if FIT_WINDOW.t0 <= y <= FIT_WINDOW.t1)) > 1e-10:
        failures.append("residual sum")

    # reciprocal involution
    s = new_series(pts, "b")
    twice = reciprocal(new_series(reciprocal(s).points, "r"))
    if any(
        not math.isclose(v0, v1, rel_tol=1e-12)
        for (_, v0), (_, v1) in zip(s.points, twice.points)
    ):
        failures.append("involution")

    # discrimination power, 200 seeds per kind, sigma = 0.05
    grid = (1, 1000, 1500, 1600, 1700)
    stag_hits = hyp_hits = 0
    for seed in range(200):
        stag = generate(ModelSpec(
            "stagnation", {"mean": 2.0, "amplitude": 0.4, "period": 600.0},
            grid, sigma=0.05, seed=seed,
        ))
        if stagnation_test(stag, Window(1, 1750)).verdict == "stagnation-consistent":
            stag_hits += 1
        hyp = generate(ModelSpec(
            "hyperbolic", {"a": 0.1147, "k": 5.961e-5},
            grid, sigma=0.05, seed=seed,
        ))
        if stagnation_test(hyp, Window(1, 1750)).verdict == "hyperbolic-consistent":
            hyp_hits += 1
    if stag_hits < 190:
        failures.append(f"stagnation power {stag_hits}/200")
    if hyp_hits < 190:
        failures.append(f"hyperbolic power {hyp_hits}/200")

    _criterion(
        "C9",
        not failures,
        f"properties ok; power stagnation {stag_hits}/200, hyperbolic {hyp_hits}/200"
        if not failures
        else f"failed: {failures}",
    )


def test_c10_determinism(runner, europe_csv_path, tmp_path):
    outputs = []
    for i in range(2):
        out = tmp_path / f"report{i}.json"
        result = runner(
            ["analyze", str(europe_csv_path), "--preset", "W12", "-o", str(out)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())
    same = outputs[0] == outputs[1]
    # the parsed report also round-trips exactly
    parsed = json.loads(outputs[0])
    rt = json.loads(json.dumps(parsed))
    _criterion(
        "C10",
        same and rt == parsed,
        f"byte-identical={same}, round-trip exact={rt == parsed}",
    )
