import math

import pytest

from hypergrowth.errors import AtSingularityError, ModelSpecError
from hypergrowth.fitting import _sign_counts, fit_hyperbolic, fit_line
from hypergrowth.regimes import _runs_z, stagnation_test
from hypergrowth.series import Window
from hypergrowth.synthetic import ModelSpec, generate

SPARSE_GRID = (1, 1000, 1500, 1600, 1700)


class TestGenerate:
    def test_hyperbolic_closed_form(self):
        spec = ModelSpec("hyperbolic", {"a": 1.0, "k": 0.001}, (0, 500, 900))
        s = generate(spec)
        assert s.values == pytest.approx((1.0, 2.0, 10.0), rel=1e-12)

    def test_constant_stagnation(self):
        spec = ModelSpec(
            "stagnation", {"mean": 2.0, "amplitude": 0.0, "period": 600.0}, (1, 500, 900)
        )
        s = generate(spec)
        assert s.values == pytest.approx((2.0, 2.0, 2.0), rel=1e-12)

    def test_same_seed_is_deterministic(self):
        spec = ModelSpec(
            "hyperbolic", {"a": 1.0, "k": 0.001}, (0, 200, 400, 600), sigma=0.1, seed=99
        )
        assert generate(spec).points == generate(spec).points

    def test_different_seeds_differ(self):
        base = dict(kind="hyperbolic", params={"a": 1.0, "k": 0.001},
                    sample_years=(0, 200, 400, 600), sigma=0.1)
        a = generate(ModelSpec(**base, seed=1))
        b = generate(ModelSpec(**base, seed=2))
        assert a.points != b.points

    def test_sample_beyond_singularity_rejected(self):
        spec = ModelSpec("hyperbolic", {"a": 1.0, "k": 0.001}, (0, 500, 1000))
        with pytest.raises(AtSingularityError):
            generate(spec)

    def test_logistic_saturates_at_cap(self):
        spec = ModelSpec(
            "logistic", {"cap": 10.0, "s0": 0.1, "r": 0.05}, (0, 100, 400, 800)
        )
        s = generate(spec)
        assert s.values[0] == pytest.approx(0.1, rel=1e-9)
        assert s.values[-1] == pytest.approx(10.0, rel=1e-3)

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("hyperbolic", {"a": 1.0}),                      # missing k
            ("hyperbolic", {"a": -1.0, "k": 0.001}),         # nonpositive a
            ("stagnation", {"mean": 2.0, "amplitude": 2.5, "period": 100.0}),
            ("exponential", {"s0": 1.0, "r": 0.0}),          # r must be positive
            ("nosuch", {}),
            ("stagnation", {"mean": 2.0, "amplitude": math.nan, "period": 100.0}),
        ],
    )
    def test_invalid_specs_rejected(self, kind, params):
        with pytest.raises(ModelSpecError):
            ModelSpec(kind, params, (0, 100, 200))

    @pytest.mark.parametrize("kind, params, years, message", [
        ("stagnation", {"mean": 1.0, "amplitude": 0.5, "period": 1e-320}, (1, 2),
         "stagnation model fails at sample year 1: math domain error"),  # sin(inf)
        ("logistic", {"cap": 0.5, "s0": 1.0, "r": 1.0}, (-math.log(2), 1),
         "logistic model fails at sample year -0.693147: float division by zero"),
        ("exponential", {"s0": 1.0, "r": 1000.0}, (0, 1),
         "exponential model fails at sample year 1: math range error"),
    ])
    def test_float_arithmetic_failure_names_the_year(self, kind, params, years, message):
        with pytest.raises(ModelSpecError) as caught:
            generate(ModelSpec(kind, params, years))
        assert str(caught.value) == message

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
    def test_sigma_must_be_finite_and_nonnegative(self, sigma):
        with pytest.raises(ModelSpecError):
            ModelSpec("hyperbolic", {"a": 1.0, "k": 0.001}, (0, 100), sigma=sigma)

    @pytest.mark.parametrize("seed", [-1, 1.0, 2.5, "3", None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ModelSpecError):
            ModelSpec("hyperbolic", {"a": 1.0, "k": 0.001}, (0, 100), sigma=0.1, seed=seed)

    def test_seeded_stream_is_pinned(self):
        # one lognormvariate per sorted year from random.Random(seed)
        spec = ModelSpec("hyperbolic", {"a": 1.0, "k": 0.001}, (0, 200, 400, 600),
                         sigma=0.1, seed=7)
        assert generate(spec).values == (
            0.9650350809855109, 1.2853857407551783, 1.682919530657722, 2.1433035619919267)

    def test_log_noise_has_mean_zero_and_sd_sigma(self):
        # ln(noisy/clean) is N(0, sigma): over n draws its mean and SD fall within
        # 3 standard errors of 0 and sigma (sigma/sqrt(n) and sigma/sqrt(2(n-1)))
        n, sigma = 20_000, 0.05
        base = dict(kind="hyperbolic", params={"a": 1.0, "k": 1e-5},
                    sample_years=tuple(range(n)))
        clean = generate(ModelSpec(**base)).values
        noisy = generate(ModelSpec(**base, sigma=sigma, seed=1)).values
        logs = [math.log(v / c) for v, c in zip(noisy, clean)]
        mean = math.fsum(logs) / n
        sd = math.sqrt(math.fsum((x - mean) ** 2 for x in logs) / (n - 1))
        assert abs(mean) < 3 * sigma / math.sqrt(n)
        assert abs(sd - sigma) < 3 * sigma / math.sqrt(2 * (n - 1))

    @pytest.mark.parametrize("sigma, seed, year", [
        (1000.0, 1, 3),   # the exponent overflows: OverflowError
        (1000.0, 4, 3),   # the factor rounds to 0
        (1e308, 2, 1),    # the exponent is infinite, so is the factor
    ])
    def test_noise_leaving_float_range_names_sigma_and_year(self, sigma, seed, year):
        spec = ModelSpec("hyperbolic", {"a": 0.1, "k": 1e-5}, (1, 2, 3), sigma=sigma, seed=seed)
        with pytest.raises(ModelSpecError) as caught:
            generate(spec)
        assert str(caught.value) == (
            f"--sigma {sigma!r}: the noise leaves float range at sample year {year}")

    @pytest.mark.parametrize("kind, params, message", [
        ("hyperbolic", {"a": math.inf, "k": 1.0}, "parameter a=inf must be finite"),
        ("exponential", {"s0": 1.0, "r": math.nan}, "parameter r=nan must be finite"),
        ("stagnation", {"mean": math.inf, "amplitude": 0.5, "period": 100.0},
         "parameter mean=inf must be finite"),
        ("stagnation", {"mean": 2.0, "amplitude": 0.5, "period": math.inf},
         "parameter period=inf must be finite"),
    ])
    def test_nonfinite_parameter_is_named(self, kind, params, message):
        with pytest.raises(ModelSpecError) as caught:
            ModelSpec(kind, params, (1, 2))
        assert str(caught.value) == f"{kind} model: {message}"

    def test_numpy_integer_seed_draws_the_same_stream(self):
        np = pytest.importorskip("numpy")
        spec = dict(kind="hyperbolic", params={"a": 1.0, "k": 0.001},
                    sample_years=(0, 200, 400, 600), sigma=0.1)
        assert (generate(ModelSpec(**spec, seed=np.int64(7))).points
                == generate(ModelSpec(**spec, seed=7)).points)


class TestRoundTrip:
    def test_fit_recovers_generator_parameters(self):
        a, k = 0.1147, 5.961e-5
        spec = ModelSpec("hyperbolic", {"a": a, "k": k}, SPARSE_GRID)
        f = fit_hyperbolic(generate(spec), Window(1, 1700))
        assert f.a == pytest.approx(a, rel=1e-10)
        assert f.k == pytest.approx(k, rel=1e-10)


class TestDiscriminationPower:
    """Detector power over 200 seeded draws on the sparse ancient grid."""

    N_SEEDS = 200
    SIGMA = 0.05

    def test_stagnation_series_classified_stagnation(self):
        hits = 0
        for seed in range(self.N_SEEDS):
            spec = ModelSpec(
                "stagnation",
                {"mean": 2.0, "amplitude": 0.4, "period": 600.0},
                SPARSE_GRID,
                sigma=self.SIGMA,
                seed=seed,
            )
            verdict = stagnation_test(generate(spec), Window(1, 1750)).verdict
            hits += verdict == "stagnation-consistent"
        assert hits >= 0.95 * self.N_SEEDS

    def test_hyperbolic_series_classified_hyperbolic(self):
        hits = 0
        for seed in range(self.N_SEEDS):
            spec = ModelSpec(
                "hyperbolic",
                {"a": 0.1147, "k": 5.961e-5},
                SPARSE_GRID,
                sigma=self.SIGMA,
                seed=seed,
            )
            verdict = stagnation_test(generate(spec), Window(1, 1750)).verdict
            hits += verdict == "hyperbolic-consistent"
        assert hits >= 0.95 * self.N_SEEDS


class TestExponentialControl:
    def test_exponential_reciprocals_curve_systematically(self):
        # reciprocal of an exponential is convex, so a line fit leaves a
        # +,-,+ residual pattern: far fewer runs than randomness expects
        spec = ModelSpec(
            "exponential", {"s0": 1.0, "r": 0.004}, tuple(range(0, 1001, 25))
        )
        s = generate(spec)
        recip = [1.0 / v for v in s.values]
        line = fit_line(list(s.years), recip)
        resid = [r - (line.intercept + line.slope * y) for y, r in zip(s.years, recip)]
        signs = [r > 0 for r in resid if r != 0.0]
        runs = 1 + sum(1 for x, y in zip(signs, signs[1:]) if x != y)
        n_pos = sum(signs)
        n_neg = len(signs) - n_pos
        expected_runs = 2.0 * n_pos * n_neg / len(signs) + 1.0
        assert runs <= 3
        assert runs < expected_runs
        assert _runs_z(*_sign_counts(resid)) < 0
