"""Seeded synthetic trajectory generators.

Used to validate the fitter and the regime detectors: hyperbolic series
must be recovered exactly, stagnation series must not be mistaken for
growth, and exponential/logistic series act as discriminant controls.
Noise is multiplicative lognormal so values stay positive, and every
draw comes from a ``random.Random`` seeded with the ModelSpec's seed.
"""

from __future__ import annotations

import math
import operator
import random

from . import KIND_PARAMS
from .errors import AtSingularityError, ModelSpecError
from .series import Frozen, GrowthSeries, from_columns


class ModelSpec(Frozen):
    """Recipe for one synthetic GrowthSeries.

    params holds the model constants of the chosen kind, and no other:
    hyperbolic(a, k), exponential(s0, r), logistic(cap, s0, r),
    stagnation(mean, amplitude, period), each finite. sigma is the
    lognormal noise scale (0 for noiseless), and seed (an integer >= 0)
    fixes the stream. The standard library draws the noise, one
    ``lognormvariate`` per year from ``random.Random(seed)``, whose
    ``random()`` sequence Python keeps for an integer seed across versions;
    numpy loads only for fits and scans of more than 64 points.

    The spec keeps its own copies (a dict of the params, a tuple of the
    years), so no later edit of the caller's objects reaches a checked
    value. It is unhashable, because its params is a dict.
    """

    __slots__ = _fields = ("kind", "params", "sample_years", "sigma", "seed")

    def __init__(self, kind: str, params: dict[str, float], sample_years: tuple[float, ...],
                 sigma: float = 0.0, seed: int = 0) -> None:
        self._assign(kind, dict(params), tuple(sample_years), sigma, seed)
        if self.kind not in KIND_PARAMS:
            raise ModelSpecError(f"unknown model kind {self.kind!r}")
        for name in self.params:
            if name not in KIND_PARAMS[self.kind]:
                raise ModelSpecError(f"{self.kind} model: takes no parameter {name!r}")
        for name in KIND_PARAMS[self.kind]:
            if name not in self.params:
                raise ModelSpecError(f"{self.kind} model: missing parameter {name!r}")
            value = self.params[name]
            if not -math.inf < value < math.inf:  # nan fails too
                raise ModelSpecError(
                    f"{self.kind} model: parameter {name}={value!r} must be finite"
                )
            if name != "amplitude" and not value > 0:
                raise ModelSpecError(
                    f"{self.kind} model: parameter {name}={value!r} must be positive"
                )
        if self.kind == "stagnation":
            if not 0 <= self.params["amplitude"] < self.params["mean"]:
                raise ModelSpecError(
                    "stagnation model: amplitude must satisfy 0 <= amplitude < mean"
                )
        if not 0.0 <= self.sigma < math.inf:
            raise ModelSpecError(f"sigma={self.sigma!r} must be finite and >= 0")
        if not (hasattr(self.seed, "__index__") and operator.index(self.seed) >= 0):
            raise ModelSpecError(f"seed={self.seed!r} must be an integer >= 0")
        if len(self.sample_years) < 2:
            raise ModelSpecError("need at least 2 sample years")


def _clean_value(spec: ModelSpec, t: float) -> float:
    p = spec.params
    if spec.kind == "hyperbolic":
        denom = p["a"] - p["k"] * t
        if denom <= 0.0:
            raise AtSingularityError(
                f"sample year {t:g} is at or beyond the singularity "
                f"{p['a'] / p['k']:.1f}"
            )
        return 1.0 / denom
    if spec.kind == "exponential":
        return p["s0"] * math.exp(p["r"] * t)
    if spec.kind == "logistic":
        cap, s0, r = p["cap"], p["s0"], p["r"]
        e = math.exp(r * t)
        return cap * s0 * e / (cap + s0 * (e - 1.0))
    # stagnation
    return p["mean"] + p["amplitude"] * math.sin(2.0 * math.pi * t / p["period"])


def _noise_factor(rng: random.Random, sigma: float, t: float) -> float:
    """One lognormal factor exp(N(0, sigma)) for sample year t; a factor that
    leaves float range (an overflowing exponent, or one that rounds to 0 or
    to infinity) is a ModelSpecError naming --sigma and the year."""
    try:
        factor = rng.lognormvariate(0.0, sigma)
    except OverflowError:
        factor = math.inf
    if not 0.0 < factor < math.inf:
        raise ModelSpecError(f"--sigma {sigma!r}: the noise leaves float range "
                             f"at sample year {t:g}")
    return factor


def generate(spec: ModelSpec) -> GrowthSeries:
    """The series ``synthetic-<kind>`` of the model at the sample years;
    deterministic given seed.

    Raises ModelSpecError, naming the year, when the model's float arithmetic
    fails at a sample year (an overflow, a division by zero, a math domain error)
    or when its noise factor leaves float range there.
    """
    years = sorted(spec.sample_years)
    values = []
    for t in years:
        try:
            values.append(_clean_value(spec, t))
        except (ArithmeticError, ValueError) as exc:
            raise ModelSpecError(f"{spec.kind} model fails at sample year {t:g}: {exc}") from None
    if spec.sigma > 0.0:
        rng = random.Random(operator.index(spec.seed))
        values = [v * _noise_factor(rng, spec.sigma, t) for t, v in zip(years, values)]
    return from_columns(years, values, label=f"synthetic-{spec.kind}")
