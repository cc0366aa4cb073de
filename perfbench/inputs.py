"""Seeded, stdlib-only input generator for the benchmark workloads.

Every input is a pure function of the seed, so the same seed gives the
same bytes. Size schedules (gap counts, table fractions, long-series
lengths) are fixed by the op index, and the seed draws only the values,
which years go missing and the model constants. That keeps the mix of
op sizes, and so the timing percentiles, the same from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# The 37-year header of the bundled Western/Eastern Europe table.
BUNDLED_YEARS = (
    1.0, 1000.0, 1500.0, 1600.0, 1700.0,
    1820.0, 1830.0, 1840.0, 1850.0, 1870.0, 1880.0, 1890.0,
    *(float(y) for y in range(1900, 1914)),
    1920.0, 1925.0, 1929.0, 1935.0, 1950.0, 1960.0, 1970.0, 1980.0,
    1990.0, 2000.0, 2008.0,
)

SWEEP_SHAPES = ("hyperbolic", "hyperbolic-slower", "exponential", "flat-takeoff")
SWEEP_ROWS = 200
# Years dropped from a row cycle through these counts, so windows per row
# range from (37-12-1)(37-12-2)/2 = 276 to 630 on every seed.
SWEEP_GAPS = (0, 3, 6, 9, 12)


def _hyperbola(rng: random.Random, level_1900: float) -> tuple[float, float]:
    """(a, k) of 1/S = a - k t with S(1900) = level_1900 and blow-up after 2008."""
    blowup = rng.uniform(2030.0, 2150.0)
    k = (1.0 / level_1900) / (blowup - 1900.0)
    return k * blowup, k


def shape_value(shape: str, p: dict, t: float) -> float:
    """Noise-free value of one sweep shape at year t, in billions."""
    if shape == "exponential":
        return p["s0"] * math.exp(p["r"] * (t - 2008.0))
    if shape == "flat-takeoff":
        if t <= p["t_take"]:
            return p["mean"]
        return p["mean"] * math.exp(p["r"] * (t - p["t_take"]))
    if shape == "hyperbolic-slower" and t > 1900.0:
        return shape_value("hyperbolic", p, 1900.0) * math.exp(p["g"] * (t - 1900.0))
    return 1.0 / (p["a"] - p["k"] * t)


def sweep_rows(seed: int) -> list[tuple[str, str, tuple[tuple[float, float], ...]]]:
    """SWEEP_ROWS generated series (label, shape, points) on the bundled header."""
    rng = random.Random(f"window-sweep/{seed}")
    rows = []
    for i in range(SWEEP_ROWS):
        shape = SWEEP_SHAPES[i % len(SWEEP_SHAPES)]
        gaps = SWEEP_GAPS[(i // len(SWEEP_SHAPES)) % len(SWEEP_GAPS)]
        p: dict = {}
        if shape in ("hyperbolic", "hyperbolic-slower"):
            p["a"], p["k"] = _hyperbola(rng, rng.uniform(50.0, 800.0))
            p["g"] = rng.uniform(0.01, 0.025)
        elif shape == "exponential":
            p["s0"] = rng.uniform(1000.0, 8000.0)
            p["r"] = rng.uniform(0.001, 0.004)
        else:
            p["mean"] = rng.uniform(5.0, 60.0)
            p["t_take"] = rng.uniform(1750.0, 1870.0)
            p["r"] = rng.uniform(0.015, 0.03)
        sigma = rng.uniform(0.02, 0.08)
        dropped = set(rng.sample(range(len(BUNDLED_YEARS)), gaps))
        points = tuple(
            (t, shape_value(shape, p, t) * math.exp(rng.gauss(0.0, sigma)))
            for j, t in enumerate(BUNDLED_YEARS)
            if j not in dropped
        )
        rows.append((f"row{i:03d}-{shape}", shape, points))
    return rows


# --- large inputs ---------------------------------------------------------

WIDE_YEARS = (1.0, 1000.0, *(float(y) for y in range(1209, 2009)))
WIDE_REGIONS = 9
WIDE_COUNTRIES_PER_REGION = 18
# Benchmark years at which "old" countries have pre-1820 estimates.
EARLY_YEARS = (1.0, 1000.0, 1500.0, 1600.0, 1700.0)
# Share of the full table's rows in each wide op, cycled per op.
WIDE_FRACTIONS = (0.25, 0.5, 0.75, 1.0)
# Points per long series, cycled per op: annual AD 1-2008 up to 20,000 in
# 20 even steps, so op times spread smoothly and no percentile sits on a
# gap between two sizes.
LONG_SIZES = tuple(2008 + round(k * (20000 - 2008) / 19) for k in range(20))


def _cell(value: float) -> str:
    return f"{value:.1f}"


@dataclass(frozen=True)
class WideTable:
    """A generated wide table plus the values the generator wrote.

    ``cells`` maps label -> {year: value} holding exactly the parsed
    numeric value of every non-blank positive cell, so aggregation can be
    checked against the generator's own sums. ``groups`` are the
    sum-members presets (the "old" countries of each region) and
    ``totals`` the direct-row presets.
    """

    text: str
    cells: dict[str, dict[float, float]]
    groups: list[tuple[str, tuple[str, ...]]]
    totals: list[str]
    n_cells: int
    n_blank: int
    n_nonpositive: int


def wide_table(seed: int, fraction: float) -> WideTable:
    """A Maddison-shaped wide table with about fraction * 171 rows."""
    rng = random.Random(f"wide/{seed}/{fraction}")
    regions = max(1, round(WIDE_REGIONS * fraction))
    lines = ["Country," + ",".join(f"{y:g}" for y in WIDE_YEARS)]
    cells: dict[str, dict[float, float]] = {}
    groups: list[tuple[str, tuple[str, ...]]] = []
    totals: list[str] = []
    n_cells = n_blank = n_nonpositive = 0

    def emit(label: str, start: float, early: bool, level_1900: float) -> None:
        nonlocal n_cells, n_blank, n_nonpositive
        a, k = _hyperbola(rng, level_1900 * 1000.0)  # cells are in millions
        sigma = rng.uniform(0.01, 0.05)
        row_cells: dict[float, float] = {}
        out = [label]
        for t in WIDE_YEARS:
            n_cells += 1
            observed = (early and t in EARLY_YEARS) or (t >= start and rng.random() > 0.02)
            if not observed:
                out.append("")
                n_blank += 1
                continue
            if rng.random() < 0.001:
                out.append("0")
                n_nonpositive += 1
                continue
            raw = _cell(1.0 / (a - k * t) * math.exp(rng.gauss(0.0, sigma)))
            out.append(raw)
            row_cells[t] = float(raw)
        cells[label] = row_cells
        lines.append(",".join(out))

    for r in range(regions):
        old = []
        for c in range(WIDE_COUNTRIES_PER_REGION):
            label = f"Region {r} Country {c}"
            early = c < 6
            start = 1820.0 if early else rng.choice((1820.0, 1870.0, 1913.0, 1950.0))
            emit(label, start, early, rng.uniform(2.0, 150.0))
            if early:
                old.append(label)
        total = f"Total Region {r}"
        emit(total, 1820.0, True, rng.uniform(200.0, 900.0))
        groups.append((f"R{r}-old", tuple(old)))
        totals.append(total)
    return WideTable(
        "\n".join(lines) + "\n", cells, groups, totals, n_cells, n_blank, n_nonpositive
    )


def long_series(seed: int, size: int) -> tuple[str, tuple[tuple[float, float], ...]]:
    """(``year,value`` text, points) of a series with ``size`` points over AD 1-2008.

    Hyperbolic up to 1900, slower after it, so the diversion test finds a
    break. Years and values are written with repr, so parsing gives back
    exactly these floats.
    """
    rng = random.Random(f"long/{seed}/{size}")
    p = {"g": rng.uniform(0.01, 0.02)}
    p["a"], p["k"] = _hyperbola(rng, rng.uniform(300.0, 900.0))
    sigma = rng.uniform(0.01, 0.04)
    step = 2007.0 / (size - 1)
    points = []
    for i in range(size):
        t = 1.0 + i * step
        points.append((t, shape_value("hyperbolic-slower", p, t) * math.exp(rng.gauss(0.0, sigma))))
    text = "year,value\n" + "".join(f"{t!r},{v!r}\n" for t, v in points)
    return text, tuple(points)


def simulate_args(seed: int) -> list[str]:
    """Flags of the ``simulate`` invocation in the CLI mix, drawn from the seed."""
    rng = random.Random(f"simulate/{seed}")
    a, k = _hyperbola(rng, rng.uniform(300.0, 900.0))
    years = "1,1000,1500,1600,1700,1820,1870,1900,1913,1950,2000"
    return [
        "simulate", "--kind", "hyperbolic", "--a", repr(a), "--k", repr(k),
        "--years", years, "--sigma", "0.05", "--seed", str(rng.randrange(10**6)),
    ]
