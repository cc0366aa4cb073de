"""Program-independent references the benchmark checks outputs against.

Nothing here imports hypergrowth: the line fit uses exactly rounded
``math.fsum`` sums on mean-centred years, and the JSON check walks the
parsed report itself.
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-9


def ols(years, values) -> tuple[float, float]:
    """(intercept, slope) of the least-squares line values = intercept + slope * year."""
    n = len(years)
    center = math.fsum(years) / n
    xs = [t - center for t in years]
    xbar = math.fsum(xs) / n
    ybar = math.fsum(values) / n
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, values))
    slope = sxy / sxx
    return ybar - slope * xbar - slope * center, slope


def hyperbolic_reference(points, t0: float, t1: float) -> tuple[float, float, int] | None:
    """(a, k, n) the hyperbolic fit on [t0, t1] must report, or None if it must reject.

    The fit is the reciprocal line 1/S = a - k t over the in-window points;
    a line that does not decrease must be rejected.
    """
    sel = [(t, v) for t, v in points if t0 <= t <= t1]
    a, slope = ols([t for t, _ in sel], [1.0 / v for _, v in sel])
    if slope >= 0.0:
        return None
    return a, -slope, len(sel)


def close(x: float, ref: float, rel: float = REL_TOL) -> bool:
    return abs(x - ref) <= rel * abs(ref)


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in report")


def finite_json(text: str):
    """Parse a JSON report, raising ValueError on NaN, Infinity or a non-finite float."""
    data = json.loads(text, parse_constant=_reject_constant)
    stack = [data]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
        elif isinstance(node, float) and not math.isfinite(node):
            raise ValueError(f"non-finite number {node!r} in report")
    return data
