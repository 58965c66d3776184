"""Summary statistics: percentiles, latency summaries and scaling fits."""

from __future__ import annotations

import math

# p90 has at least ten samples beyond it only from this many samples on.
P90_MIN_SAMPLES = 100


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_summary(samples_ms: list[float]) -> dict[str, float]:
    """``op_ms.p50`` always, ``op_ms.p90`` only with enough samples."""
    out = {"op_ms.p50": percentile(samples_ms, 50)}
    if len(samples_ms) >= P90_MIN_SAMPLES:
        out["op_ms.p90"] = percentile(samples_ms, 90)
    return out


def fit_exponent(pairs: list[tuple[float, float]], min_size: float = 0.0) -> float:
    """Slope of log(time) against log(size), using the fastest call per size.

    The fastest call is the least disturbed by the machine and, where one
    size mixes kinds of call, it is the cheapest kind at every size.

    Returns 0.0 when fewer than two distinct sizes of at least ``min_size``
    were seen.
    """
    by_size: dict[float, list[float]] = {}
    for size, seconds in pairs:
        if size >= min_size and size > 0 and seconds > 0:
            by_size.setdefault(size, []).append(seconds)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(s) for s in by_size]
    ys = [math.log(min(v)) for v in by_size.values()]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx
