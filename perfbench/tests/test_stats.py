import math

import pytest

from perfbench.stats import P90_MIN_SAMPLES, fit_exponent, latency_summary, percentile


def test_percentile_interpolates():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p90_only_from_100_samples():
    assert P90_MIN_SAMPLES == 100
    short = latency_summary([float(i) for i in range(99)])
    assert set(short) == {"op_ms.p50"}
    full = latency_summary([float(i) for i in range(100)])
    assert set(full) == {"op_ms.p50", "op_ms.p90"}
    assert full["op_ms.p90"] == pytest.approx(89.1)


def test_fit_exponent_recovers_power_law_from_fastest_calls():
    pairs = [(n, 1e-6 * n**3) for n in (8, 12, 16, 24)]
    pairs += [(n, 5e-6 * n**3) for n in (8, 12, 16, 24)]  # slower repeats
    assert fit_exponent(pairs) == pytest.approx(3.0)
    assert fit_exponent(pairs, min_size=12) == pytest.approx(3.0)
    assert math.isclose(fit_exponent([(8, 1.0), (8, 2.0)]), 0.0)
    assert fit_exponent(pairs, min_size=100) == 0.0
