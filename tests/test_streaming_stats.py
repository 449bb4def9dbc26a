"""Streaming latency estimators vs the exact sorted sample.

The continuous serving loop cannot keep a million latencies around, so its
report runs on a bounded-memory estimator (:class:`ReservoirSampler`,
wrapped by :class:`StreamingLatencyStats`).  These tests pin the error
bound the serving reports rely on: on adversarial distributions -- strongly
bimodal and heavy-tailed -- every streamed percentile must land inside a
stated *rank window* of the exact sorted sample (the estimate is some
sample's true quantile near the target, never an interpolation artefact off
in the gap between modes).

The windows are about +-4.5 sigma of the 4096-element reservoir's
nearest-rank estimator (+-3.5 points at p50, +-0.7 at p99).  Everything is
seeded, so the bounds are deterministic assertions rather than flaky
statistics.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import LatencyStats, ReservoirSampler, StreamingLatencyStats

#: Rank half-windows of the fidelity bound (in quantile units).
RESERVOIR_WINDOWS = {0.50: 0.035, 0.95: 0.016, 0.99: 0.007}


def _exact_rank(ordered, quantile):
    rank = min(len(ordered), max(1, math.ceil(quantile * len(ordered))))
    return float(ordered[rank - 1])


def _bimodal(n=50_000, seed=0):
    """Fast mode at ~100 cycles, slow mode at ~10_000, 4:1 -- the shape a
    memo-hit/memo-miss latency split produces."""
    rng = np.random.default_rng(seed)
    fast = rng.normal(100.0, 5.0, n)
    slow = rng.normal(10_000.0, 300.0, n)
    pick = rng.random(n) < 0.8
    return np.abs(np.where(pick, fast, slow))


def _heavy_tail(n=50_000, seed=1):
    """Lognormal with sigma=2: the p99 sits far above the p50."""
    rng = np.random.default_rng(seed)
    return rng.lognormal(mean=5.0, sigma=2.0, size=n)


def _assert_in_rank_window(estimate, ordered, quantile, half_window, label):
    low = _exact_rank(ordered, max(1e-9, quantile - half_window))
    high = _exact_rank(ordered, min(1.0, quantile + half_window))
    assert low <= estimate <= high, (
        f"{label} p{100 * quantile:g} estimate {estimate:.1f} outside the "
        f"exact rank window [{low:.1f}, {high:.1f}]")


class TestReservoirSampler:
    def test_sample_is_the_stream_below_capacity(self):
        sampler = ReservoirSampler(size=16)
        for value in range(10):
            sampler.add(float(value))
        assert sampler.values == [float(v) for v in range(10)]
        assert sampler.quantiles([0.5, 1.0]) == [4.0, 9.0]

    def test_deterministic_across_runs(self):
        values = _heavy_tail(n=20_000).tolist()
        first = ReservoirSampler(size=256)
        second = ReservoirSampler(size=256)
        for value in values:
            first.add(value)
            second.add(value)
        assert first.values == second.values

    def test_reservoir_stays_fixed_size_and_fresh(self):
        sampler = ReservoirSampler(size=64)
        for value in range(10_000):
            sampler.add(float(value))
        assert len(sampler.values) == 64
        assert sampler.count == 10_000
        # Admission keeps sampling the whole stream, not just the prefix.
        assert max(sampler.values) > 5_000

    @pytest.mark.parametrize("quantile", [0.50, 0.95, 0.99])
    @pytest.mark.parametrize("sample", [_bimodal, _heavy_tail])
    def test_rank_window_on_adversarial_distributions(self, sample,
                                                      quantile):
        values = sample()
        sampler = ReservoirSampler(size=4096)
        for value in values.tolist():
            sampler.add(value)
        (estimate,) = sampler.quantiles([quantile])
        _assert_in_rank_window(estimate, np.sort(values), quantile,
                               RESERVOIR_WINDOWS[quantile], "reservoir")

    def test_validation(self):
        with pytest.raises(ValueError):
            ReservoirSampler(size=0)
        sampler = ReservoirSampler()
        sampler.add(1.0)
        with pytest.raises(ValueError):
            sampler.quantiles([0.0])

    def test_quantiles_are_validated_on_an_empty_sample(self):
        """Out-of-range quantiles raise before the empty-sample shortcut,
        exactly as they do once a value is in."""
        with pytest.raises(ValueError):
            ReservoirSampler().quantiles([1.5, -2])
        assert ReservoirSampler().quantiles([0.5, 1.0]) == [0.0, 0.0]

    def test_add_many_beyond_the_jump_table(self):
        """One batch longer than the LCG jump-ahead table, starting inside
        the fill phase, equals one-by-one ``add``."""
        values = _heavy_tail(n=5_000).tolist()
        one = ReservoirSampler(size=100)
        for value in values:
            one.add(value)
        batched = ReservoirSampler(size=100)
        batched.add_many(values)
        assert batched.count == one.count
        assert batched.values == one.values
        assert batched._state == one._state


class TestStreamingLatencyStats:
    def test_count_mean_max_are_exact(self):
        values = [10.0, 40.0, 20.0, 30.0]
        stats = StreamingLatencyStats()
        for value in values:
            stats.add(value)
        snapshot = stats.finalize()
        assert snapshot.count == 4
        assert snapshot.mean == 25.0
        assert snapshot.max == 40.0

    def test_reservoir_mode_exact_below_capacity(self):
        values = list(range(1, 101))
        stats = StreamingLatencyStats(reservoir_size=4096)
        for value in values:
            stats.add(float(value))
        snapshot = stats.finalize()
        assert snapshot == LatencyStats.from_latencies(values)

    def test_empty_stream(self):
        snapshot = StreamingLatencyStats().finalize()
        assert snapshot == LatencyStats(count=0, mean=0.0, p50=0.0,
                                        p95=0.0, p99=0.0, max=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingLatencyStats(reservoir_size=0)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(st.integers(0, 1 << 40),
                                     st.floats(0.0, 1e12)), max_size=150),
           cuts=st.lists(st.integers(0, 150), max_size=8),
           size=st.integers(1, 48))
    def test_add_many_equals_one_by_one(self, values, cuts, size):
        """Any split of a stream into ``add_many`` batches (empty ones and
        ones crossing the reservoir size included) leaves the same state
        as ``add`` per value: count, left-to-right total, max, snapshot,
        and the reservoir's sample and LCG state."""
        one = StreamingLatencyStats(reservoir_size=size)
        for value in values:
            one.add(value)
        batched = StreamingLatencyStats(reservoir_size=size)
        bounds = sorted([0, len(values)]
                        + [min(cut, len(values)) for cut in cuts])
        for low, high in zip(bounds, bounds[1:]):
            batched.add_many(values[low:high])
        assert (batched.count, batched.total, batched.max) == (
            one.count, one.total, one.max)
        assert batched.finalize() == one.finalize()
        assert batched._reservoir.values == one._reservoir.values
        assert batched._reservoir._state == one._reservoir._state
