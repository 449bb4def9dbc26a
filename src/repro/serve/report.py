"""Serving metrics: latency percentiles, throughput, utilisation, tenants.

All raw quantities are in cluster clock cycles (the serving simulator's time
base); rates are additionally reported in wall-clock terms through the
scenario's operating frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.obs.report import TextTable


def nearest_rank(ordered: Sequence[float], quantile: float) -> float:
    """Nearest-rank quantile of a sorted, non-empty sample: the
    ``ceil(quantile * n)``-th value, clamped into the sample."""
    count = len(ordered)
    return float(ordered[min(count, max(1, math.ceil(quantile * count))) - 1])


def percentile(values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile of a sample (0 < quantile <= 1)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {quantile}")
    return nearest_rank(sorted(values), quantile)


@dataclass(frozen=True)
class LatencyStats:
    """Latency distribution of a set of completed requests (cycles)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def from_latencies(cls, latencies: Sequence[float]) -> "LatencyStats":
        """Summarise a latency sample (empty samples become all-zero).

        The sample is sorted once and every nearest-rank percentile is read
        off the single ordered copy (the previous implementation re-sorted
        the full sample per percentile, an O(3 n log n) habit that showed up
        in large serving reports).
        """
        if not latencies:
            return cls(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, max=0.0)
        ordered = sorted(latencies)
        return cls(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            p50=nearest_rank(ordered, 0.50),
            p95=nearest_rank(ordered, 0.95),
            p99=nearest_rank(ordered, 0.99),
            max=float(ordered[-1]),
        )


# -- streaming estimators ----------------------------------------------------
#: Knuth's 64-bit LCG constants (MMIX): fast, deterministic, and plenty
#: uniform for reservoir admission decisions.
_LCG_MULTIPLIER = 6364136223846793005
_LCG_INCREMENT = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def _lcg_jump_table(length: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(a^i, c * sum_{j<i} a^j) mod 2^64`` for i = 1..length: the LCG
    state i steps after ``s`` is ``a^i * s + c * sum_{j<i} a^j``."""
    powers, offsets = [_LCG_MULTIPLIER], [_LCG_INCREMENT]
    while len(powers) < length:
        powers.append(powers[-1] * _LCG_MULTIPLIER & _LCG_MASK)
        offsets.append((offsets[-1] * _LCG_MULTIPLIER + _LCG_INCREMENT)
                       & _LCG_MASK)
    return np.array(powers, np.uint64), np.array(offsets, np.uint64)


#: Jump-ahead table of :meth:`ReservoirSampler.add_many` (its vector step).
_LCG_POWERS, _LCG_OFFSETS = _lcg_jump_table(1024)


class ReservoirSampler:
    """Uniform fixed-size reservoir (Vitter's Algorithm R), deterministic.

    Keeps an unbiased ``size``-element sample of an unbounded stream in O(1)
    per observation.  Randomness comes from an inline 64-bit LCG rather than
    ``numpy``/``random`` so (a) admission costs ~2 integer ops on the
    serving hot path and (b) the sample -- and therefore every reported
    percentile -- is bit-reproducible across runs and platforms.

    While the stream is no longer than the reservoir the sample *is* the
    stream, so quantiles are exact -- the small-scenario fidelity the test
    suite relies on.
    """

    __slots__ = ("size", "count", "values", "_state")

    def __init__(self, size: int = 4096, seed: int = 0x9E3779B97F4A7C15):
        if size < 1:
            raise ValueError("reservoir size must be at least 1")
        self.size = size
        self.count = 0
        self.values: List[float] = []
        self._state = seed & _LCG_MASK

    def add(self, value: float) -> None:
        """Offer one observation to the reservoir."""
        count = self.count = self.count + 1
        if count <= self.size:
            self.values.append(value)
            return
        state = (self._state * _LCG_MULTIPLIER + _LCG_INCREMENT) & _LCG_MASK
        self._state = state
        # Admit with probability size/count: slot j uniform in [0, count).
        slot = (state >> 11) % count
        if slot < self.size:
            self.values[slot] = value

    def add_many(self, values: Sequence[float]) -> None:
        """Offer observations in order; the same sample and LCG state as
        calling :meth:`add` on each.

        Past the fill phase the LCG states of a whole step come from the
        jump-ahead table at once, so only admitted values cost Python work.
        """
        fill = max(0, min(len(values), self.size - self.count))
        self.values.extend(values[:fill])
        self.count += fill
        for start in range(fill, len(values), len(_LCG_POWERS)):
            batch = values[start:start + len(_LCG_POWERS)]
            states = (_LCG_POWERS[:len(batch)] * np.uint64(self._state)
                      + _LCG_OFFSETS[:len(batch)])
            counts = np.arange(self.count + 1, self.count + len(batch) + 1,
                               dtype=np.uint64)
            slots = (states >> np.uint64(11)) % counts
            for index in np.flatnonzero(slots < self.size).tolist():
                self.values[int(slots[index])] = batch[index]
            self.count += len(batch)
            self._state = int(states[-1])

    def quantiles(self, quantiles: Sequence[float]) -> List[float]:
        """Nearest-rank quantiles over the current sample (sorted once)."""
        for quantile in quantiles:
            if not 0.0 < quantile <= 1.0:
                raise ValueError(f"quantile must be in (0, 1], {quantile}")
        if not self.values:
            return [0.0 for _ in quantiles]
        ordered = sorted(self.values)
        return [nearest_rank(ordered, quantile) for quantile in quantiles]


class StreamingLatencyStats:
    """Latency accumulator with bounded memory and exact count/mean/max.

    Percentiles come from a deterministic uniform :class:`ReservoirSampler`
    of ``reservoir_size`` observations: exact until the stream exceeds the
    reservoir, sample quantiles after.  ``finalize()`` snapshots the
    distribution as a plain :class:`LatencyStats`.
    """

    __slots__ = ("count", "total", "max", "_reservoir")

    _QUANTILES = (0.50, 0.95, 0.99)

    def __init__(self, reservoir_size: int = 4096) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self._reservoir = ReservoirSampler(reservoir_size)

    def add(self, value: float) -> None:
        """Fold one latency observation in."""
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        self._reservoir.add(value)

    def add_many(self, values: Sequence[float]) -> None:
        """Fold observations in order; the same state as :meth:`add` on
        each (the running total is summed left to right, as ``add`` does).
        """
        if not len(values):
            return
        self.count += len(values)
        totals = np.array(values, dtype=np.float64)
        totals[0] += self.total
        self.total = float(np.add.accumulate(totals)[-1])
        peak = max(values)
        if peak > self.max:
            self.max = peak
        self._reservoir.add_many(values)

    def finalize(self) -> LatencyStats:
        """Snapshot the stream as a :class:`LatencyStats`."""
        if self.count == 0:
            return LatencyStats(count=0, mean=0.0, p50=0.0, p95=0.0,
                                p99=0.0, max=0.0)
        p50, p95, p99 = self._reservoir.quantiles(self._QUANTILES)
        return LatencyStats(count=self.count, mean=self.total / self.count,
                            p50=p50, p95=p95, p99=p99, max=float(self.max))


@dataclass(frozen=True)
class TenantReport:
    """Per-tenant serving outcome."""

    tenant: str
    completed: int
    total_cycles: int
    latency: LatencyStats

    def throughput_rps(self, makespan_cycles: float,
                       frequency_hz: float) -> float:
        """Requests per wall-clock second over the run's makespan."""
        if makespan_cycles <= 0:
            return 0.0
        return self.completed / (makespan_cycles / frequency_hz)


@dataclass
class ServePoolStats:
    """Cluster-pool shape over one continuous serving run."""

    #: Pool size at the start / smallest / largest / final.
    initial_clusters: int
    min_clusters: int
    max_clusters: int
    final_clusters: int
    #: Scale events applied by the autoscaler (or forced externally).
    scale_ups: int = 0
    scale_downs: int = 0
    #: Time integral of the pool size (cluster-cycles of provisioned
    #: capacity) -- the utilisation denominator under autoscaling.
    pool_cycles: float = 0.0


@dataclass
class ContinuousReport:
    """Outcome of one serving run.

    Requests are admitted or rejected at arrival, the pool may resize
    mid-run, and the latency distribution is tracked by a streaming
    estimator rather than a kept-everything sort.
    """

    scenario: str
    frequency_hz: float
    #: Last completion cycle (0 when nothing completed).
    makespan_cycles: int
    offered: int
    admitted: int
    rejected: int
    completed: int
    latency: LatencyStats
    tenants: Dict[str, TenantReport]
    rejected_by_tenant: Dict[str, int]
    pool: ServePoolStats
    #: Busy cluster-cycles summed over the whole (resizable) pool.
    busy_cycles: float
    #: Service-time memo traffic: hits skip the farm entirely.
    memo_hits: int = 0
    memo_misses: int = 0
    jobs_timed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    models: Dict[str, int] = field(default_factory=dict)
    #: Continuous-batching outcome (zeros when the run had no decode
    #: sessions): completed sessions, total batched-step events, steps that
    #: ran at occupancy > 1, and the occupancy profile of all steps.
    decode_sessions: int = 0
    decode_steps: int = 0
    decode_batched_steps: int = 0
    decode_mean_occupancy: float = 0.0
    decode_max_occupancy: int = 0
    #: The server's decode batching cap (1 = no cross-request batching).
    batch_cap: int = 1

    # -- derived -------------------------------------------------------------
    @property
    def throughput_rps(self) -> float:
        """Completed requests per wall-clock second over the makespan."""
        if self.makespan_cycles <= 0:
            return 0.0
        return self.completed / (self.makespan_cycles / self.frequency_hz)

    @property
    def decode_batched_fraction(self) -> float:
        """Fraction of decode steps that ran at occupancy > 1."""
        if self.decode_steps == 0:
            return 0.0
        return self.decode_batched_steps / self.decode_steps

    @property
    def rejection_rate(self) -> float:
        """Fraction of offered requests refused at admission."""
        if self.offered == 0:
            return 0.0
        return self.rejected / self.offered

    @property
    def utilisation(self) -> float:
        """Busy fraction of provisioned cluster-cycles."""
        if self.pool.pool_cycles <= 0:
            return 0.0
        return self.busy_cycles / self.pool.pool_cycles

    @property
    def mean_clusters(self) -> float:
        """Time-averaged pool size."""
        if self.makespan_cycles <= 0:
            return float(self.pool.final_clusters)
        return self.pool.pool_cycles / self.makespan_cycles

    @property
    def memo_hit_rate(self) -> float:
        """Service-memo hit rate (hits never touch the farm)."""
        lookups = self.memo_hits + self.memo_misses
        if lookups == 0:
            return 0.0
        return self.memo_hits / lookups

    @property
    def cache_hit_rate(self) -> float:
        """Timing-cache hit rate over this run's farm lookups."""
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return 0.0
        return self.cache_hits / lookups

    # -- rendering -----------------------------------------------------------
    def render(self) -> str:
        """Multi-line human-readable report."""
        pool = self.pool
        lines = [
            f"continuous serving {self.scenario}: {self.offered} offered, "
            f"{self.completed} completed, {self.rejected} rejected "
            f"({100 * self.rejection_rate:.1f}%), makespan "
            f"{self.makespan_cycles} cycles "
            f"({self.makespan_cycles / self.frequency_hz * 1e3:.2f} ms at "
            f"{self.frequency_hz / 1e6:.0f} MHz)",
            f"  throughput : {self.throughput_rps:.1f} req/s",
            f"  latency    : p50 {self.latency.p50:.0f}  "
            f"p95 {self.latency.p95:.0f}  p99 {self.latency.p99:.0f}  "
            f"max {self.latency.max:.0f} cycles",
            f"  pool       : {pool.initial_clusters} -> "
            f"{pool.final_clusters} clusters "
            f"(min {pool.min_clusters}, max {pool.max_clusters}, "
            f"mean {self.mean_clusters:.2f}; "
            f"{pool.scale_ups} up / {pool.scale_downs} down), "
            f"utilisation {100 * self.utilisation:.1f}%",
            f"  service    : {self.memo_hits} memo hits / "
            f"{self.memo_misses} misses "
            f"({100 * self.memo_hit_rate:.1f}%), {self.jobs_timed} jobs "
            f"timed, farm cache {self.cache_hits} hits / "
            f"{self.cache_misses} misses",
        ]
        if self.decode_steps:
            lines.append(
                f"  decode     : {self.decode_sessions} sessions, "
                f"{self.decode_steps} steps "
                f"({self.decode_batched_steps} batched, "
                f"{100 * self.decode_batched_fraction:.1f}%), occupancy "
                f"mean {self.decode_mean_occupancy:.2f} / "
                f"max {self.decode_max_occupancy} (cap {self.batch_cap})")
        if self.models:
            mix = ", ".join(f"{name}: {count}"
                            for name, count in sorted(self.models.items()))
            lines.append(f"  models     : {mix}")
        if self.tenants:
            table = TextTable(["tenant", "completed", "rejected", "p50",
                               "p99", "mean", "req/s"])
            for name in sorted(self.tenants):
                tenant = self.tenants[name]
                table.add_row([
                    name, tenant.completed,
                    self.rejected_by_tenant.get(name, 0),
                    tenant.latency.p50, tenant.latency.p99,
                    tenant.latency.mean,
                    tenant.throughput_rps(self.makespan_cycles,
                                          self.frequency_hz),
                ])
            lines.append("  per tenant (latency in cycles):")
            lines.extend("    " + line for line in table.render().splitlines())
        return "\n".join(lines)
