"""Tests of the simulation farm: batching, caching, backends, validation.

The load-bearing property is *memoisation soundness*: a farm-produced timing
record must be indistinguishable from what a direct
:meth:`repro.redmule.engine.RedMulE.run_job` call measures for the same
shape, and a cache hit must return a record equal to the original miss.
Degenerate shapes (unit dimensions, tall-skinny, accumulation jobs) get
explicit coverage because they exercise the padding and preload paths where
timing bugs would hide.
"""

import pytest

from repro.farm import (
    BACKEND_ENGINE,
    BACKEND_MODEL,
    FarmValidationError,
    SimulationFarm,
    TimingCache,
    TimingKey,
    default_farm,
    reset_default_farms,
)
from repro.farm.cache import config_key
from repro.farm.workers import simulate_engine_timing
from repro.interco.hci import Hci, HciConfig
from repro.mem.layout import MemoryAllocator
from repro.mem.tcdm import Tcdm
from repro.redmule.config import RedMulEConfig
from repro.redmule.engine import RedMulE
from repro.redmule.job import MatmulJob
from repro.redmule.perf_model import RedMulEPerfModel

#: Degenerate and edge-case shapes: unit dimensions, tall-skinny matrices,
#: ragged tiles.  Timing for all of them must memoise exactly.
EDGE_SHAPES = [
    (1, 1, 1),      # the smallest possible job
    (1, 40, 1),     # unit output, long inner dimension
    (8, 1, 8),      # unit inner dimension
    (1, 16, 16),    # single X row
    (16, 16, 1),    # single Z column
    (64, 4, 4),     # tall-skinny
    (13, 7, 5),     # everything ragged
]


def _direct_run(m, n, k, accumulate=False, config=None):
    """Reference path: one engine, canonical operand placement, run_job."""
    config = config or RedMulEConfig.reference()
    tcdm = Tcdm()
    hci = Hci(tcdm, HciConfig(n_wide_ports=config.n_mem_ports))
    engine = RedMulE(config, hci)
    allocator = MemoryAllocator(tcdm.base, tcdm.size)
    hx = allocator.alloc_matrix(m, n, "X")
    hw = allocator.alloc_matrix(n, k, "W")
    hz = allocator.alloc_matrix(m, k, "Z")
    job = MatmulJob.from_handles(hx, hw, hz, accumulate=accumulate)
    return engine.run_job(job)


@pytest.fixture
def farm():
    """A serial engine-backend farm on the reference configuration."""
    return SimulationFarm(backend=BACKEND_ENGINE, max_workers=1)


class TestFarmMatchesDirectRuns:
    @pytest.mark.parametrize("m,n,k", EDGE_SHAPES)
    def test_engine_records_match_direct_run_job(self, farm, m, n, k):
        direct = _direct_run(m, n, k)
        result = farm.run_gemm(m, n, k)
        assert not result.cache_hit
        assert result.backend == BACKEND_ENGINE
        assert result.cycles == direct.cycles
        assert result.stall_cycles == direct.stall_cycles
        assert result.record.active_cycles == direct.active_cycles
        assert result.total_macs == direct.total_macs
        assert result.record.issued_macs == direct.issued_macs
        assert result.n_tiles == direct.n_tiles
        assert result.record.peak_macs_per_cycle == direct.peak_macs_per_cycle
        assert result.macs_per_cycle == direct.macs_per_cycle
        assert result.utilisation == direct.utilisation

    @pytest.mark.parametrize("m,n,k", [(1, 1, 1), (8, 1, 8), (13, 7, 5)])
    def test_accumulate_jobs_match_direct_run_job(self, farm, m, n, k):
        direct = _direct_run(m, n, k, accumulate=True)
        result = farm.run_gemm(m, n, k, accumulate=True)
        assert result.cycles == direct.cycles
        assert result.stall_cycles == direct.stall_cycles
        assert result.n_tiles == direct.n_tiles

    def test_accumulate_is_a_distinct_cache_entry(self, farm):
        plain = farm.run_gemm(8, 16, 16)
        accumulate = farm.run_gemm(8, 16, 16, accumulate=True)
        assert accumulate.cycles > plain.cycles  # Z pre-load costs cycles
        assert not accumulate.cache_hit

    def test_non_reference_geometry(self):
        config = RedMulEConfig(height=2, length=4, pipeline_regs=1)
        farm = SimulationFarm(config=config, backend=BACKEND_ENGINE,
                              max_workers=1)
        direct = _direct_run(9, 11, 6, config=config)
        result = farm.run_gemm(9, 11, 6)
        assert result.cycles == direct.cycles
        assert result.record.peak_macs_per_cycle == config.n_fma == 8

    def test_model_backend_matches_perf_model_exactly(self, farm):
        model = RedMulEPerfModel(RedMulEConfig.reference())
        for m, n, k in EDGE_SHAPES:
            estimate = model.estimate_gemm(m, n, k)
            result = farm.estimate_gemm(m, n, k)
            assert result.backend == BACKEND_MODEL
            assert result.cycles == estimate.cycles
            assert result.ideal_cycles == estimate.ideal_cycles
            assert result.utilisation == estimate.utilisation
            assert result.fraction_of_ideal == estimate.fraction_of_ideal


class TestCaching:
    def test_cache_hit_returns_equal_record(self, farm):
        first = farm.run_gemm(8, 16, 16)
        second = farm.run_gemm(8, 16, 16)
        assert not first.cache_hit and second.cache_hit
        assert second.record == first.record
        assert farm.cache.stats.hits == 1
        assert farm.stats.engine_runs == 1

    def test_batch_deduplicates_repeated_shapes(self, farm):
        jobs = [MatmulJob(0, 0, 0, 8, 16, 16) for _ in range(10)]
        results = farm.run(jobs)
        assert len(results) == 10
        assert farm.stats.engine_runs == 1  # one simulation served all ten
        assert len({result.record for result in results}) == 1
        # First submission of the shape was a miss; the repeats were hits --
        # in the per-result flags and in the cache statistics alike.
        assert [result.cache_hit for result in results] == [False] + [True] * 9
        assert farm.cache.stats.hits == 9
        assert farm.cache.stats.misses == 1

    def test_results_come_back_in_submission_order(self, farm):
        shapes = [(8, 16, 16), (1, 1, 1), (8, 16, 16), (13, 7, 5)]
        jobs = [MatmulJob(0, 0, 0, m, n, k) for m, n, k in shapes]
        results = farm.run(jobs)
        assert [(r.job.m, r.job.n, r.job.k) for r in results] == shapes

    def test_lru_eviction_and_stats(self):
        cache = TimingCache(max_entries=2)
        farm = SimulationFarm(backend=BACKEND_ENGINE, max_workers=1,
                              cache=cache)
        farm.run_gemm(1, 1, 1)
        farm.run_gemm(1, 2, 1)
        farm.run_gemm(1, 3, 1)  # evicts (1, 1, 1)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        result = farm.run_gemm(1, 1, 1)  # re-simulated, not served stale
        assert not result.cache_hit

    def test_cache_is_shareable_between_farms(self):
        cache = TimingCache()
        first = SimulationFarm(backend=BACKEND_ENGINE, max_workers=1,
                               cache=cache)
        second = SimulationFarm(backend=BACKEND_ENGINE, max_workers=1,
                                cache=cache)
        miss = first.run_gemm(8, 16, 16)
        hit = second.run_gemm(8, 16, 16)
        assert hit.cache_hit
        assert hit.record == miss.record

    def test_describe_reports_hit_rate(self, farm):
        farm.run_gemm(8, 16, 16)
        farm.run_gemm(8, 16, 16)
        assert "1 hits / 1 misses" in farm.cache.describe()
        assert "simulation farm" in farm.describe()


class TestBackendSelection:
    def test_auto_routes_small_jobs_to_the_engine(self):
        farm = SimulationFarm(max_workers=1)
        small = MatmulJob(0, 0, 0, 8, 16, 16)
        large = MatmulJob(0, 0, 0, 512, 512, 512)
        assert farm.resolve_backend(small) == BACKEND_ENGINE
        assert farm.resolve_backend(large) == BACKEND_MODEL

    def test_explicit_backend_overrides_auto(self):
        farm = SimulationFarm(max_workers=1)
        small = MatmulJob(0, 0, 0, 8, 16, 16)
        assert farm.resolve_backend(small, BACKEND_MODEL) == BACKEND_MODEL
        result = farm.run_job(small, backend=BACKEND_MODEL)
        assert result.backend == BACKEND_MODEL

    def test_backends_do_not_share_cache_entries(self):
        farm = SimulationFarm(max_workers=1)
        engine = farm.run_gemm(8, 16, 16, backend=BACKEND_ENGINE)
        model = farm.run_gemm(8, 16, 16, backend=BACKEND_MODEL)
        assert not model.cache_hit
        assert engine.record != model.record

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            SimulationFarm(backend="fpga")

    def test_unknown_per_call_backend_rejected_on_a_miss(self):
        farm = SimulationFarm(max_workers=1)
        with pytest.raises(ValueError, match="unknown backend"):
            farm.run_gemm(8, 8, 8, backend="fpga")

    @pytest.mark.parametrize("config", [
        RedMulEConfig.reference(),
        RedMulEConfig(height=8, length=4, pipeline_regs=2,
                      w_prefetch_lines=2, z_queue_depth=16,
                      format="fp8-e4m3"),
    ], ids=["reference", "fp8-wide"])
    def test_model_misses_match_the_per_key_worker(self, config):
        # The farm times its model misses on one model of its own config;
        # each record equals the worker's, which rebuilds the config from
        # the key.
        from repro.farm.workers import simulate_key

        farm = SimulationFarm(config=config, backend=BACKEND_MODEL,
                              max_workers=1)
        jobs = [MatmulJob(0, 0, 0, m, n, k, accumulate=accumulate,
                          element_bytes=config.element_bytes)
                for m, n, k in ((8, 16, 16), (33, 7, 65), (96, 96, 96))
                for accumulate in (False, True)]
        results = farm.run(jobs)
        assert farm.stats.model_runs == len(jobs)
        for job, result in zip(jobs, results):
            key = TimingKey.for_job(config, job, BACKEND_MODEL)
            assert result.record == simulate_key(key)


class TestValidationMode:
    def test_within_default_tolerance(self):
        farm = SimulationFarm(backend=BACKEND_ENGINE, max_workers=1,
                              validate=True)
        farm.run_gemm(8, 16, 16)
        farm.run_gemm(13, 7, 5, accumulate=True)
        assert farm.stats.validations == 2
        assert all(report.within_tolerance
                   for report in farm.validation_reports)

    # On the reference instance the model is bit-exact for every shape, so
    # tripping the cross-check needs a geometry whose wide port saturates
    # mid-tile: H=6, L=8, P=1 has block_k = 12 < H + L = 14 line slots of
    # per-window demand once X refills kick in (n > 12), and the engine
    # stalls a couple of cycles beyond the closed form.
    _CONTENDED = RedMulEConfig(height=6, length=8, pipeline_regs=1)

    def test_raises_beyond_tolerance(self):
        farm = SimulationFarm(config=self._CONTENDED, backend=BACKEND_ENGINE,
                              max_workers=1, validate=True, tolerance=1e-6)
        with pytest.raises(FarmValidationError):
            farm.run_gemm(12, 40, 8)

    def test_failed_validation_keeps_the_engine_record(self):
        """The engine simulation is ground truth: a tolerance breach must
        not discard it, or a retry would redo the whole expensive batch."""
        farm = SimulationFarm(config=self._CONTENDED, backend=BACKEND_ENGINE,
                              max_workers=1, validate=True, tolerance=1e-6)
        with pytest.raises(FarmValidationError):
            farm.run_gemm(12, 40, 8)
        assert farm.stats.engine_runs == 1
        # Re-running without validation serves the memoised record.
        relaxed = SimulationFarm(config=self._CONTENDED,
                                 backend=BACKEND_ENGINE, max_workers=1,
                                 cache=farm.cache)
        result = relaxed.run_gemm(12, 40, 8)
        assert result.cache_hit
        assert relaxed.stats.engine_runs == 0

    def test_validation_populates_model_cache(self):
        farm = SimulationFarm(backend=BACKEND_ENGINE, max_workers=1,
                              validate=True)
        farm.run_gemm(8, 16, 16)
        model_key = TimingKey(
            config=config_key(farm.config), m=8, n=16, k=16,
            accumulate=False, backend=BACKEND_MODEL,
        )
        assert farm.cache.peek(model_key) is not None


class TestWorkloadTiming:
    def test_matches_metrics_time_workload_hw(self):
        from repro.perf.metrics import time_workload_hw
        from repro.workloads.gemm import square_sweep

        shapes = square_sweep([8, 16, 8, 32])  # repeated shape on purpose
        farm = SimulationFarm(max_workers=1)
        direct = time_workload_hw(shapes, offload_cycles_per_job=70.0)
        farmed = farm.time_workload(shapes, offload_cycles_per_job=70.0)
        assert farmed.cycles == direct.cycles
        assert farmed.macs == direct.macs
        assert farmed.per_gemm == direct.per_gemm

    def test_repeated_shapes_hit_the_cache(self):
        from repro.workloads.gemm import square_sweep

        farm = SimulationFarm(max_workers=1)
        farm.time_workload(square_sweep([8, 16, 8, 16, 8]))
        assert farm.cache.stats.misses == 2  # two distinct shapes only

    def test_backend_none_normalises_to_model(self):
        """Threading an optional backend through must not silently switch a
        workload onto the auto policy (and thus the engine)."""
        from repro.workloads.gemm import square_sweep

        farm = SimulationFarm(max_workers=1)
        timing = farm.time_workload(square_sweep([8]), backend=None)
        assert farm.stats.model_runs == 1
        assert farm.stats.engine_runs == 0
        assert timing.cycles == RedMulEPerfModel().estimate_gemm(8, 8, 8).cycles


class TestDefaultFarmRegistry:
    def test_farm_for_config_rejects_mismatched_farm(self):
        from repro.farm import farm_for_config

        other = SimulationFarm(config=RedMulEConfig(height=8, length=8))
        with pytest.raises(ValueError, match="farm/config mismatch"):
            farm_for_config(RedMulEConfig.reference(), other)

    def test_experiment_driver_rejects_mismatched_farm(self):
        from repro.experiments import energy_per_mac_sweep

        other = SimulationFarm(config=RedMulEConfig(height=8, length=8))
        with pytest.raises(ValueError, match="farm/config mismatch"):
            energy_per_mac_sweep((8,), farm=other)

    def test_same_config_returns_same_farm(self):
        reset_default_farms()
        try:
            first = default_farm()
            second = default_farm(RedMulEConfig.reference())
            other = default_farm(RedMulEConfig(height=2, length=4))
            assert first is second
            assert other is not first
        finally:
            reset_default_farms()

    def test_experiments_share_the_default_cache(self):
        from repro.experiments import energy_per_mac_sweep, throughput_sweep

        reset_default_farms()
        try:
            energy_per_mac_sweep((8, 32))
            shared = default_farm()
            before = shared.cache.stats.hits
            throughput_sweep((8, 32))  # same shapes: pure cache hits
            assert shared.cache.stats.hits == before + 2
        finally:
            reset_default_farms()


class TestProcessPool:
    def test_pooled_records_match_serial_records(self):
        shapes = [(8, 16, 16), (13, 7, 5), (1, 40, 1)]
        jobs = [MatmulJob(0, 0, 0, m, n, k) for m, n, k in shapes]
        serial = SimulationFarm(backend=BACKEND_ENGINE, max_workers=1)
        pooled = SimulationFarm(backend=BACKEND_ENGINE, max_workers=2)
        expected = [result.record for result in serial.run(jobs)]
        actual = [result.record for result in pooled.run(jobs)]
        # Identical records whether the pool ran or the fallback engaged.
        assert actual == expected
        assert pooled.stats.pool_batches + pooled.stats.pool_failures == 1

    def test_single_miss_stays_serial(self):
        pooled = SimulationFarm(backend=BACKEND_ENGINE, max_workers=2)
        pooled.run_gemm(8, 16, 16)
        assert pooled.stats.pool_batches == 0  # not worth a pool round-trip

    def test_pool_is_reused_across_batches(self):
        with SimulationFarm(backend=BACKEND_ENGINE, max_workers=2) as farm:
            farm.run([MatmulJob(0, 0, 0, m, 16, 16) for m in (1, 2)])
            pool = farm._pool
            farm.run([MatmulJob(0, 0, 0, m, 16, 16) for m in (3, 4)])
            if pool is not None:  # pool available on this host
                assert farm._pool is pool  # no per-batch executor churn
                assert farm.stats.pool_batches == 2
        assert farm._pool is None  # context exit released the workers

    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        from repro.farm import PoolUnavailableError

        farm = SimulationFarm(backend=BACKEND_ENGINE, max_workers=2)

        def broken_pool(keys):
            raise PoolUnavailableError("no process pool on this host")

        monkeypatch.setattr(farm, "_simulate_with_pool", broken_pool)
        jobs = [MatmulJob(0, 0, 0, m, n, k)
                for m, n, k in [(8, 16, 16), (13, 7, 5)]]
        results = farm.run(jobs)
        assert farm.stats.pool_failures == 1
        assert [result.cycles for result in results] == [
            _direct_run(8, 16, 16).cycles, _direct_run(13, 7, 5).cycles,
        ]
        # Later batches skip the doomed pool and stay serial.
        farm.run([MatmulJob(0, 0, 0, 1, 16, 16), MatmulJob(0, 0, 0, 2, 16, 16)])
        assert farm.stats.pool_failures == 1


class TestWorkerHelpers:
    def test_oversized_shape_gets_a_deeper_tcdm(self):
        # 256x256x4 operands need 135,168 bytes -- more than the 128 KiB
        # reference TCDM -- so this exercises the worker's TCDM resize path
        # (the shape is engine-eligible under the default auto threshold).
        record = simulate_engine_timing(
            config_key(RedMulEConfig.reference()), 256, 256, 4, False
        )
        assert record.cycles > record.ideal_cycles
        assert record.total_macs == 256 * 256 * 4

    def test_options_are_keyword_only(self):
        # A caller passing a sixth positional argument (the retired
        # ``exact`` flag) must fail loudly, not bind it to ``max_cycles``.
        key = config_key(RedMulEConfig.reference())
        with pytest.raises(TypeError):
            simulate_engine_timing(key, 1, 1, 1, False, False)
        record = simulate_engine_timing(key, 1, 1, 1, False, max_cycles=10_000,
                                        arithmetic="exact")
        assert record.total_macs == 1

    def test_unknown_backend_rejected(self):
        from repro.farm.workers import simulate_key

        key = TimingKey(config=config_key(RedMulEConfig.reference()),
                        m=1, n=1, k=1, accumulate=False, backend="fpga")
        with pytest.raises(ValueError):
            simulate_key(key)


class TestStatsSnapshots:
    """`FarmStats`/`CacheStats` snapshot-and-reset (the --farm-stats JSON)."""

    def test_farm_stats_snapshot_and_reset(self):
        farm = SimulationFarm(backend="model", max_workers=1)
        farm.run([MatmulJob(0, 0, 0, 4, 4, 4), MatmulJob(0, 0, 0, 4, 8, 4)])
        snap = farm.stats.snapshot()
        assert snap["jobs"] == 2
        assert snap["batches"] == 1
        assert snap["model_runs"] == 2
        # The snapshot is a copy: mutating it leaves the farm untouched.
        snap["jobs"] = 99
        assert farm.stats.jobs == 2
        farm.stats.reset()
        assert farm.stats.snapshot() == {
            "jobs": 0, "engine_runs": 0, "model_runs": 0, "validations": 0,
            "backend_validations": 0, "batches": 0, "pool_batches": 0,
            "pool_failures": 0,
        }
        # The farm (cache included) still works after a stats reset.
        farm.run([MatmulJob(0, 0, 0, 4, 4, 4)])
        assert farm.stats.snapshot()["jobs"] == 1

    def test_cache_stats_snapshot_and_reset(self):
        farm = SimulationFarm(backend="model", max_workers=1)
        job = MatmulJob(0, 0, 0, 4, 4, 4)
        farm.run([job])
        farm.run([job])
        snap = farm.cache.stats.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["lookups"] == 2
        assert snap["hit_rate"] == pytest.approx(0.5)
        farm.cache.stats.reset()
        assert farm.cache.stats.snapshot() == {
            "hits": 0, "misses": 0, "evictions": 0,
            "lookups": 0, "hit_rate": 0.0,
        }
        # Resetting stats does not evict entries: the next run still hits.
        farm.run([job])
        assert farm.cache.stats.hits == 1
