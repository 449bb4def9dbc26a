"""Tests of the simulation farm: batching, caching, backends, serial misses.

The load-bearing property is *memoisation soundness*: a farm-produced timing
record must be indistinguishable from what a direct
:meth:`repro.redmule.engine.RedMulE.run_job` call measures for the same
shape, and a cache hit must return a record equal to the original miss.
Degenerate shapes (unit dimensions, tall-skinny, accumulation jobs) get
explicit coverage because they exercise the padding and preload paths where
timing bugs would hide.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.farm import (
    BACKEND_ENGINE,
    BACKEND_MODEL,
    FarmResult,
    SimulationFarm,
    TimingCache,
    TimingKey,
    TimingRecord,
    default_farm,
    reset_default_farms,
)
from repro.farm.cache import config_key
from repro.farm.workers import model_timing_record, simulate_engine_timing
from repro.interco.hci import Hci, HciConfig
from repro.mem.layout import MemoryAllocator
from repro.mem.tcdm import Tcdm
from repro.redmule.config import RedMulEConfig
from repro.redmule.engine import RedMulE
from repro.redmule.job import MatmulJob
from repro.redmule.perf_model import RedMulEPerfModel
from repro.redmule.trace import reset_shared_trace_stores, shared_trace_store
from repro.workloads.gemm import GemmShape

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
    return SimulationFarm(backend=BACKEND_ENGINE)


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
        farm = SimulationFarm(config=config, backend=BACKEND_ENGINE)
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

    def test_cache_is_shareable_between_farms(self):
        cache = TimingCache()
        first = SimulationFarm(backend=BACKEND_ENGINE, cache=cache)
        second = SimulationFarm(backend=BACKEND_ENGINE, cache=cache)
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
        farm = SimulationFarm()
        small = MatmulJob(0, 0, 0, 8, 16, 16)
        large = MatmulJob(0, 0, 0, 512, 512, 512)
        assert farm.resolve_backend(small) == BACKEND_ENGINE
        assert farm.resolve_backend(large) == BACKEND_MODEL

    def test_explicit_backend_overrides_auto(self):
        farm = SimulationFarm()
        small = MatmulJob(0, 0, 0, 8, 16, 16)
        assert farm.resolve_backend(small, BACKEND_MODEL) == BACKEND_MODEL
        result = farm.run_job(small, backend=BACKEND_MODEL)
        assert result.backend == BACKEND_MODEL

    def test_backends_do_not_share_cache_entries(self):
        farm = SimulationFarm()
        engine = farm.run_gemm(8, 16, 16, backend=BACKEND_ENGINE)
        model = farm.run_gemm(8, 16, 16, backend=BACKEND_MODEL)
        assert not model.cache_hit
        assert engine.record != model.record

    def test_model_policy_routes_every_job_to_the_model(self):
        farm = SimulationFarm(backend=BACKEND_MODEL)
        # Far below the engine threshold: auto routing would pick the engine.
        result = farm.run_gemm(8, 8, 8)
        assert result.backend == BACKEND_MODEL
        assert farm.stats.engine_runs == 0
        assert farm.stats.model_runs == 1

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError,
                           match="'auto', 'engine' or 'model', got 'fpga'"):
            SimulationFarm(backend="fpga")
        with pytest.raises(ValueError, match="got 'analytic'"):
            SimulationFarm(backend="analytic")

    @pytest.mark.parametrize("config", [
        RedMulEConfig.reference(),
        RedMulEConfig(height=8, length=4, pipeline_regs=2,
                      w_prefetch_lines=2, z_queue_depth=16,
                      format="fp8-e4m3"),
    ], ids=["reference", "fp8-wide"])
    def test_batch_keys_equal_for_job_keys(self, config):
        # The farm computes its config key once; every key a batch stores
        # must still equal the per-job constructor's.
        farm = SimulationFarm(config=config)
        jobs = [MatmulJob(0, 0, 0, m, n, k, accumulate=accumulate,
                          element_bytes=config.element_bytes)
                for m, n, k in ((8, 16, 24), (512, 384, 640))
                for accumulate in (False, True)]
        farm.run(jobs)
        keys = {TimingKey.for_job(config, job, farm.resolve_backend(job))
                for job in jobs}
        assert {key.backend for key in keys} == {BACKEND_ENGINE,
                                                 BACKEND_MODEL}
        assert len(farm.cache) == len(keys) == len(jobs)
        assert all(key in farm.cache for key in keys)

    def test_unknown_per_call_backend_rejected_on_a_miss(self):
        farm = SimulationFarm()
        with pytest.raises(ValueError, match="unknown backend"):
            farm.run_gemm(8, 8, 8, backend="fpga")

    @pytest.mark.parametrize("config", [
        RedMulEConfig.reference(),
        RedMulEConfig(height=8, length=4, pipeline_regs=2,
                      w_prefetch_lines=2, z_queue_depth=16,
                      format="fp8-e4m3"),
    ], ids=["reference", "fp8-wide"])
    def test_model_misses_match_the_per_key_worker(self, config):
        # The farm times each model miss on one model of its own config and
        # on the first batch job of the key, wherever that job sits; each
        # record equals the worker's, which rebuilds the config from the
        # key and times a canonically placed job.
        from repro.farm.workers import simulate_key

        size = config.element_bytes

        def placed(m, n, k, accumulate=False, offset=0):
            return MatmulJob(
                x_addr=(3 + offset) * size, w_addr=(1001 + offset) * size,
                z_addr=(4097 + offset) * size, m=m, n=n, k=k,
                x_stride=(n + 1) * size, w_stride=(k + 3) * size,
                z_stride=(k + 5) * size, accumulate=accumulate,
                element_bytes=size)

        shapes = [(m, n, k, accumulate)
                  for m, n, k in ((8, 16, 16), (33, 7, 65), (96, 96, 96))
                  for accumulate in (False, True)]
        canonical = [MatmulJob(0, 0, 0, m, n, k, accumulate=accumulate,
                               element_bytes=size)
                     for m, n, k, accumulate in shapes]
        for jobs in (canonical, [placed(*shape) for shape in shapes]):
            farm = SimulationFarm(config=config, backend=BACKEND_MODEL)
            results = farm.run(jobs)
            assert farm.stats.model_runs == len(shapes)
            for job, result in zip(jobs, results):
                key = TimingKey.for_job(config, job, BACKEND_MODEL)
                assert result.record == simulate_key(key)

        # One shape twice, at different addresses: one miss, one record.
        farm = SimulationFarm(config=config, backend=BACKEND_MODEL)
        pair = [placed(33, 7, 65), placed(33, 7, 65, offset=8192)]
        first, second = farm.run(pair)
        key = TimingKey.for_job(config, pair[0], BACKEND_MODEL)
        assert first.record == second.record == simulate_key(key)
        assert (first.cache_hit, second.cache_hit) == (False, True)
        assert farm.stats.model_runs == 1


class TestWorkloadTiming:
    def test_matches_metrics_time_workload_hw(self):
        from repro.perf.metrics import time_workload_hw

        # Repeated shape on purpose.
        shapes = [GemmShape(s, s, s, name=f"square-{s}") for s in (8, 16, 8, 32)]
        farm = SimulationFarm()
        direct = time_workload_hw(shapes, offload_cycles_per_job=70.0)
        farmed = farm.time_workload(shapes, offload_cycles_per_job=70.0)
        assert farmed.cycles == direct.cycles
        assert farmed.macs == direct.macs
        assert farmed.per_gemm == direct.per_gemm

    def test_repeated_shapes_hit_the_cache(self):
        farm = SimulationFarm()
        farm.time_workload([GemmShape(s, s, s, name=f"square-{s}")
                            for s in (8, 16, 8, 16, 8)])
        assert farm.cache.stats.misses == 2  # two distinct shapes only

    def test_backend_none_normalises_to_model(self):
        """Threading an optional backend through must not silently switch a
        workload onto the auto policy (and thus the engine)."""
        farm = SimulationFarm()
        timing = farm.time_workload([GemmShape(8, 8, 8, name="square-8")],
                                    backend=None)
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


class TestSerialMisses:
    """Every miss is timed in the calling process."""

    def test_max_workers_accepts_only_one(self):
        farm = SimulationFarm(backend=BACKEND_MODEL, max_workers=1)
        assert farm.run_gemm(4, 4, 4).backend == BACKEND_MODEL
        with pytest.raises(ValueError, match="max_workers must be None or 1"):
            SimulationFarm(max_workers=2)

    def test_engine_misses_record_into_the_process_trace_store(self):
        # One batch's engine misses record their tile schedules in this
        # process's store, so a later miss with the same N and K replays
        # them instead of recording again.
        config = RedMulEConfig.reference()
        reset_shared_trace_stores()
        try:
            farm = SimulationFarm(config, backend=BACKEND_ENGINE)
            farm.run([MatmulJob(0, 0, 0, m, 40, 24) for m in (16, 32, 48)])
            store = shared_trace_store(config)
            assert farm.stats.engine_runs == 3
            assert store.stats.recordings == 3
            farm.run_gemm(64, 40, 24)
            assert farm.stats.engine_runs == 4
            assert store.stats.recordings == 3
        finally:
            reset_shared_trace_stores()

    def test_farm_survives_a_pickle_round_trip(self):
        farm = SimulationFarm(backend=BACKEND_ENGINE)
        jobs = [MatmulJob(0, 0, 0, m, n, k)
                for m, n, k in ((8, 16, 16), (13, 7, 5), (1, 40, 1))]
        records = [result.record for result in farm.run(jobs)]
        clone = pickle.loads(pickle.dumps(farm))
        engine_runs = clone.stats.engine_runs
        results = clone.run(jobs)
        assert all(result.cache_hit for result in results)
        assert [result.record for result in results] == records
        assert clone.stats.engine_runs == engine_runs == 3


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
        record = simulate_engine_timing(key, 1, 1, 1, False, max_cycles=10_000)
        assert record.total_macs == 1

    def test_engine_timing_replays_recorded_schedules(self):
        # The worker times on the trace backend: a second call for the
        # same shape replays the first call's tile schedules.
        config = RedMulEConfig.reference()
        reset_shared_trace_stores()
        try:
            first = simulate_engine_timing(config_key(config), 16, 40, 24,
                                           False)
            store = shared_trace_store(config)
            recordings, hits = store.stats.recordings, store.stats.hits
            assert recordings > 0
            second = simulate_engine_timing(config_key(config), 16, 40, 24,
                                            False)
            assert store.stats.recordings == recordings
            assert store.stats.hits > hits
        finally:
            reset_shared_trace_stores()
        assert first == second

    def test_unknown_backend_rejected(self):
        from repro.farm.workers import simulate_key

        key = TimingKey(config=config_key(RedMulEConfig.reference()),
                        m=1, n=1, k=1, accumulate=False, backend="fpga")
        with pytest.raises(ValueError):
            simulate_key(key)


class TestStatsSnapshots:
    """`FarmStats`/`CacheStats` snapshot-and-reset (the --farm-stats JSON)."""

    def test_farm_stats_snapshot_and_reset(self):
        farm = SimulationFarm(backend="model")
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
            "jobs": 0, "engine_runs": 0, "model_runs": 0, "batches": 0,
        }
        # The farm (cache included) still works after a stats reset.
        farm.run([MatmulJob(0, 0, 0, 4, 4, 4)])
        assert farm.stats.snapshot()["jobs"] == 1

    def test_cache_stats_snapshot_and_reset(self):
        farm = SimulationFarm(backend="model")
        job = MatmulJob(0, 0, 0, 4, 4, 4)
        farm.run([job])
        farm.run([job])
        snap = farm.cache.stats.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["lookups"] == 2
        assert snap["hit_rate"] == pytest.approx(0.5)
        farm.cache.stats.reset()
        assert farm.cache.stats.snapshot() == {
            "hits": 0, "misses": 0, "lookups": 0, "hit_rate": 0.0,
        }
        # Resetting stats does not evict entries: the next run still hits.
        farm.run([job])
        assert farm.cache.stats.hits == 1


def _estimate_record(model, job):
    """The model record as the model's :class:`PerfEstimate` gives it.

    The reference for the farm's direct fill: it builds the estimate and
    copies its numbers into a record through ``__init__``.
    """
    estimate = model.estimate(job)
    return TimingRecord(
        cycles=estimate.cycles,
        stall_cycles=estimate.overhead_cycles,
        active_cycles=estimate.cycles - estimate.overhead_cycles,
        total_macs=estimate.total_macs,
        issued_macs=0,
        n_tiles=estimate.n_tiles,
        peak_macs_per_cycle=model.config.ideal_macs_per_cycle,
        ideal_cycles=estimate.ideal_cycles,
        backend=BACKEND_MODEL,
    )


def _assert_same_dataclass(built, reference):
    """``built`` is indistinguishable from the ``__init__``-built object."""
    assert built == reference
    assert hash(built) == hash(reference)
    assert repr(built) == repr(reference)
    # The instance dict lists the fields in declaration order, as
    # __init__ leaves it.
    assert list(vars(built)) == [field.name for field in
                                 dataclasses.fields(type(built))]


class TestDirectFills:
    """The batch path builds keys, results and model records without the
    dataclass machinery; each must equal what the slow path builds."""

    def test_timing_key_is_the_tuple_of_its_fields(self):
        config = RedMulEConfig(height=8, length=4, pipeline_regs=2,
                               format="fp8-e4m3")
        job = MatmulJob(0, 0, 0, 8, 16, 24, accumulate=True,
                        element_bytes=config.element_bytes)
        key = TimingKey.for_job(config, job, BACKEND_MODEL)
        fields = (config_key(config), 8, 16, 24, True, BACKEND_MODEL)
        assert key == fields and hash(key) == hash(fields)
        assert TimingKey._fields == ("config", "m", "n", "k", "accumulate",
                                     "backend")
        assert key == TimingKey(config=config_key(config), m=8, n=16, k=24,
                                accumulate=True, backend=BACKEND_MODEL)
        assert (key.config, key.m, key.n, key.k, key.accumulate,
                key.backend) == fields
        # A pickled farm carries its keys in its cache.
        clone = pickle.loads(pickle.dumps(key))
        assert clone == key and type(clone) is TimingKey

    @pytest.mark.parametrize("policy,override", [
        (BACKEND_MODEL, None), ("auto", BACKEND_MODEL),
        (BACKEND_ENGINE, BACKEND_MODEL), ("auto", "auto"),
    ], ids=["model-policy", "override-on-auto", "override-on-engine",
            "explicit-auto"])
    def test_batches_store_the_for_job_keys(self, policy, override):
        farm = SimulationFarm(backend=policy)
        jobs = [MatmulJob(0, 0, 0, m, n, k, accumulate=accumulate)
                for m, n, k in ((8, 16, 24), (24, 8, 16), (512, 384, 640))
                for accumulate in (False, True)]
        results = farm.run(jobs, backend=override)
        keys = [TimingKey.for_job(farm.config, job,
                                  farm.resolve_backend(job, override))
                for job in jobs]
        assert len(farm.cache) == len(set(keys)) == len(jobs)
        for key, result in zip(keys, results):
            assert farm.cache.peek(key) is result.record

    def test_farm_results_equal_init_built_ones(self):
        farm = SimulationFarm(backend=BACKEND_MODEL)
        jobs = [MatmulJob(0, 0, 0, 8, 16, 24), MatmulJob(0, 0, 0, 8, 16, 24),
                MatmulJob(0, 0, 0, 33, 7, 65, accumulate=True)]
        results = farm.run(jobs)
        for job, result, hit in zip(jobs, results, (False, True, False)):
            _assert_same_dataclass(result, FarmResult(
                job=job, record=result.record, cache_hit=hit))
        with pytest.raises(dataclasses.FrozenInstanceError):
            results[0].cache_hit = True
        changed = dataclasses.replace(results[0], cache_hit=True)
        assert changed.cache_hit and changed.record is results[0].record
        assert pickle.loads(pickle.dumps(results[2])) == results[2]
        # The shortcut skips __post_init__, so the class may not have one.
        assert not hasattr(FarmResult, "__post_init__")

    def test_model_records_equal_init_built_ones(self):
        model = RedMulEPerfModel(RedMulEConfig.reference())
        record = model_timing_record(model, MatmulJob(0, 0, 0, 33, 7, 65))
        _assert_same_dataclass(record, TimingRecord(**{
            field.name: getattr(record, field.name)
            for field in dataclasses.fields(TimingRecord)}))
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.cycles = 0
        changed = dataclasses.replace(record, cycles=1)
        assert changed.cycles == 1 and changed.n_tiles == record.n_tiles
        assert pickle.loads(pickle.dumps(record)) == record
        assert not hasattr(TimingRecord, "__post_init__")

    @settings(max_examples=200, deadline=None)
    @given(height=st.integers(1, 8), length=st.integers(1, 16),
           pipeline_regs=st.integers(1, 4), w_prefetch_lines=st.integers(1, 3),
           precision=st.sampled_from(["fp16", "fp8-e4m3"]),
           memory_latency=st.integers(0, 3),
           m=st.integers(1, 300), n=st.integers(1, 300),
           k=st.integers(1, 300), accumulate=st.booleans())
    def test_model_records_equal_the_estimate_formula(
            self, height, length, pipeline_regs, w_prefetch_lines, precision,
            memory_latency, m, n, k, accumulate):
        config = RedMulEConfig(height=height, length=length,
                               pipeline_regs=pipeline_regs,
                               w_prefetch_lines=w_prefetch_lines,
                               z_queue_depth=max(8, length), format=precision)
        model = RedMulEPerfModel(config, memory_latency=memory_latency)
        job = MatmulJob(0, 0, 0, m, n, k, accumulate=accumulate,
                        element_bytes=config.element_bytes)
        _assert_same_dataclass(model_timing_record(model, job),
                               _estimate_record(model, job))
