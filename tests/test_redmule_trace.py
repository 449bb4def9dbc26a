"""Tests for the trace-compiled engine backend (:mod:`repro.redmule.trace`).

The trace backend's contract: every observable of a job -- TCDM contents,
``RedMulEResult`` cycle/stall/issue counters, streamer statistics -- is
bit-identical to the event-stepped engine, whether a tile was recorded
(event-stepped between two counter snapshots) or replayed (data plane
only).  These tests cover the record/replay lifecycle itself; the
experiment-wide parity sweep lives in
``test_simd_backend_equivalence.TestTraceBackendEquivalence``.
"""

import json
from dataclasses import fields

import numpy as np
import pytest

from repro.farm import SimulationFarm
from repro.farm.cache import CACHE_FILE_VERSION, TimingCache
from repro.fp.vector import random_matrix
from repro.interco.hci import Hci, HciConfig
from repro.interco.log_interco import CoreRequest
from repro.mem.layout import MemoryAllocator
from repro.mem.tcdm import Tcdm, TcdmConfig
from repro.redmule.config import RedMulEConfig
from repro.redmule.engine import RedMulE
from repro.redmule.job import MatmulJob
from repro.redmule.scheduler import TileSchedule
from repro.redmule.trace import (
    ReplaySession,
    TraceStore,
    reset_shared_trace_stores,
    shared_trace_store,
    tile_key,
)
from repro.redmule.vector_ops import TraceVectorOps, make_vector_ops


@pytest.fixture(autouse=True)
def _isolated_shared_stores():
    """Each test starts and ends with empty process-wide trace stores."""
    reset_shared_trace_stores()
    yield
    reset_shared_trace_stores()


def _build(m, n, k, backend="trace", accumulate=False, trace_store=None,
           seed=0, config=None):
    """One engine + job + Z image reader on a private TCDM."""
    tcdm_config = TcdmConfig()
    needed = 2 * (m * n + n * k + m * k) + 3 * 32
    if needed > tcdm_config.size:
        words = -(-needed // (tcdm_config.n_banks * tcdm_config.word_bytes))
        tcdm_config = TcdmConfig(bank_words=max(tcdm_config.bank_words,
                                                words))
    tcdm = Tcdm(tcdm_config)
    hci = Hci(tcdm, HciConfig())
    engine = RedMulE(config or RedMulEConfig.reference(), hci,
                     backend=backend, trace_store=trace_store)
    allocator = MemoryAllocator(tcdm.base, tcdm.size)
    hx = allocator.alloc_matrix(m, n, "X")
    hw = allocator.alloc_matrix(n, k, "W")
    hz = allocator.alloc_matrix(m, k, "Z")
    hx.store(tcdm, random_matrix(m, n, scale=0.25, seed=seed + 1))
    hw.store(tcdm, random_matrix(n, k, scale=0.25, seed=seed + 2))
    if accumulate:
        hz.store(tcdm, random_matrix(m, k, scale=0.25, seed=seed + 3))
    job = MatmulJob.from_handles(hx, hw, hz, accumulate=accumulate)
    return engine, job, (lambda: tcdm.dump_image(hz.base, m * k * 2))


def _result_tuple(result):
    return (
        result.cycles, result.stall_cycles, result.active_cycles,
        result.issued_macs, result.n_tiles,
        result.streamer.cycles, result.streamer.w_loads,
        result.streamer.x_loads, result.streamer.y_loads,
        result.streamer.z_stores, result.streamer.stall_cycles,
        result.streamer.idle_cycles,
    )


class TestBackendRegistration:
    def test_trace_backend_registered(self):
        ops = make_vector_ops("trace")
        assert isinstance(ops, TraceVectorOps)
        assert ops.schedule_compiled
        assert not make_vector_ops("exact-simd").schedule_compiled
        assert not make_vector_ops("exact").schedule_compiled

    def test_engine_wires_shared_store(self):
        engine = RedMulE(backend="trace")
        assert engine.backend == "trace"
        assert engine._trace_store is shared_trace_store(engine.config)
        plain = RedMulE(backend="exact-simd")
        assert plain._trace_store is None

    def test_shared_stores_are_keyed_on_the_config(self):
        reference = RedMulEConfig.reference()
        store = shared_trace_store(reference)
        assert shared_trace_store(RedMulEConfig()) is store
        assert shared_trace_store(RedMulEConfig(format="bf16")) is not store
        assert shared_trace_store(RedMulEConfig(z_queue_depth=16)) is not store

    def test_engine_accepts_injected_store(self):
        store = TraceStore()
        engine = RedMulE(backend="trace", trace_store=store)
        assert engine._trace_store is store
        assert len(shared_trace_store(engine.config)) == 0


class TestRecordReplayParity:
    @pytest.mark.parametrize("shape,accumulate", [
        ((13, 7, 5), False),     # single ragged tile
        ((16, 40, 24), False),   # multi-tile, ragged inner dimension
        ((48, 64, 48), True),    # multi-tile accumulation
    ], ids=["ragged", "multi", "accumulate"])
    def test_cold_run_matches_event_stepped(self, shape, accumulate):
        m, n, k = shape
        ref_engine, ref_job, ref_bits = _build(m, n, k, "exact-simd",
                                               accumulate)
        ref = ref_engine.run_job(ref_job)
        engine, job, bits = _build(m, n, k, "trace", accumulate)
        got = engine.run_job(job)
        assert bits() == ref_bits()
        assert _result_tuple(got) == _result_tuple(ref)

    @pytest.mark.parametrize("shape", [(64, 64, 64), (24, 10, 40)],
                             ids=["square", "gated-inner-padding"])
    def test_warm_run_replays_every_tile(self, shape):
        store = TraceStore()
        engine, job, bits = _build(*shape, trace_store=store)
        cold = engine.run_job(job)
        recordings = store.stats.recordings
        assert recordings >= 1
        hits_before = store.stats.hits
        warm = engine.run_job(job)
        schedule = TileSchedule(job, engine.config)
        # Every tile of the warm run replays (no new recordings).
        assert store.stats.hits - hits_before == schedule.n_tiles
        assert store.stats.recordings == recordings
        assert _result_tuple(warm) == _result_tuple(cold)
        ref_engine, ref_job, ref_bits = _build(*shape, "exact-simd")
        ref_engine.run_job(ref_job)
        assert bits() == ref_bits()

    def test_traces_shared_across_engines_of_one_config(self):
        engine_a, job_a, _ = _build(32, 32, 32)
        engine_a.run_job(job_a)
        store = shared_trace_store(engine_a.config)
        recordings = store.stats.recordings
        engine_b, job_b, bits_b = _build(32, 32, 32, seed=9)
        engine_b.run_job(job_b)
        # The second engine replays the first engine's schedules.
        assert store.stats.recordings == recordings
        ref_engine, ref_job, ref_bits = _build(32, 32, 32, "exact-simd",
                                               seed=9)
        ref_engine.run_job(ref_job)
        assert bits_b() == ref_bits()

    def test_back_to_back_different_shapes(self):
        engine, job, bits = _build(64, 64, 64)
        for shape, seed in [((64, 64, 64), 0), ((13, 7, 5), 4),
                            ((16, 40, 24), 7)]:
            engine, job, bits = _build(*shape, "trace", seed=seed)
            ref_engine, ref_job, ref_bits = _build(*shape, "exact-simd",
                                                   seed=seed)
            got = engine.run_job(job)
            ref = ref_engine.run_job(ref_job)
            assert bits() == ref_bits()
            assert _result_tuple(got) == _result_tuple(ref)


class _MissOnce(TraceStore):
    """A trace store whose ``miss_at``-th lookup misses, forcing a flush."""

    def __init__(self):
        super().__init__()
        self.lookups = 0
        self.miss_at = None

    def lookup(self, key):
        self.lookups += 1
        if self.lookups == self.miss_at:
            self.stats.misses += 1
            return None
        return super().lookup(key)


class TestPartiallyRetiredBacklog:
    def test_flush_finds_a_partially_retired_tile_at_the_head(
            self, monkeypatch):
        """A long, shallow array on short chains finishes a tile before the
        previous tile's Z rows have all been stored, so the replay backlog's
        head is a tile with only some rows retired.  A trace miss right
        there makes :meth:`ReplaySession.flush` hand the rest of that tile
        (and the next) back to the live queues; the run must stay
        bit-identical to the event-stepped engine."""
        config = RedMulEConfig(height=2, length=16, pipeline_regs=1,
                               z_queue_depth=32)
        store = _MissOnce()
        engine, job, bits = _build(64, 4, 16, trace_store=store,
                                   config=config)
        engine.run_job(job)  # cold: records every schedule
        heads = []
        flush = ReplaySession.flush

        def spy(session):
            if session._backlog:
                rows, retired, source = session._backlog[0]
                heads.append((rows, retired, isinstance(source, tuple)))
            flush(session)

        monkeypatch.setattr(ReplaySession, "flush", spy)
        store.miss_at = store.lookups + 3  # the warm run's third tile
        misses = store.stats.misses
        warm = engine.run_job(job)
        assert store.stats.misses - misses == 1
        # The first flush is the one before the event-stepped third tile.
        rows, retired, replayed = heads[0]
        assert replayed and 0 < retired < rows
        ref_engine, ref_job, ref_bits = _build(64, 4, 16, "exact-simd",
                                               config=config)
        ref = ref_engine.run_job(ref_job)
        assert bits() == ref_bits()
        assert _result_tuple(warm) == _result_tuple(ref)


class TestAbortInvalidation:
    def test_abort_mid_recording_discards_partial_trace(self):
        """An aborted run must not commit a partial schedule and must
        release controller/streamer state (also on the recording path)."""
        store = TraceStore()
        engine, job, bits = _build(16, 64, 16, trace_store=store)
        with pytest.raises(RuntimeError, match="exceeded"):
            engine.offload(job, max_cycles=5)
        # No partial trace was committed and the controller/streamer state
        # is fully released.
        assert len(store) == 0
        assert engine._session is None
        assert not engine.controller.busy
        assert engine.streamer.pending() == 0
        assert not engine.datapath.busy
        # The same instance records and completes the next offload.
        result = engine.offload(job)
        assert result.cycles > 0
        assert len(store) > 0
        assert engine.controller.fsm.jobs_completed == 1
        ref_engine, ref_job, ref_bits = _build(16, 64, 16, "exact-simd")
        ref = ref_engine.run_job(ref_job)
        assert bits() == ref_bits()
        assert result.cycles == ref.cycles

    def test_abort_then_replay_still_bit_identical(self):
        store = TraceStore()
        engine, job, bits = _build(32, 32, 32, trace_store=store)
        engine.run_job(job)  # record
        with pytest.raises(RuntimeError, match="exceeded"):
            engine.offload(job, max_cycles=3)
        assert engine._session is None
        assert engine.streamer.pending() == 0
        result = engine.offload(job)  # warm replay after the abort
        ref_engine, ref_job, ref_bits = _build(32, 32, 32, "exact-simd")
        ref = ref_engine.run_job(ref_job)
        assert bits() == ref_bits()
        assert result.cycles == ref.cycles


class TestContentionHandling:
    def test_contended_recordings_are_discarded(self):
        """A schedule recorded under interconnect contention is not reusable
        (arbitration stalls leak into the cycle pattern), so it must be
        dropped instead of stored."""
        store = TraceStore()
        tcdm = Tcdm()
        hci = Hci(tcdm, HciConfig(max_wide_streak=1))
        engine = RedMulE(RedMulEConfig.reference(), hci, backend="trace",
                         trace_store=store)
        allocator = MemoryAllocator(tcdm.base, tcdm.size)
        hx = allocator.alloc_matrix(8, 32, "X")
        hw = allocator.alloc_matrix(32, 16, "W")
        hz = allocator.alloc_matrix(8, 16, "Z")
        x = random_matrix(8, 32, scale=0.3, seed=11)
        w = random_matrix(32, 16, scale=0.3, seed=12)
        hx.store(tcdm, x)
        hw.store(tcdm, w)

        original_cycle = hci.wide_line_cycle

        def noisy_wide_cycle(*args, **kwargs):
            hci.submit_log_requests([CoreRequest(initiator=0, addr=tcdm.base)])
            return original_cycle(*args, **kwargs)

        hci.wide_line_cycle = noisy_wide_cycle
        result = engine.run_job(MatmulJob.from_handles(hx, hw, hz))
        assert result.streamer.stall_cycles > 0
        assert len(store) == 0
        assert store.stats.discarded > 0
        # Functional output is unaffected by the discarded recording.
        from repro.fp.formats import FP16
        from repro.fp.simd_formats import f64_to_bits_many
        from repro.redmule.functional import matmul_hw_order_exact_fmt
        got = tcdm.dump_image(hz.base, 8 * 16 * 2)
        want = matmul_hw_order_exact_fmt(f64_to_bits_many(x, FP16),
                                         f64_to_bits_many(w, FP16), FP16)
        want_bits = np.array(want, dtype=np.uint16).tobytes()
        assert got == want_bits


class TestStridedJobsReplay:
    @pytest.mark.parametrize("accumulate", [False, True])
    def test_row_gaps_survive_recording_and_replay(self, accumulate):
        """Strided X, W and Z leave gaps between rows; a replayed batch
        lands its Z lines in bulk and must leave the gaps (filled with a
        sentinel here) and every Z element exactly as the event-stepped
        engine does."""
        m, n, k, pad = 20, 24, 40, 3
        eb = 2
        x_stride, w_stride, z_stride = (n + pad) * eb, (k + pad) * eb, (k + pad) * eb
        x_size = (m - 1) * x_stride + n * eb
        w_size = (n - 1) * w_stride + k * eb
        z_size = (m - 1) * z_stride + k * eb
        x = random_matrix(m, n, scale=0.25, seed=5)
        w = random_matrix(n, k, scale=0.25, seed=6)
        z0 = random_matrix(m, k, scale=0.25, seed=7)

        def run(backend, store):
            tcdm = Tcdm()
            base = tcdm.base
            x_addr, w_addr = base, base + x_size
            z_addr = w_addr + w_size
            tcdm.load_image(base, bytes([0xA5]) * (x_size + w_size + z_size))
            for addr, matrix, stride in ((x_addr, x, x_stride),
                                         (w_addr, w, w_stride),
                                         (z_addr, z0, z_stride)):
                for row, values in enumerate(matrix):
                    tcdm.load_image(addr + row * stride,
                                    values.astype("<f2").tobytes())
            engine = RedMulE(RedMulEConfig.reference(), Hci(tcdm, HciConfig()),
                             backend=backend, trace_store=store)
            job = MatmulJob(x_addr=x_addr, w_addr=w_addr, z_addr=z_addr,
                            m=m, n=n, k=k, x_stride=x_stride,
                            w_stride=w_stride, z_stride=z_stride,
                            accumulate=accumulate)
            result = engine.run_job(job)
            return _result_tuple(result), tcdm.dump_image(
                base, x_size + w_size + z_size)

        want = run("exact-simd", None)
        store = TraceStore()
        cold = run("trace", store)
        recordings = store.stats.recordings
        warm = run("trace", store)
        assert recordings > 0 and store.stats.recordings == recordings
        assert store.stats.hits > 0
        assert cold == want and warm == want


class TestUnsupportedJobsFallBack:
    def test_misaligned_stride_event_steps(self):
        """Jobs replay cannot shortcut safely (odd strides) still run --
        they just never record or replay."""
        store = TraceStore()
        tcdm = Tcdm()
        hci = Hci(tcdm, HciConfig())
        engine = RedMulE(RedMulEConfig.reference(), hci, backend="trace",
                         trace_store=store)
        m, n, k = 8, 16, 16
        # Z overlapping W's extent makes the replay shortcut unsafe.
        job = MatmulJob(x_addr=tcdm.base, w_addr=tcdm.base + 0x1000,
                        z_addr=tcdm.base + 0x1000, m=m, n=n, k=k)
        result = engine.run_job(job)
        assert result.cycles > 0
        assert len(store) == 0


class TestStoredTraces:
    def test_a_trace_is_its_key_and_twelve_counters(self):
        engine, job, _ = _build(16, 40, 24)
        engine.run_job(job)
        schedule = TileSchedule(job, engine.config)
        key = tile_key(*schedule.tile_signature(schedule.tiles()[0]), 0, 0)
        trace = shared_trace_store(engine.config).lookup(key)
        counters = [f.name for f in fields(trace) if f.name != "key"]
        assert sorted(counters) == sorted([
            "cycles", "stall_cycles", "active_cycles", "w_loads", "x_loads",
            "y_loads", "z_stores", "idle_cycles", "z_pushes", "z_drains",
            "zbuf_out", "pending_z_out"])
        assert all(type(getattr(trace, name)) is int for name in counters)

    def test_replayed_store_reproduces_event_stepped_run(self):
        engine, job, _ = _build(64, 64, 64)
        engine.run_job(job)
        store = shared_trace_store(engine.config)
        reset_shared_trace_stores()
        engine2, job2, bits2 = _build(64, 64, 64, trace_store=store, seed=5)
        recordings = store.stats.recordings
        result = engine2.run_job(job2)
        assert store.stats.recordings == recordings  # pure replay
        ref_engine, ref_job, ref_bits = _build(64, 64, 64, "exact-simd",
                                               seed=5)
        ref = ref_engine.run_job(ref_job)
        assert bits2() == ref_bits()
        assert _result_tuple(result) == _result_tuple(ref)


class TestTraceFarm:
    def test_second_miss_replays_the_first_misses_tiles(self):
        """A serial trace farm's engine misses share the process-wide store:
        a second shape with the first one's tile signatures replays them
        and still times exactly like an event-stepped engine."""
        farm = SimulationFarm()
        farm.run_gemm(16, 40, 24, backend="engine")
        store = shared_trace_store(farm.config)
        hits = store.stats.hits
        got = farm.run_gemm(32, 40, 24, backend="engine").record
        assert farm.stats.engine_runs == 2
        assert store.stats.hits > hits
        engine, job, _ = _build(32, 40, 24, "exact-simd")
        ref = engine.run_job(job)
        assert (got.cycles, got.stall_cycles, got.active_cycles,
                got.total_macs, got.issued_macs, got.n_tiles,
                got.peak_macs_per_cycle) == (
            ref.cycles, ref.stall_cycles, ref.active_cycles, ref.total_macs,
            ref.issued_macs, ref.n_tiles, ref.peak_macs_per_cycle)


class TestTimingCacheSchema:
    def _entry(self, config_tuple):
        return {
            "key": {"config": list(config_tuple), "m": 8, "n": 16, "k": 16,
                    "accumulate": False, "exact": True, "backend": "engine"},
            "record": {"cycles": 100, "stall_cycles": 5, "active_cycles": 90,
                       "total_macs": 2048, "issued_macs": 4096, "n_tiles": 1,
                       "peak_macs_per_cycle": 32, "ideal_cycles": 64,
                       "backend": "engine"},
        }

    def test_save_writes_version_and_entries_only(self, tmp_path):
        farm = SimulationFarm()
        farm.run_gemm(8, 16, 16, backend="engine")
        assert len(shared_trace_store(farm.config)) > 0
        path = tmp_path / "cache.json"
        assert farm.save_cache(path) == 1
        payload = json.loads(path.read_text())
        assert sorted(payload) == ["entries", "version"]
        assert payload["version"] == CACHE_FILE_VERSION == 7

    @pytest.mark.parametrize("version,config", [
        (6, (4, 8, 3, 1, 8, "fp16")),   # counter-delta trace table
        (5, (4, 8, 3, 1, 8, "fp16")),   # event-array traces
        (4, (4, 8, 3, 1, 8, "fp16")),   # keys carry ``exact``
        (3, (4, 8, 3, 1, 8, "fp16")),   # pre-trace payload
        (2, (4, 8, 3, 1, 8)),           # pre-format five-field keys
        (1, (4, 8, 3, 1, 8)),           # pre-exact analytical model
    ])
    def test_older_versions_are_rejected(self, tmp_path, version, config):
        path = tmp_path / f"v{version}.json"
        path.write_text(json.dumps(
            {"version": version, "entries": [self._entry(config)]}))
        cache = TimingCache()
        with pytest.raises(ValueError, match="version"):
            cache.load(path)
        assert len(cache) == 0

    def test_farm_cache_round_trip_serves_trace_farm_from_entries(
            self, tmp_path):
        farm = SimulationFarm()
        want = farm.run_gemm(32, 32, 32, backend="engine")
        assert len(shared_trace_store(farm.config)) > 0
        path = tmp_path / "cache.json"
        farm.save_cache(path)
        reset_shared_trace_stores()
        farm2 = SimulationFarm()
        assert farm2.load_cache(path) == 1
        got = farm2.run_gemm(32, 32, 32, backend="engine")
        assert got.cache_hit and got.record == want.record
        assert farm2.stats.engine_runs == 0
        assert len(shared_trace_store(farm2.config)) == 0


class TestTileKeys:
    def test_tile_signature_ignores_position(self):
        engine, job, _ = _build(64, 64, 64)
        schedule = TileSchedule(job, engine.config)
        tiles = schedule.tiles()
        interior = [t for t in tiles
                    if t.rows == engine.config.length
                    and t.cols == engine.config.elements_per_line]
        assert len({schedule.tile_signature(t) for t in interior}) == 1

    def test_tile_key_fields(self):
        key = tile_key(64, False, 8, 16, 3, 1)
        assert key == (64, False, 8, 16, 3, 1, "idle")
