"""Tests for the trace-compiled engine backend (:mod:`repro.redmule.trace`).

The trace backend's contract: every observable of a job -- TCDM contents,
``RedMulEResult`` cycle/stall/issue counters, streamer statistics -- is
bit-identical to the event-stepped engine, whether a tile was recorded
(event-stepped under observation) or replayed (data plane only).  These
tests cover the record/replay lifecycle itself; the experiment-wide parity
sweep lives in ``test_simd_backend_equivalence.TestTraceBackendEquivalence``.
"""

import json

import numpy as np
import pytest

from repro.farm import SimulationFarm
from repro.farm.cache import CACHE_FILE_VERSION, TimingCache
from repro.fp.flags import ExceptionFlags
from repro.fp.formats import fma_bits, get_format
from repro.fp.vector import random_fp16_matrix
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
    ScheduleTrace,
    TraceStore,
    replay_dataplane,
    reset_shared_trace_stores,
    shared_trace_store,
    tile_key,
    trace_tag,
)
from repro.redmule.vector_ops import (
    TraceVectorOps,
    backend_schedule_compiled,
    make_vector_ops,
)


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
    hx.store(tcdm, random_fp16_matrix(m, n, scale=0.25, seed=seed + 1))
    hw.store(tcdm, random_fp16_matrix(n, k, scale=0.25, seed=seed + 2))
    if accumulate:
        hz.store(tcdm, random_fp16_matrix(m, k, scale=0.25, seed=seed + 3))
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
        assert ops.bit_exact
        assert ops.schedule_compiled
        assert backend_schedule_compiled("trace")
        assert not backend_schedule_compiled("exact-simd")
        assert not backend_schedule_compiled("fast")

    def test_engine_wires_shared_store(self):
        engine = RedMulE(backend="trace")
        assert engine.backend == "trace"
        assert engine.exact
        assert engine._trace_store is shared_trace_store(engine.config)
        plain = RedMulE(backend="exact-simd")
        assert plain._trace_store is None

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

    def test_warm_run_replays_every_tile(self):
        store = TraceStore()
        engine, job, bits = _build(64, 64, 64, trace_store=store)
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
        ref_engine, ref_job, ref_bits = _build(64, 64, 64, "exact-simd")
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
        """Satellite: an aborted run must not commit a partial schedule and
        must release controller/streamer/observer state (PR 1 regression,
        extended to the recording path)."""
        store = TraceStore()
        engine, job, bits = _build(16, 64, 16, trace_store=store)
        with pytest.raises(RuntimeError, match="exceeded"):
            engine.offload(job, max_cycles=5)
        # No partial trace was committed, the hooks are detached and the
        # controller/streamer state is fully released.
        assert len(store) == 0
        assert engine.streamer.observer is None
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
        x = random_fp16_matrix(8, 32, scale=0.3, seed=11)
        w = random_fp16_matrix(32, 16, scale=0.3, seed=12)
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
        from repro.fp.vector import matrix_to_bits
        from repro.redmule.functional import matmul_hw_order_exact_fmt
        got = tcdm.dump_image(hz.base, 8 * 16 * 2)
        want = matmul_hw_order_exact_fmt(matrix_to_bits(x), matrix_to_bits(w),
                                         FP16)
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
        x = random_fp16_matrix(m, n, scale=0.25, seed=5)
        w = random_fp16_matrix(n, k, scale=0.25, seed=6)
        z0 = random_fp16_matrix(m, k, scale=0.25, seed=7)

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


class TestSerialization:
    def test_schedule_trace_round_trip(self):
        engine, job, _ = _build(16, 40, 24)
        engine.run_job(job)
        store = shared_trace_store(engine.config)
        assert len(store) > 0
        payload = store.to_payload()
        json.dumps(payload)  # must be JSON-serialisable as-is
        clone = TraceStore()
        merged = clone.merge_payload(payload)
        assert merged == len(store)
        for entry in payload["traces"]:
            trace = ScheduleTrace.from_payload(entry)
            replica = clone.lookup(trace.key)
            assert replica is not None
            assert np.array_equal(replica.active_mask, trace.active_mask)
            assert replica.cycles == trace.cycles
            assert replica.z_stores == trace.z_stores

    def test_merge_keeps_existing_traces(self):
        engine, job, _ = _build(32, 32, 32)
        engine.run_job(job)
        store = shared_trace_store(engine.config)
        payload = store.to_payload()
        before = len(store)
        assert store.merge_payload(payload) == 0  # all keys already present
        assert len(store) == before

    def test_replayed_store_reproduces_event_stepped_run(self):
        engine, job, _ = _build(64, 64, 64)
        engine.run_job(job)
        payload = shared_trace_store(engine.config).to_payload()
        reset_shared_trace_stores()
        fresh = TraceStore()
        fresh.merge_payload(payload)
        engine2, job2, bits2 = _build(64, 64, 64, trace_store=fresh)
        recordings = fresh.stats.recordings
        result = engine2.run_job(job2)
        assert fresh.stats.recordings == recordings  # pure replay
        ref_engine, ref_job, ref_bits = _build(64, 64, 64, "exact-simd")
        ref = ref_engine.run_job(ref_job)
        assert bits2() == ref_bits()
        assert _result_tuple(result) == _result_tuple(ref)


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

    def test_save_produces_version_4_with_traces(self, tmp_path):
        engine, job, _ = _build(32, 32, 32)
        engine.run_job(job)
        farm = SimulationFarm(arithmetic="trace", max_workers=1)
        farm.run_gemm(8, 16, 16, backend="engine")
        path = tmp_path / "cache.json"
        farm.save_cache(path)
        payload = json.loads(path.read_text())
        assert payload["version"] == CACHE_FILE_VERSION == 4
        assert trace_tag(farm.config) in payload["traces"]

    @pytest.mark.parametrize("version,config", [
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

    def test_farm_cache_round_trip_warms_trace_store(self, tmp_path):
        farm = SimulationFarm(arithmetic="trace", max_workers=1)
        farm.run_gemm(64, 64, 64, backend="engine")
        store = shared_trace_store(farm.config)
        n_traces = len(store)
        assert n_traces > 0
        path = tmp_path / "cache.json"
        farm.save_cache(path)
        reset_shared_trace_stores()
        farm2 = SimulationFarm(arithmetic="trace", max_workers=1)
        farm2.load_cache(path)
        assert len(shared_trace_store(farm2.config)) == n_traces

    def test_non_trace_farm_ignores_trace_payloads(self, tmp_path):
        farm = SimulationFarm(arithmetic="trace", max_workers=1)
        farm.run_gemm(32, 32, 32, backend="engine")
        path = tmp_path / "cache.json"
        farm.save_cache(path)
        reset_shared_trace_stores()
        plain = SimulationFarm(arithmetic="exact-simd", max_workers=1)
        plain.load_cache(path)
        assert len(shared_trace_store(plain.config)) == 0


class TestReplayDataplane:
    @pytest.mark.parametrize("fmt_name", ["fp16", "bf16", "fp8-e4m3",
                                          "fp8-e5m2"])
    def test_matches_scalar_fma_chain_with_flags(self, fmt_name):
        """The batched data plane reproduces the scalar oracle's bits AND
        its accumulated IEEE exception flags in every precision."""
        fmt = get_format(fmt_name)
        rng = np.random.default_rng(3)
        rows, cols, n = 3, 4, 6
        hi = 1 << fmt.storage_bits
        # Exclude the sign bit half to keep magnitudes spread but finite-ish;
        # NaN/inf patterns are fine too -- include a few explicitly.
        x_bits = rng.integers(0, hi, (1, rows, n), dtype=np.uint32)
        w_bits = rng.integers(0, hi, (1, n, cols), dtype=np.uint32)
        acc_bits = np.zeros((1, rows, cols), dtype=np.uint32)
        mask = np.ones(n, dtype=bool)
        mask[n - 1] = False  # one gated step, accumulator passes through

        flags = ExceptionFlags()
        got = replay_dataplane(x_bits, w_bits, acc_bits, mask, fmt,
                               flags=flags)

        want = np.zeros((rows, cols), dtype=np.uint32)
        want_flags = ExceptionFlags()
        for r in range(rows):
            for c in range(cols):
                acc = 0
                for step in np.flatnonzero(mask):
                    acc = fma_bits(int(x_bits[0, r, step]),
                                   int(w_bits[0, step, c]), acc, fmt,
                                   flags=want_flags)
                want[r, c] = acc
        assert np.array_equal(got[0].astype(np.uint32), want)
        assert flags.to_fflags() == want_flags.to_fflags()

    def test_flagless_and_flagged_paths_agree(self):
        fmt = get_format("fp16")
        rng = np.random.default_rng(5)
        x_bits = rng.integers(0, 0x8000, (2, 4, 8), dtype=np.uint16)
        w_bits = rng.integers(0, 0x8000, (2, 8, 3), dtype=np.uint16)
        acc_bits = rng.integers(0, 0x8000, (2, 4, 3), dtype=np.uint16)
        mask = np.ones(8, dtype=bool)
        fast = replay_dataplane(x_bits, w_bits, acc_bits, mask, fmt)
        slow = replay_dataplane(x_bits, w_bits, acc_bits, mask, fmt,
                                flags=ExceptionFlags())
        assert np.array_equal(np.asarray(fast, np.uint16),
                              np.asarray(slow, np.uint16))


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
