"""System-level multi-precision tests: engine, perf model, farm, dse, serve.

The acceptance criteria of the multi-precision work:

* FP8-E4M3, FP8-E5M2 and BF16 engine runs are bit-identical between the
  scalar and SIMD strategies (and match the generic hardware-order golden
  model);
* the analytic perf model stays bit-exact (``is_exact``) on the
  reference-instance domain for every format;
* the engine-hang guards (P=0, shallow Z queues) reject bad configurations
  and jobs with a ``ValueError`` instead of spinning;
* the farm's timing-cache identity includes the element format (schema v4).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.farm import SimulationFarm, TimingCache
from repro.farm.cache import CACHE_FILE_VERSION, TimingKey, config_key
from repro.farm.workers import config_from_key, run_functional_job
from repro.fp.formats import get_format
from repro.fp.simd_formats import f64_to_bits_many
from repro.fp.vector import random_matrix
from repro.interco.hci import Hci, HciConfig
from repro.mem.layout import MatrixHandle, MemoryAllocator
from repro.mem.memory import Memory
from repro.mem.tcdm import Tcdm, TcdmConfig
from repro.redmule.config import RedMulEConfig
from repro.redmule.engine import RedMulE
from repro.redmule.functional import (
    matmul_hw_order_exact_fmt,
    matmul_hw_order_simd_fmt,
)
from repro.redmule.job import MatmulJob
from repro.redmule.perf_model import RedMulEPerfModel
from repro.redmule.trace import TraceStore

NARROW_FORMATS = ("bf16", "fp8-e4m3", "fp8-e5m2")


def _engine_for(config: RedMulEConfig, backend: str):
    tcdm = Tcdm(TcdmConfig())
    hci = Hci(tcdm, HciConfig(n_wide_ports=config.n_mem_ports))
    return RedMulE(config, hci, backend=backend)


def _run_shape(config: RedMulEConfig, backend: str, m, n, k,
               accumulate=False, seed=0):
    engine = _engine_for(config, backend)
    tcdm = engine.tcdm
    allocator = MemoryAllocator(tcdm.base, tcdm.size)
    fmt = config.format
    hx = allocator.alloc_matrix(m, n, "X", fmt=fmt)
    hw = allocator.alloc_matrix(n, k, "W", fmt=fmt)
    hz = allocator.alloc_matrix(m, k, "Z", fmt=fmt)
    job = MatmulJob.from_handles(hx, hw, hz, accumulate=accumulate)
    hx.store(tcdm, random_matrix(m, n, fmt, scale=0.25, seed=seed))
    hw.store(tcdm, random_matrix(n, k, fmt, scale=0.25, seed=seed + 1))
    acc = None
    if accumulate:
        acc = random_matrix(m, k, fmt, scale=0.25, seed=seed + 2)
        hz.store(tcdm, acc)
    result = engine.run_job(job)
    image = tcdm.dump_image(hz.base, m * k * config.element_bytes)
    return result, image, (hx, hw, acc, tcdm)


class TestConfigGeometry:
    def test_fp8_packs_two_elements_per_slot(self):
        fp16 = RedMulEConfig.reference()
        fp8 = RedMulEConfig(format="fp8-e4m3")
        assert fp16.elements_per_slot == 1 and fp8.elements_per_slot == 2
        assert fp8.elements_per_line == 2 * fp16.elements_per_line
        # Equal geometry: same ports, same FMA count, doubled peak MACs.
        assert fp8.n_mem_ports == fp16.n_mem_ports
        assert fp8.n_fma == fp16.n_fma
        assert fp8.ideal_macs_per_cycle == 2 * fp16.ideal_macs_per_cycle
        # Same buffer bits: twice the elements at half the width.
        assert fp8.total_buffer_bits == fp16.total_buffer_bits

    def test_bf16_keeps_fp16_geometry(self):
        bf16 = RedMulEConfig(format="bf16")
        fp16 = RedMulEConfig.reference()
        assert bf16.elements_per_line == fp16.elements_per_line
        assert bf16.ideal_macs_per_cycle == fp16.ideal_macs_per_cycle

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown element format"):
            RedMulEConfig(format="fp4-e2m1")

    def test_format_participates_in_config_identity(self):
        assert RedMulEConfig() != RedMulEConfig(format="fp8-e4m3")
        assert config_key(RedMulEConfig())[-1] == "fp16"


class TestEngineHangGuards:
    def test_p0_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="pipeline_regs.*>= 1"):
            RedMulEConfig(pipeline_regs=0)

    def test_shallow_z_queue_rejected_at_job_submission(self):
        config = RedMulEConfig(length=8, z_queue_depth=4)
        engine = _engine_for(config, "exact-simd")
        job = MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=8, n=4, k=4)
        with pytest.raises(ValueError, match="live-row requirement"):
            engine.run_job(job)
        # A short job (fewer live rows than the queue) is fine.
        base = engine.tcdm.base
        small = MatmulJob(x_addr=base, w_addr=base + 4096,
                          z_addr=base + 8192, m=4, n=4, k=4)
        assert engine.run_job(small).cycles > 0

    def test_element_width_mismatch_rejected(self):
        engine = _engine_for(RedMulEConfig(format="fp8-e4m3"), "exact-simd")
        fp16_job = MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=4, n=4, k=4)
        with pytest.raises(ValueError, match="element width"):
            engine.run_job(fp16_job)


class TestEngineBitExactness:
    @pytest.mark.parametrize("fmt", NARROW_FORMATS)
    @pytest.mark.parametrize("shape", [(5, 7, 9), (17, 9, 33), (8, 20, 40)])
    def test_scalar_and_simd_strategies_bit_identical(self, fmt, shape):
        m, n, k = shape
        config = RedMulEConfig(format=fmt)
        res_a, img_a, _ = _run_shape(config, "exact", m, n, k)
        res_b, img_b, _ = _run_shape(config, "exact-simd", m, n, k)
        assert res_a.cycles == res_b.cycles
        assert img_a == img_b

    @pytest.mark.parametrize("fmt", NARROW_FORMATS)
    def test_engine_matches_the_generic_golden_model(self, fmt):
        m, n, k = 9, 6, 37
        config = RedMulEConfig(format=fmt)
        _, image, (hx, hw, acc, tcdm) = _run_shape(
            config, "exact-simd", m, n, k, accumulate=True
        )
        bf = get_format(fmt)
        x_bits = f64_to_bits_many(np.asarray(hx.load(tcdm), np.float64), bf)
        w_bits = f64_to_bits_many(np.asarray(hw.load(tcdm), np.float64), bf)
        acc_bits = f64_to_bits_many(np.asarray(acc, np.float64), bf)
        golden = matmul_hw_order_exact_fmt(
            x_bits.tolist(), w_bits.tolist(), bf, acc_bits.tolist()
        )
        dtype = np.uint8 if bf.storage_bytes == 1 else "<u2"
        z = np.frombuffer(image, dtype=dtype).reshape(m, k).astype(int)
        assert z.tolist() == golden

    @pytest.mark.parametrize("fmt", ("fp16",) + NARROW_FORMATS)
    def test_simd_golden_matches_scalar_golden(self, fmt):
        bf = get_format(fmt)
        x = random_matrix(6, 11, fmt, scale=0.3, seed=5)
        w = random_matrix(11, 7, fmt, scale=0.3, seed=6)
        simd = matmul_hw_order_simd_fmt(np.asarray(x, np.float64),
                                        np.asarray(w, np.float64), bf)
        x_bits = f64_to_bits_many(np.asarray(x, np.float64), bf)
        w_bits = f64_to_bits_many(np.asarray(w, np.float64), bf)
        exact = matmul_hw_order_exact_fmt(x_bits.tolist(), w_bits.tolist(), bf)
        assert f64_to_bits_many(simd, bf).tolist() == exact

    @pytest.mark.parametrize("fmt", NARROW_FORMATS)
    def test_functional_runs_agree_across_backends_on_narrow_formats(
            self, fmt):
        key = config_key(RedMulEConfig(format=fmt))
        assert (run_functional_job(key, 6, 9, 18, True, "exact-simd")
                == run_functional_job(key, 6, 9, 18, True, "exact"))

    def test_fp8_throughput_beats_fp16_on_equal_geometry(self):
        m, n, k = 32, 32, 64
        res16, _, _ = _run_shape(RedMulEConfig(), "exact-simd", m, n, k)
        res8, _, _ = _run_shape(RedMulEConfig(format="fp8-e4m3"), "exact-simd",
                                m, n, k)
        assert res8.cycles < res16.cycles
        # Large-K jobs approach the full 2x elements-per-line advantage.
        assert res16.cycles / res8.cycles > 1.8


class TestPaddingLanesAreOperandGated:
    """Inner-dimension padding lanes must not touch the accumulator.

    N = 6 leaves two padding lanes in the last H = 4 chunk.  Every real
    product (min subnormal times its negative) rounds to -0, so a -0
    accumulator stays -0 -- unless a padding lane computes ``x * (+0) + acc``,
    whose ``+0 + -0`` flips it to +0.
    """

    @pytest.mark.parametrize("backend", ["exact", "exact-simd", "trace"])
    @pytest.mark.parametrize("fmt", ["fp16", "fp8-e4m3"])
    def test_signed_zero_accumulator_survives_padding(self, fmt, backend):
        m, n, k = 8, 6, 16
        config = RedMulEConfig(format=fmt)
        bf = config.binary_format
        tiny = bf.bits_to_float(1)
        tcdm = Tcdm(TcdmConfig())
        engine = RedMulE(config, Hci(tcdm, HciConfig()), backend=backend,
                         trace_store=TraceStore())
        allocator = MemoryAllocator(tcdm.base, tcdm.size)
        hx = allocator.alloc_matrix(m, n, "X", fmt=fmt)
        hw = allocator.alloc_matrix(n, k, "W", fmt=fmt)
        hz = allocator.alloc_matrix(m, k, "Z", fmt=fmt)
        x = np.full((m, n), tiny)
        w = np.full((n, k), -tiny)
        z0 = np.full((m, k), -0.0)
        golden = matmul_hw_order_exact_fmt(
            f64_to_bits_many(x, bf).tolist(), f64_to_bits_many(w, bf).tolist(),
            bf, f64_to_bits_many(z0, bf).tolist())
        assert golden == [[bf.sign_mask] * k] * m
        hx.store(tcdm, x)
        hw.store(tcdm, w)
        # Twice, so the trace backend replays what it recorded.
        for _ in range(2):
            hz.store(tcdm, z0)
            engine.run_job(MatmulJob.from_handles(hx, hw, hz, accumulate=True))
            image = tcdm.dump_image(hz.base, m * k * config.element_bytes)
            dtype = np.uint8 if bf.storage_bytes == 1 else "<u2"
            z = np.frombuffer(image, dtype=dtype).reshape(m, k)
            assert z.tolist() == golden


class TestPerfModelExactness:
    @pytest.mark.parametrize("fmt", ("fp16",) + NARROW_FORMATS)
    def test_reference_instance_domain_is_bit_exact(self, fmt):
        config = RedMulEConfig(format=fmt)
        model = RedMulEPerfModel(config)
        for (m, n, k) in [(1, 1, 1), (8, 16, 16), (17, 9, 33), (16, 64, 80)]:
            for accumulate in (False, True):
                result, _, _ = _run_shape(config, "exact-simd", m, n, k, accumulate)
                job = MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=m, n=n, k=k,
                                accumulate=accumulate,
                                element_bytes=config.element_bytes)
                assert model.is_exact(job)
                assert model.estimate(job).cycles == result.cycles

    @settings(max_examples=30, deadline=None)
    @given(fmt=st.sampled_from(NARROW_FORMATS),
           height=st.integers(min_value=1, max_value=5),
           length=st.integers(min_value=1, max_value=6),
           pipeline_regs=st.integers(min_value=1, max_value=3),
           m=st.integers(min_value=1, max_value=12),
           n=st.integers(min_value=1, max_value=24),
           k=st.integers(min_value=1, max_value=40),
           accumulate=st.booleans())
    def test_exact_domain_holds_on_random_narrow_geometries(
        self, fmt, height, length, pipeline_regs, m, n, k, accumulate
    ):
        config = RedMulEConfig(height=height, length=length,
                               pipeline_regs=pipeline_regs,
                               z_queue_depth=max(8, length), format=fmt)
        job = MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=m, n=n, k=k,
                        accumulate=accumulate,
                        element_bytes=config.element_bytes)
        model = RedMulEPerfModel(config)
        estimate = model.estimate(job)
        result, _, _ = _run_shape(config, "exact-simd", m, n, k, accumulate)
        if model.is_exact(job):
            assert estimate.cycles == result.cycles
        else:
            # Outside the exact domain the closed form is a lower bound.
            assert estimate.cycles <= result.cycles


class TestFarmFormatIdentity:
    def test_timing_keys_differ_per_format(self):
        job = MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=8, n=8, k=8)
        key16 = TimingKey.for_job(RedMulEConfig(), job, "engine")
        key8 = TimingKey.for_job(RedMulEConfig(format="fp8-e5m2"), job,
                                 "engine")
        assert key16 != key8

    def test_config_round_trips_through_the_cache_key(self):
        config = RedMulEConfig(height=2, length=4, pipeline_regs=2,
                               format="fp8-e4m3")
        assert config_from_key(config_key(config)) == config

    def test_five_field_keys_are_rejected(self):
        # config_key always emits six fields and only schema v5 cache files
        # (six-field keys) load, so a key without the format is malformed.
        with pytest.raises(ValueError):
            config_from_key((4, 8, 3, 1, 8))

    def test_cache_schema_v7_rejects_older_versions(self, tmp_path):
        cache = TimingCache()
        path = tmp_path / "cache.json"
        cache.save(path)
        payload = json.loads(path.read_text())
        assert payload == {"version": CACHE_FILE_VERSION, "entries": []}
        assert CACHE_FILE_VERSION == 7
        assert cache.load(path) == 0
        # v6 (trace table), v5 (event-array traces), v4 (keys carry
        # ``exact``), v3 (pre-trace payload), v2 (pre-format keys) and v1
        # files are rejected; the runner then treats the cache file as
        # empty.
        v4_entry = {
            "key": {"config": list(config_key(RedMulEConfig())), "m": 8,
                    "n": 16, "k": 16, "accumulate": False, "exact": True,
                    "backend": "engine"},
            "record": {"cycles": 100, "stall_cycles": 5, "active_cycles": 90,
                       "total_macs": 2048, "issued_macs": 4096, "n_tiles": 1,
                       "peak_macs_per_cycle": 32, "ideal_cycles": 64,
                       "backend": "engine"},
        }
        payload["entries"] = [v4_entry]
        for version in (6, 5, 4, 3, 2, 1):
            payload["version"] = version
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match="version"):
                cache.load(path)
            assert len(cache) == 0
        # Relabelled as the current version, the v4 key does not decode.
        payload["version"] = CACHE_FILE_VERSION
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="entry 0"):
            cache.load(path)

    @pytest.mark.parametrize("backend", ["engine", "model"])
    @pytest.mark.parametrize("fmt", ("fp16",) + NARROW_FORMATS)
    def test_cache_entries_round_trip_with_format_keys(self, tmp_path, fmt,
                                                       backend):
        farm = SimulationFarm(config=RedMulEConfig(format=fmt))
        want = farm.run_gemm(8, 8, 8, backend=backend)
        path = tmp_path / "cache.json"
        farm.save_cache(path)
        fresh = SimulationFarm(config=RedMulEConfig(format=fmt),
                               cache=TimingCache())
        assert fresh.load_cache(path) == 1
        hit = fresh.run_gemm(8, 8, 8, backend=backend)
        assert hit.cache_hit and hit.record == want.record
        assert fresh.stats.engine_runs == fresh.stats.model_runs == 0

    def test_farm_cross_format_timing_differs(self):
        cache = TimingCache()
        fp16 = SimulationFarm(config=RedMulEConfig(), cache=cache)
        fp8 = SimulationFarm(config=RedMulEConfig(format="fp8-e4m3"),
                             cache=cache)
        r16 = fp16.run_gemm(32, 32, 64, backend="model")
        r8 = fp8.run_gemm(32, 32, 64, backend="model")
        assert r8.cycles < r16.cycles
        assert not r8.cache_hit  # distinct keys, no cross-format pollution

    def test_functional_worker_runs_narrow_formats(self):
        key = config_key(RedMulEConfig(format="fp8-e5m2"))
        cycles, image = run_functional_job(key, 5, 6, 7, False, "exact-simd")
        assert cycles > 0
        assert len(image) == 5 * 7  # one byte per FP8 element


class TestMemoryAndLayout:
    def test_u8_element_lines_round_trip(self):
        memory = Memory(256)
        line = np.arange(20, dtype=np.uint8)
        memory.write_element_line(3, line, element_bytes=1)
        back = memory.read_element_line(3, 20, element_bytes=1)
        assert np.array_equal(back, line)

    def test_u16_element_lines_alias_the_legacy_accessors(self):
        memory = Memory(256)
        line = np.arange(10, dtype=np.uint16)
        memory.write_element_line(4, line, element_bytes=2)
        assert np.array_equal(memory.read_u16_line(4, 10), line)

    @pytest.mark.parametrize("fmt", NARROW_FORMATS)
    def test_matrix_handles_store_and_load_in_format(self, fmt):
        memory = Memory(4096)
        handle = MatrixHandle(base=0, rows=5, cols=6, fmt=fmt)
        assert handle.element_bytes == get_format(fmt).storage_bytes
        matrix = random_matrix(5, 6, fmt, seed=3)
        handle.store(memory, matrix)
        assert np.array_equal(np.asarray(handle.load(memory), np.float64),
                              matrix)

    def test_handle_format_and_element_bytes_must_agree(self):
        with pytest.raises(ValueError, match="disagrees"):
            MatrixHandle(base=0, rows=2, cols=2, fmt="fp8-e4m3",
                         element_bytes=2)

    def test_fp8_jobs_round_trip_the_register_file(self):
        from repro.redmule.controller import RedMulEController

        controller = RedMulEController()
        job = MatmulJob(x_addr=0, w_addr=64, z_addr=128, m=4, n=6, k=8,
                        accumulate=True, element_bytes=1)
        controller.acquire()
        controller.program_job(job)
        assert controller.current_job() == job
        controller.abort()


class TestDsePrecisionAxis:
    def test_precision_axis_expands_the_grid(self):
        from repro.dse import DesignSpace

        space = DesignSpace.grid(height=(2, 4),
                                 precision=("fp16", "fp8-e4m3"))
        points = list(space.points())
        assert len(points) == 4
        formats = {point.config.format for point in points}
        assert formats == {"fp16", "fp8-e4m3"}
        assert points[0].axis_values()["precision"] in formats

    def test_unknown_precision_value_rejected(self):
        from repro.dse import DesignSpace
        from repro.dse.space import DesignSpaceError

        with pytest.raises(DesignSpaceError, match="unknown format"):
            DesignSpace.grid(precision=("fp12",))

    def test_sweep_reports_precision_and_fp8_wins_cycles(self):
        from repro.dse import DesignSpace, sweep
        from repro.workloads.gemm import GemmShape

        space = DesignSpace.grid(precision=("fp16", "fp8-e4m3"))
        result = sweep(space, [GemmShape(64, 64, 64, name="g")],
                       name="precision-sweep")
        by_precision = {point.precision: point for point in result.points}
        assert set(by_precision) == {"fp16", "fp8-e4m3"}
        assert (by_precision["fp8-e4m3"].serial_cycles
                < by_precision["fp16"].serial_cycles)
        assert all(point.model_exact for point in result.points)


class TestServeMixedPrecision:
    def test_zoo_precision_variants(self):
        from repro.graph.zoo import build_model

        fp8 = build_model("autoencoder-b1-fp8")
        assert fp8.precision == "fp8-e4m3"
        base = build_model("autoencoder-b1")
        assert base.precision is None  # precision-agnostic: inherits config
        assert [n.name for n in fp8.nodes] == [n.name for n in base.nodes]

    def test_lowering_stamps_the_graph_precision(self):
        from repro.graph.zoo import build_model

        program = build_model("autoencoder-b1-fp8").lower(
            config=RedMulEConfig.reference()
        )
        assert program.precision == "fp8-e4m3"
        assert all(job.element_bytes == 1 for job in program.jobs)

    def test_precision_agnostic_graphs_inherit_the_config_format(self):
        from repro.graph.zoo import build_model

        program = build_model("mlp-tiny").lower(
            config=RedMulEConfig(format="fp8-e5m2")
        )
        assert program.precision == "fp8-e5m2"
        assert all(job.element_bytes == 1 for job in program.jobs)

    def test_mixed_precision_serving_routes_per_format_farms(self):
        from repro.graph.zoo import build_model
        from repro.serve import (
            ContinuousServer,
            ModelSpec,
            RequestGenerator,
            TenantSpec,
        )

        tenants = (
            TenantSpec("fp16", (ModelSpec("mlp-tiny", build_model("mlp-tiny")),),
                       rps=1000.0),
            TenantSpec("fp8", (ModelSpec("autoencoder-b1-fp8",
                                         build_model("autoencoder-b1-fp8")),),
                       rps=1000.0),
        )
        generator = RequestGenerator(tenants, seed=0)
        server = ContinuousServer(n_clusters=2, backend="model",
                                  node_dispatch=True)
        report = server.simulate(generator.generate(0.02), "mixed")
        assert report.completed > 0
        assert set(report.tenants) == {"fp16", "fp8"}
        # Both precisions were served, and the derived farm shares the
        # base farm's cache.
        assert {key[1] for key in server._programs} == {"fp16", "fp8-e4m3"}
        assert server.farm.with_format("fp8-e4m3").cache is server.farm.cache


class TestServeSatelliteRegressions:
    def _generator(self, seed=7):
        from repro.graph.zoo import build_model
        from repro.serve import ModelSpec, RequestGenerator, TenantSpec

        tenant = TenantSpec(
            "t",
            (ModelSpec("a", build_model("mlp-tiny"), weight=1.0),
             ModelSpec("b", build_model("conv-tiny"), weight=1.0)),
            rps=2000.0,
        )
        return RequestGenerator((tenant,), seed=seed)

    def test_generate_and_burst_draw_independent_streams(self):
        generator = self._generator()
        open_loop = generator.generate(0.05)
        burst = generator.burst(len(open_loop))
        # Deterministic per seed...
        assert [r.model for r in generator.generate(0.05)] == [
            r.model for r in open_loop
        ]
        assert [r.model for r in generator.burst(len(open_loop))] == [
            r.model for r in burst
        ]
        # ...but the two traffic shapes must not replay the same model
        # choices (the old shared-seed bug made them identical streams).
        n = min(len(open_loop), len(burst))
        assert ([r.model for r in open_loop[:n]]
                != [r.model for r in burst[:n]])

    def test_latency_stats_match_the_percentile_helper(self):
        import random

        from repro.serve.report import LatencyStats, percentile

        rng = random.Random(0)
        sample = [rng.uniform(0, 1e6) for _ in range(1000)]
        stats = LatencyStats.from_latencies(sample)
        assert stats.p50 == percentile(sample, 0.50)
        assert stats.p95 == percentile(sample, 0.95)
        assert stats.p99 == percentile(sample, 0.99)
        assert stats.max == max(sample)
        assert stats.count == len(sample)
