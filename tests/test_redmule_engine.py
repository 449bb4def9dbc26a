"""Tests for the cycle-accurate RedMulE engine.

The engine is verified on two axes:

* **functional** -- the Z matrix written to the TCDM must equal the
  bit-exact golden FP16 model for a wide range of shapes including edge
  tiles and padding;
* **timing** -- cycle counts must behave like the paper describes: utilisation
  grows with the matrix size, approaches the 32 MAC/cycle ideal for large
  inner dimensions, and degrades under TCDM contention.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.farm import SimulationFarm
from repro.fp.formats import FP16
from repro.fp.simd_formats import bits_to_f64_many, f64_to_bits_many
from repro.fp.vector import random_matrix
from repro.interco.hci import Hci, HciConfig
from repro.interco.log_interco import CoreRequest
from repro.mem.layout import MemoryAllocator
from repro.mem.tcdm import Tcdm
from repro.redmule.config import RedMulEConfig
from repro.redmule.engine import RedMulE
from repro.redmule.functional import matmul_hw_order_exact_fmt, matmul_hw_order_simd_fmt
from repro.redmule.job import MatmulJob
from repro.redmule.trace import TraceStore
from tests.conftest import MatmulHarness


class TestFunctionalCorrectness:
    @pytest.mark.parametrize(
        "m,n,k",
        [
            (8, 16, 16),    # exactly one tile
            (8, 4, 16),     # single chunk
            (16, 16, 16),   # two tile rows
            (8, 64, 16),    # several X blocks
            (13, 7, 5),     # everything ragged
            (1, 40, 1),     # degenerate vector shapes
            (3, 3, 40),     # K wider than one tile
            (24, 100, 40),  # multi-tile with ragged inner dimension
        ],
    )
    def test_matches_golden_model(self, harness, m, n, k):
        x, w, z, _ = harness.run_random(m, n, k, seed=m * 100 + n + k)
        golden = matmul_hw_order_simd_fmt(x, w, FP16)
        assert np.array_equal(z, golden)

    def test_bit_exact_mode_matches_exact_golden(self, exact_harness):
        x, w, z, _ = exact_harness.run_random(9, 10, 11, seed=5)
        golden = bits_to_f64_many(matmul_hw_order_exact_fmt(
            f64_to_bits_many(x, FP16), f64_to_bits_many(w, FP16), FP16), FP16)
        assert np.array_equal(z, golden)

    def test_exact_and_simd_modes_agree(self, harness, exact_harness):
        x = random_matrix(10, 13, scale=0.3, seed=21)
        w = random_matrix(13, 9, scale=0.3, seed=22)
        z_simd, _ = harness.run(x, w)
        z_exact, _ = exact_harness.run(x, w)
        assert np.array_equal(z_simd, z_exact)

    def test_does_not_clobber_neighbouring_memory(self, engine):
        """The engine must only write the Z region (plus nothing else)."""
        harness = MatmulHarness(engine)
        tcdm = engine.tcdm
        guard_addr = tcdm.base + 64 * 1024
        tcdm.load_image(guard_addr, b"\xa5" * 64)
        harness.run_random(8, 16, 16, seed=3)
        assert tcdm.dump_image(guard_addr, 64) == b"\xa5" * 64

    def test_back_to_back_jobs_on_same_engine(self, harness):
        for seed, shape in enumerate([(8, 16, 16), (5, 9, 7), (16, 8, 24)]):
            x, w, z, _ = harness.run_random(*shape, seed=seed)
            assert np.array_equal(z, matmul_hw_order_simd_fmt(x, w, FP16))

    def test_non_reference_geometry(self):
        config = RedMulEConfig(height=2, length=4, pipeline_regs=1)
        tcdm = Tcdm()
        hci = Hci(tcdm, HciConfig(n_wide_ports=config.n_mem_ports))
        harness = MatmulHarness(RedMulE(config, hci))
        x, w, z, result = harness.run_random(9, 11, 6, seed=1)
        assert np.array_equal(z, matmul_hw_order_simd_fmt(x, w, FP16))
        assert result.peak_macs_per_cycle == config.n_fma


class TestTiming:
    def test_result_accounting(self, harness):
        _, _, _, result = harness.run_random(16, 32, 32, seed=0)
        assert result.total_macs == 16 * 32 * 32
        assert result.n_tiles == 2 * 2
        assert result.cycles > result.total_macs / 32
        assert result.stall_cycles > 0
        assert 0.0 < result.utilisation < 1.0
        assert result.issued_macs >= result.total_macs
        assert "cycles" in result.summary()

    def test_utilisation_grows_with_inner_dimension(self, harness):
        utilisations = []
        for n in (16, 64, 256):
            _, _, _, result = harness.run_random(8, n, 16, seed=n)
            utilisations.append(result.utilisation)
        assert utilisations == sorted(utilisations)

    def test_large_inner_dimension_approaches_ideal(self, harness):
        """The paper reports 31.6/32 MAC/cycle (98.8 %) for large workloads."""
        _, _, _, result = harness.run_random(8, 512, 16, seed=9)
        assert result.utilisation > 0.95
        assert result.macs_per_cycle > 30.0

    def test_tiny_matrix_has_low_utilisation(self, harness):
        """Fig. 3c/3d: small problems are dominated by control overhead."""
        _, _, _, result = harness.run_random(4, 4, 4, seed=2)
        assert result.utilisation < 0.25

    def test_streamer_traffic_matches_expectation(self, harness):
        m, n, k = 8, 64, 16
        _, _, _, result = harness.run_random(m, n, k, seed=4)
        stats = result.streamer
        assert stats.w_loads == n          # one line per W row (one K tile)
        assert stats.x_loads == m * (n // 16)
        assert stats.z_stores == m
        assert stats.accesses <= stats.cycles

    def test_ideal_cycles_lower_bound(self, harness):
        _, _, _, result = harness.run_random(16, 48, 32, seed=6)
        ideal = result.total_macs / 32
        assert result.cycles >= ideal

    def test_offload_wrapper_updates_controller(self, engine):
        harness = MatmulHarness(engine)
        x, w, _, _ = harness.run_random(8, 16, 16, seed=0)
        # Re-run the same job through the software-style offload path.
        hx = harness.allocator.alloc_matrix(8, 16, "X2")
        hw = harness.allocator.alloc_matrix(16, 16, "W2")
        hz = harness.allocator.alloc_matrix(8, 16, "Z2")
        hx.store(engine.tcdm, x)
        hw.store(engine.tcdm, w)
        from repro.redmule.job import MatmulJob

        result = engine.offload(MatmulJob.from_handles(hx, hw, hz))
        assert engine.controller.fsm.jobs_completed == 1
        assert engine.controller.fsm.job_history == [result.cycles]
        assert np.array_equal(hz.load(engine.tcdm), matmul_hw_order_simd_fmt(x, w, FP16))

    def test_max_cycles_guard(self, harness):
        with pytest.raises(RuntimeError):
            harness.engine.run_job(
                __import__("repro.redmule.job", fromlist=["MatmulJob"]).MatmulJob(
                    x_addr=harness.tcdm.base,
                    w_addr=harness.tcdm.base + 0x800,
                    z_addr=harness.tcdm.base + 0x1000,
                    m=8, n=64, k=16,
                ),
                max_cycles=10,
            )

    def test_offload_stays_usable_after_forced_timeout(self, engine):
        """Regression: a failed run must release the controller context.

        ``offload`` used to leave the controller acquired when ``run_job``
        raised (e.g. the ``max_cycles`` watchdog), so every later offload
        failed with "RedMulE is busy" even though nothing was running.
        """
        from repro.redmule.job import MatmulJob

        harness = MatmulHarness(engine)
        x = random_matrix(8, 16, scale=0.25, seed=31)
        w = random_matrix(16, 16, scale=0.25, seed=32)
        hx = harness.allocator.alloc_matrix(8, 16, "X")
        hw = harness.allocator.alloc_matrix(16, 16, "W")
        hz = harness.allocator.alloc_matrix(8, 16, "Z")
        hx.store(engine.tcdm, x)
        hw.store(engine.tcdm, w)
        job = MatmulJob.from_handles(hx, hw, hz)

        with pytest.raises(RuntimeError, match="exceeded"):
            engine.offload(job, max_cycles=5)

        # The aborted job neither completed nor left the controller busy.
        assert not engine.controller.busy
        assert engine.controller.fsm.jobs_completed == 0

        # The same instance accepts and completes the next offload.
        result = engine.offload(job)
        assert engine.controller.fsm.jobs_completed == 1
        assert np.array_equal(hz.load(engine.tcdm), matmul_hw_order_simd_fmt(x, w, FP16))
        assert result.cycles > 0
        assert not engine.controller.busy


class TestContention:
    def test_core_traffic_slows_the_accelerator_down(self):
        """With cores hammering the TCDM banks the wide port loses slots and
        the job takes longer (the HCI rotation bounds the slowdown)."""
        def run(with_traffic: bool) -> int:
            tcdm = Tcdm()
            hci = Hci(tcdm, HciConfig(max_wide_streak=2))
            engine = RedMulE(RedMulEConfig.reference(), hci)
            harness = MatmulHarness(engine)
            x = random_matrix(8, 64, scale=0.3, seed=1)
            w = random_matrix(64, 16, scale=0.3, seed=2)
            if with_traffic:
                original_cycle = hci.wide_line_cycle

                def noisy_wide_cycle(*args, **kwargs):
                    hci.submit_log_requests(
                        [CoreRequest(initiator=i, addr=tcdm.base + 4 * i)
                         for i in range(4)]
                    )
                    return original_cycle(*args, **kwargs)

                hci.wide_line_cycle = noisy_wide_cycle
            _, result = harness.run(x, w)
            golden = matmul_hw_order_simd_fmt(x, w, FP16)
            z = harness.allocator  # silence linters; correctness checked below
            return result.cycles

        quiet = run(with_traffic=False)
        noisy = run(with_traffic=True)
        assert noisy > quiet

    def test_contention_does_not_corrupt_results(self):
        tcdm = Tcdm()
        hci = Hci(tcdm, HciConfig(max_wide_streak=1))
        engine = RedMulE(RedMulEConfig.reference(), hci)
        harness = MatmulHarness(engine)
        x = random_matrix(8, 32, scale=0.3, seed=11)
        w = random_matrix(32, 16, scale=0.3, seed=12)

        original_cycle = hci.wide_line_cycle

        def noisy_wide_cycle(*args, **kwargs):
            hci.submit_log_requests([CoreRequest(initiator=0, addr=tcdm.base)])
            return original_cycle(*args, **kwargs)

        hci.wide_line_cycle = noisy_wide_cycle
        z, result = harness.run(x, w)
        assert np.array_equal(z, matmul_hw_order_simd_fmt(x, w, FP16))
        assert result.streamer.stall_cycles > 0


def _contended_hci(config, streak, density=None, seed=0):
    """An HCI whose wide port meets seeded core traffic on a ``density``
    share of its cycles (none when ``density`` is None)."""
    tcdm = Tcdm()
    hci = Hci(tcdm, HciConfig(n_wide_ports=config.n_mem_ports,
                              max_wide_streak=streak))
    if density is not None:
        traffic = random.Random(seed)
        original_cycle = hci.wide_line_cycle

        def noisy_wide_cycle(*args, **kwargs):
            if traffic.random() < density:
                hci.submit_log_requests(
                    [CoreRequest(initiator=0, addr=tcdm.base)])
            return original_cycle(*args, **kwargs)

        hci.wide_line_cycle = noisy_wide_cycle
    return hci


def _placed_job(engine, m, n, k, accumulate=False):
    """A zero-operand job of the engine's format, placed from the TCDM base."""
    fmt = engine.config.format
    allocator = MemoryAllocator(engine.tcdm.base, engine.tcdm.size)
    return MatmulJob.from_handles(
        allocator.alloc_matrix(m, n, "X", fmt=fmt),
        allocator.alloc_matrix(n, k, "W", fmt=fmt),
        allocator.alloc_matrix(m, k, "Z", fmt=fmt),
        accumulate=accumulate,
    )


class TestWatchdog:
    """Without ``max_cycles`` the watchdog allows an upper bound on the
    cycles of any job that terminates, so it stops only jobs that cannot
    finish."""

    @pytest.mark.parametrize("length,shape,cycles", [
        (16, (640, 1, 128), 42_248),
        (16, (128, 1, 640), 42_248),
        (32, (640, 1, 128), 41_608),
        (32, (128, 1, 640), 41_608),
    ])
    def test_long_stalling_jobs_finish_on_the_default_budget(
            self, length, shape, cycles):
        """These jobs stall for about half their cycles, so a budget
        derived from the issue count alone (20,000 plus four issue slots
        per FMA) stops all four."""
        config = RedMulEConfig(height=2, length=length, pipeline_regs=1,
                               z_queue_depth=length)
        farm = SimulationFarm(config=config, backend="engine")
        assert farm.run_gemm(*shape).cycles == cycles

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(height=st.integers(1, 8), length=st.integers(1, 16),
           pipeline_regs=st.integers(1, 3), w_prefetch_lines=st.integers(1, 3),
           precision=st.sampled_from(["fp16", "fp8-e4m3"]),
           z_extra=st.none() | st.integers(0, 4),
           m=st.integers(1, 24), n=st.integers(1, 24), k=st.integers(1, 40),
           accumulate=st.booleans(),
           backend=st.sampled_from(["exact-simd", "trace"]),
           noise=st.none() | st.tuples(st.integers(1, 4),
                                       st.floats(0.05, 1.0),
                                       st.integers(0, 2 ** 32 - 1)))
    def test_the_default_budget_covers_every_finished_job(
            self, height, length, pipeline_regs, w_prefetch_lines, precision,
            z_extra, m, n, k, accumulate, backend, noise):
        """Jobs finish on the default budget, on the DSE's auto-deepened Z
        queue (``z_extra`` None) or a queue just deep enough, with and
        without seeded core traffic contending for the TCDM banks."""
        depth = max(8, length) if z_extra is None else length + z_extra
        config = RedMulEConfig(height=height, length=length,
                               pipeline_regs=pipeline_regs,
                               w_prefetch_lines=w_prefetch_lines,
                               z_queue_depth=depth, format=precision)
        streak, density, seed = noise or (4, None, 0)
        hci = _contended_hci(config, streak, density, seed)
        engine = RedMulE(config, hci, backend=backend,
                         trace_store=TraceStore())
        result = engine.run_job(_placed_job(engine, m, n, k, accumulate))
        assert result.cycles > 0
        if noise is not None:
            assert hci.stats.wide_stalls <= (
                hci.stats.wide_grants // streak + 1)

    def test_x_blocks_in_flight_count_against_the_buffer(self):
        """With one wide grant per streak and core traffic on 70 % of the
        cycles, block 3's loads are due while block 2's are still in
        flight; a buffer that counted only blocks with a loaded line
        queued both, and block 3's first line overflowed it."""
        config = RedMulEConfig(height=2, length=4, pipeline_regs=1)
        hci = _contended_hci(config, streak=1, density=0.7, seed=0)
        engine = RedMulE(config, hci, trace_store=TraceStore())
        assert engine.run_job(_placed_job(engine, 13, 16, 7)).cycles > 0
        assert hci.stats.wide_stalls <= hci.stats.wide_grants + 1

    def test_an_hci_that_never_grants_trips_the_default_budget(self):
        class DeadlockedHci(Hci):
            def wide_line_cycle(self, addr, *args, **kwargs):
                return None

        config = RedMulEConfig.reference()
        engine = RedMulE(config, DeadlockedHci(Tcdm(), HciConfig()))
        with pytest.raises(RuntimeError, match="exceeded"):
            engine.run_job(_placed_job(engine, 8, 16, 16))
