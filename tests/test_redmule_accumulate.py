"""Tests for accumulation jobs (``Z += X . W``).

Accumulation is the composition primitive for tiled GEMMs that exceed the
TCDM and for bias additions: the engine pre-loads the existing Z contents of
each tile into the row accumulators before walking the inner dimension.
"""

import numpy as np
import pytest

from repro.cluster import PulpCluster
from repro.fp.formats import FP16
from repro.fp.vector import random_matrix
from repro.redmule.config import RedMulEConfig
from repro.redmule.controller import FLAG_ACCUMULATE, REG_FLAGS, RedMulEController
from repro.redmule.functional import matmul_hw_order_simd_fmt
from repro.redmule.job import MatmulJob
from repro.redmule.perf_model import RedMulEPerfModel


class AccumulateHarness:
    """Place X, W and an initial Z, run ``Z += X.W``, read Z back."""

    def __init__(self, harness):
        self.harness = harness

    def run(self, m, n, k, seed=0):
        x = random_matrix(m, n, scale=0.25, seed=seed)
        w = random_matrix(n, k, scale=0.25, seed=seed + 1)
        z0 = random_matrix(m, k, scale=0.25, seed=seed + 2)
        allocator = self.harness.allocator
        tcdm = self.harness.tcdm
        hx = allocator.alloc_matrix(m, n, "X")
        hw = allocator.alloc_matrix(n, k, "W")
        hz = allocator.alloc_matrix(m, k, "Z")
        hx.store(tcdm, x)
        hw.store(tcdm, w)
        hz.store(tcdm, z0)
        job = MatmulJob.from_handles(hx, hw, hz, accumulate=True)
        result = self.harness.engine.run_job(job)
        return x, w, z0, hz.load(tcdm), result


class TestAccumulateFunctional:
    @pytest.mark.parametrize("m,n,k", [(8, 16, 16), (13, 7, 5), (16, 40, 24),
                                       (8, 4, 16), (1, 32, 1)])
    def test_matches_golden_with_initial_accumulator(self, harness, m, n, k):
        acc_harness = AccumulateHarness(harness)
        x, w, z0, z, _ = acc_harness.run(m, n, k, seed=m + n + k)
        golden = matmul_hw_order_simd_fmt(x, w, FP16, z0)
        assert np.array_equal(z, golden)

    def test_differs_from_non_accumulating_job(self, harness):
        acc_harness = AccumulateHarness(harness)
        x, w, z0, z, _ = acc_harness.run(8, 16, 16, seed=3)
        plain = matmul_hw_order_simd_fmt(x, w, FP16)
        assert not np.array_equal(z, plain)

    def test_zero_initial_accumulator_equals_plain_matmul(self, harness):
        m, n, k = 8, 24, 16
        x = random_matrix(m, n, scale=0.25, seed=10)
        w = random_matrix(n, k, scale=0.25, seed=11)
        allocator = harness.allocator
        hx = allocator.alloc_matrix(m, n, "X")
        hw = allocator.alloc_matrix(n, k, "W")
        hz = allocator.alloc_matrix(m, k, "Z")
        hx.store(harness.tcdm, x)
        hw.store(harness.tcdm, w)
        hz.store(harness.tcdm, np.zeros((m, k), dtype=np.float32))
        job = MatmulJob.from_handles(hx, hw, hz, accumulate=True)
        harness.engine.run_job(job)
        assert np.array_equal(hz.load(harness.tcdm), matmul_hw_order_simd_fmt(x, w, FP16))

    def test_bit_exact_mode(self, exact_harness):
        acc_harness = AccumulateHarness(exact_harness)
        x, w, z0, z, _ = acc_harness.run(6, 9, 7, seed=21)
        golden = matmul_hw_order_simd_fmt(x, w, FP16, z0)
        assert np.array_equal(z, golden)

    def test_tiled_composition_over_inner_dimension(self, harness):
        """Splitting N into two accumulation jobs equals one big job -- the
        use case accumulation exists for."""
        m, n, k = 8, 32, 16
        x = random_matrix(m, n, scale=0.25, seed=40)
        w = random_matrix(n, k, scale=0.25, seed=41)
        allocator = harness.allocator
        tcdm = harness.tcdm
        hz = allocator.alloc_matrix(m, k, "Z")
        hz.store(tcdm, np.zeros((m, k), dtype=np.float32))
        for half in range(2):
            x_half = x[:, half * 16:(half + 1) * 16]
            w_half = w[half * 16:(half + 1) * 16, :]
            hx = allocator.alloc_matrix(m, 16, f"X{half}")
            hw = allocator.alloc_matrix(16, k, f"W{half}")
            hx.store(tcdm, x_half)
            hw.store(tcdm, w_half)
            job = MatmulJob.from_handles(hx, hw, hz, accumulate=True)
            harness.engine.run_job(job)
        assert np.array_equal(hz.load(tcdm), matmul_hw_order_simd_fmt(x, w, FP16))


class TestAccumulateTimingAndPlumbing:
    def test_y_preload_traffic_is_counted(self, harness):
        acc_harness = AccumulateHarness(harness)
        m, n, k = 16, 32, 32
        _, _, _, _, result = acc_harness.run(m, n, k, seed=5)
        # One Z pre-load line per valid row per tile: 2 tile rows x 2 tile
        # cols x 8 rows.
        assert result.streamer.y_loads == 4 * 8
        assert result.streamer.z_stores == result.streamer.y_loads

    def test_accumulation_costs_extra_cycles(self, harness, exact_harness):
        plain_harness = harness
        _, _, _, plain = plain_harness.run_random(16, 32, 32, seed=6)
        acc = AccumulateHarness(exact_harness)
        # exact_harness uses its own memory, same shapes.
        _, _, _, _, accumulated = acc.run(16, 32, 32, seed=6)
        assert accumulated.cycles > plain.cycles

    def test_perf_model_tracks_accumulation(self, harness):
        acc_harness = AccumulateHarness(harness)
        m, n, k = 16, 48, 32
        _, _, _, _, measured = acc_harness.run(m, n, k, seed=7)
        job = MatmulJob(x_addr=0, w_addr=0x1000, z_addr=0x2000,
                        m=m, n=n, k=k, accumulate=True)
        estimate = RedMulEPerfModel(RedMulEConfig.reference()).estimate(job)
        assert abs(estimate.cycles - measured.cycles) <= max(32, 0.03 * measured.cycles)

    def test_flags_register_roundtrip(self):
        controller = RedMulEController()
        job = MatmulJob(x_addr=0x1000_0000, w_addr=0x1000_0400,
                        z_addr=0x1000_0800, m=8, n=8, k=8, accumulate=True)
        controller.program_job(job)
        assert controller.regfile.read(REG_FLAGS) & FLAG_ACCUMULATE
        assert controller.current_job().accumulate
        plain = MatmulJob(x_addr=0, w_addr=0x400, z_addr=0x800, m=8, n=8, k=8)
        controller.program_job(plain)
        assert not controller.current_job().accumulate

    def test_cluster_level_accumulate(self):
        cluster = PulpCluster()
        x = random_matrix(8, 16, scale=0.25, seed=50)
        w = random_matrix(16, 16, scale=0.25, seed=51)
        bias = random_matrix(8, 16, scale=0.25, seed=52)
        hx = cluster.place_matrix(x, "X")
        hw = cluster.place_matrix(w, "W")
        hz = cluster.place_matrix(bias, "Z")
        cluster.offload_matmul(hx, hw, hz, accumulate=True)
        expected = matmul_hw_order_simd_fmt(x, w, FP16, bias)
        assert np.array_equal(hz.load(cluster.tcdm), expected)
