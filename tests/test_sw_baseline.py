"""Tests for the software matmul baseline (kernel + parallelisation models)."""

import numpy as np
import pytest

from repro.fp.formats import FP16
from repro.fp.vector import random_matrix
from repro.redmule.functional import matmul_hw_order_simd_fmt
from repro.redmule.perf_model import RedMulEPerfModel
from repro.sw.baseline import SoftwareBaseline
from repro.sw.kernel import KernelCostModel, KernelParameters
from repro.sw.parallel import ParallelParameters, ParallelizationModel


class TestKernelModel:
    def test_steady_state_cost_per_mac(self):
        """The calibrated kernel costs ~5.5 cycles per MAC per core."""
        params = KernelParameters()
        assert params.cycles_per_mac == pytest.approx(5.5, abs=0.01)

    def test_matmul_cycles_scale_with_work(self):
        kernel = KernelCostModel()
        small = kernel.matmul_cycles(8, 8, 8)
        large = kernel.matmul_cycles(16, 16, 16)
        assert large > 7 * small / 1.3  # roughly 8x the MACs

    def test_per_output_overhead_dominates_tiny_inner_dims(self):
        kernel = KernelCostModel()
        assert kernel.macs_per_cycle(64, 1, 64) < kernel.macs_per_cycle(64, 64, 64)

    def test_input_validation(self):
        kernel = KernelCostModel()
        with pytest.raises(ValueError):
            kernel.matmul_cycles(0, 4, 4)
        with pytest.raises(ValueError):
            kernel.inner_loop_cycles(0)


class TestParallelModel:
    def test_speedup_saturates_at_core_count(self):
        single = ParallelizationModel(params=ParallelParameters(n_cores=1))
        octa = ParallelizationModel(params=ParallelParameters(n_cores=8))
        shape = (64, 64, 64)
        speedup = single.matmul_cycles(*shape) / octa.matmul_cycles(*shape)
        assert 6.0 < speedup <= 8.0

    def test_row_distribution(self):
        model = ParallelizationModel(params=ParallelParameters(n_cores=8))
        assert model.rows_per_core(64) == 8
        assert model.rows_per_core(65) == 9
        assert model.active_cores(3) == 3

    def test_single_row_limits_parallelism(self):
        """With M = 1 only one core works: the batch-1 training bottleneck."""
        model = ParallelizationModel(params=ParallelParameters(n_cores=8))
        one_row = model.macs_per_cycle(1, 640, 16)
        many_rows = model.macs_per_cycle(64, 640, 16)
        assert many_rows > 5 * one_row

    def test_peak_throughput(self):
        model = ParallelizationModel(params=ParallelParameters(n_cores=8))
        assert model.peak_macs_per_cycle == pytest.approx(8 / 5.5, rel=1e-3)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            ParallelParameters(n_cores=0)


class TestSoftwareBaseline:
    def test_run_gemm_metrics(self):
        baseline = SoftwareBaseline()
        result = baseline.run_gemm(64, 64, 64)
        assert result.total_macs == 64 ** 3
        assert 1.0 < result.macs_per_cycle < 8.0
        assert result.runtime_s(476e6) == pytest.approx(result.cycles / 476e6)
        assert result.throughput_gflops(476e6) > 0

    def test_compute_matches_hardware_semantics(self):
        """The software kernel uses the same FP16 FMA, so results are identical."""
        baseline = SoftwareBaseline()
        x = random_matrix(8, 32, scale=0.3, seed=0)
        w = random_matrix(32, 8, scale=0.3, seed=1)
        result = baseline.compute(x, w)
        assert result.dtype == np.float32
        assert np.array_equal(result, matmul_hw_order_simd_fmt(x, w, FP16))
        # The float64 fast model agrees on this data too (no double rounding).
        assert np.array_equal(baseline.compute(x, w), matmul_hw_order_simd_fmt(x, w, FP16))

    def test_core_count_parameter(self):
        slow = SoftwareBaseline(n_cores=2).run_gemm(64, 64, 64)
        fast = SoftwareBaseline(n_cores=8).run_gemm(64, 64, 64)
        assert fast.cycles < slow.cycles

    def test_paper_calibration_point_22x_speedup(self):
        """Section III-A: RedMulE reaches up to ~22x over the 8-core baseline."""
        baseline = SoftwareBaseline(n_cores=8)
        hw = RedMulEPerfModel().estimate_gemm(512, 512, 512)
        sw = baseline.run_gemm(512, 512, 512)
        speedup = sw.cycles / hw.cycles
        assert 20.0 < speedup < 24.0

    def test_sw_throughput_roughly_constant_over_sizes(self):
        """Fig. 4a: the software baseline sits at a flat ~1.4 MAC/cycle."""
        baseline = SoftwareBaseline()
        throughputs = [baseline.run_gemm(s, s, s).macs_per_cycle
                       for s in (64, 128, 256)]
        assert max(throughputs) / min(throughputs) < 1.15
        assert all(1.2 < t < 1.6 for t in throughputs)
