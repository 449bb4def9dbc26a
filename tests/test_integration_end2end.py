"""End-to-end integration tests across the whole stack.

These tests exercise the full path the paper describes: matrices placed in
the cluster memories, the accelerator programmed through its register file,
the cycle-accurate engine moving data through the HCI, and the results
consumed by a workload-level model -- plus the cross-checks between the
cycle-accurate engine, the analytical model and the software baseline that
the experiment drivers rely on.
"""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, PulpCluster
from repro.fp.formats import FP16
from repro.fp.vector import quantize, random_matrix
from repro.graph.zoo import mlp_training_graph
from repro.redmule import RedMulEConfig, RedMulEPerfModel
from repro.redmule.functional import matmul_hw_order_simd_fmt, matmul_reference_fp32
from repro.sw.baseline import SoftwareBaseline
from repro.workloads.autoencoder import AutoEncoder


class TestAcceleratedAutoencoderLayer:
    """Run one auto-encoder layer on the simulated accelerator and compare it
    with the functional workload model."""

    def test_forward_layer_on_accelerator_matches_numpy_model(self):
        cluster = PulpCluster()
        model = AutoEncoder(layer_sizes=(64, 32, 16, 32, 64), seed=0,
                            weight_scale=0.1)
        batch = quantize(
            np.random.default_rng(1).standard_normal((64, 8)) * 0.1
        )
        _, activations = model.forward(batch)

        # Layer 0 forward on RedMulE: Y = W0 . A0 with the paper's mapping.
        z, outcome = cluster.matmul(model.weights[0], activations[0])
        expected = matmul_hw_order_simd_fmt(model.weights[0], activations[0], FP16)
        assert np.array_equal(z, expected)
        assert outcome.accelerator.total_macs == 32 * 64 * 8

    def test_training_step_gemm_count_matches_offloads(self):
        cluster = PulpCluster()
        model = AutoEncoder(layer_sizes=(32, 16, 8, 16, 32), seed=3,
                            weight_scale=0.1)
        gemms = mlp_training_graph(model.layer_sizes, 4).gemm_nodes()
        for gemm in gemms:
            shape = gemm.shape
            x = random_matrix(shape.m, shape.n, scale=0.1,
                              seed=shape.m + shape.n)
            w = random_matrix(shape.n, shape.k, scale=0.1,
                              seed=shape.n + shape.k)
            z, _ = cluster.matmul(x, w)
            assert np.array_equal(z, matmul_hw_order_simd_fmt(x, w, FP16))
            cluster.reset_tcdm()
        assert cluster.redmule.controller.fsm.jobs_completed == len(gemms)


class TestModelCrossValidation:
    def test_engine_perf_model_and_sw_baseline_are_consistent(self):
        """The speedup computed from the cycle-accurate engine agrees with the
        speedup computed from the analytical models used in the figures."""
        cluster = PulpCluster()
        m = n = k = 48
        x = random_matrix(m, n, scale=0.25, seed=0)
        w = random_matrix(n, k, scale=0.25, seed=1)
        _, outcome = cluster.matmul(x, w)

        analytic = RedMulEPerfModel(RedMulEConfig.reference()).estimate_gemm(m, n, k)
        software = SoftwareBaseline().run_gemm(m, n, k)

        measured_speedup = software.cycles / outcome.accelerator.cycles
        analytic_speedup = software.cycles / analytic.cycles
        assert measured_speedup == pytest.approx(analytic_speedup, rel=0.05)

    def test_fp16_training_error_stays_bounded(self):
        """FP16 accumulation (what the accelerator computes) stays close to an
        fp32 reference for the auto-encoder layer sizes, supporting the
        paper's premise that FP16 is enough for on-device fine-tuning."""
        rng = np.random.default_rng(7)
        weights = quantize(rng.standard_normal((128, 640)) * 0.05)
        batch = quantize(rng.standard_normal((640, 16)) * 0.1)
        fp16_result = matmul_hw_order_simd_fmt(weights, batch, FP16)
        fp32_result = matmul_reference_fp32(weights, batch)
        scale = float(np.mean(np.abs(fp32_result)))
        assert float(np.max(np.abs(fp16_result - fp32_result))) / scale < 0.05


class TestClusterConfigurationVariants:
    @pytest.mark.parametrize("height,length,pipeline", [(2, 4, 1), (4, 4, 3), (8, 8, 1)])
    def test_other_array_geometries_work_end_to_end(self, height, length, pipeline):
        config = ClusterConfig(
            redmule=RedMulEConfig(height=height, length=length,
                                  pipeline_regs=pipeline)
        )
        cluster = PulpCluster(config)
        x = random_matrix(10, 14, scale=0.25, seed=height)
        w = random_matrix(14, 9, scale=0.25, seed=length)
        z, outcome = cluster.matmul(x, w)
        assert np.array_equal(z, matmul_hw_order_simd_fmt(x, w, FP16))
        assert outcome.accelerator.utilisation <= 1.0

    def test_exact_arithmetic_cluster(self):
        cluster = PulpCluster(arithmetic="exact")
        x = random_matrix(8, 12, scale=0.25, seed=30)
        w = random_matrix(12, 8, scale=0.25, seed=31)
        z, _ = cluster.matmul(x, w)
        assert np.array_equal(z, matmul_hw_order_simd_fmt(x, w, FP16))
