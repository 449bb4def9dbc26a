"""Tests for the PULP cluster top level (offload flows)."""

import numpy as np
import pytest

from repro.cluster.cluster import PulpCluster
from repro.cluster.config import ClusterConfig
from repro.fp.formats import FP16, get_format
from repro.fp.vector import random_matrix
from repro.mem.tcdm import TcdmConfig
from repro.redmule.config import RedMulEConfig
from repro.redmule.functional import matmul_hw_order_simd_fmt


class TestClusterConfig:
    def test_defaults(self):
        config = ClusterConfig()
        assert config.n_cores == 8
        assert config.redmule.n_fma == 32
        assert config.offload_cycles > 0

    def test_rejects_too_few_banks(self):
        with pytest.raises(ValueError):
            ClusterConfig(tcdm=TcdmConfig(n_banks=4))

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_cores=0)


class TestOffload:
    def test_matmul_returns_correct_result(self, cluster):
        x = random_matrix(16, 24, scale=0.3, seed=0)
        w = random_matrix(24, 20, scale=0.3, seed=1)
        z, outcome = cluster.matmul(x, w)
        assert np.array_equal(z, matmul_hw_order_simd_fmt(x, w, FP16))
        assert outcome.total_cycles > outcome.accelerator.cycles
        assert outcome.offload_cycles > 0
        assert outcome.macs_per_cycle < outcome.accelerator.macs_per_cycle

    def test_multiple_offloads_reuse_the_cluster(self, cluster):
        for seed in range(3):
            x = random_matrix(8, 16, scale=0.3, seed=seed)
            w = random_matrix(16, 16, scale=0.3, seed=seed + 10)
            z, _ = cluster.matmul(x, w)
            assert np.array_equal(z, matmul_hw_order_simd_fmt(x, w, FP16))
        assert cluster.redmule.controller.fsm.jobs_completed == 3

    def test_explicit_handle_offload(self, cluster):
        x = random_matrix(8, 32, scale=0.3, seed=4)
        w = random_matrix(32, 16, scale=0.3, seed=5)
        hx = cluster.place_matrix(x, "X")
        hw = cluster.place_matrix(w, "W")
        hz = cluster.tcdm_allocator().alloc_matrix(8, 16, "Z")
        outcome = cluster.offload_matmul(hx, hw, hz)
        assert np.array_equal(hz.load(cluster.tcdm), matmul_hw_order_simd_fmt(x, w, FP16))
        assert outcome.exposed_dma_cycles == 0

    def test_software_baseline_access(self, cluster):
        result = cluster.software_matmul(64, 64, 64)
        assert result.cycles > 0
        assert result.n_cores == 8

    def test_describe(self, cluster):
        text = cluster.describe()
        assert "8 cores" in text and "RedMulE" in text

    def test_custom_configuration(self):
        config = ClusterConfig(
            n_cores=4,
            redmule=RedMulEConfig(height=2, length=4, pipeline_regs=1),
        )
        cluster = PulpCluster(config)
        x = random_matrix(6, 10, scale=0.3, seed=1)
        w = random_matrix(10, 6, scale=0.3, seed=2)
        z, outcome = cluster.matmul(x, w)
        assert np.array_equal(z, matmul_hw_order_simd_fmt(x, w, FP16))
        assert outcome.accelerator.peak_macs_per_cycle == 8


@pytest.mark.parametrize("fmt", ["fp16", "bf16", "fp8-e4m3", "fp8-e5m2"])
class TestElementFormats:
    """Both offload paths place, move and read back operands in the
    accelerator's element format."""

    def test_matmul_matches_the_golden_model(self, fmt):
        cluster = PulpCluster(ClusterConfig(redmule=RedMulEConfig(format=fmt)))
        x = random_matrix(16, 24, fmt, scale=0.3, seed=0)
        w = random_matrix(24, 20, fmt, scale=0.3, seed=1)
        z, _ = cluster.matmul(x, w)
        assert np.array_equal(
            z, matmul_hw_order_simd_fmt(x, w, get_format(fmt)))

    def test_offload_from_l2_matches_the_golden_model(self, fmt):
        cluster = PulpCluster(ClusterConfig(redmule=RedMulEConfig(format=fmt)))
        x = random_matrix(16, 32, fmt, scale=0.3, seed=6)
        w = random_matrix(32, 16, fmt, scale=0.3, seed=7)
        hx = cluster.place_matrix(x, "X.l2", in_l2=True)
        hw = cluster.place_matrix(w, "W.l2", in_l2=True)
        hz = cluster.l2_allocator().alloc_matrix(16, 16, "Z.l2", fmt)
        cluster.offload_matmul_from_l2(hx, hw, hz)
        golden = matmul_hw_order_simd_fmt(x, w, get_format(fmt))
        assert np.array_equal(hz.load(cluster.l2), golden)
        assert cluster.dma.bytes_moved == \
            (16 * 32 + 32 * 16 + 16 * 16) * get_format(fmt).storage_bytes


class TestL2Tiling:
    def test_offload_from_l2_produces_correct_result(self, cluster):
        x = random_matrix(16, 32, scale=0.3, seed=6)
        w = random_matrix(32, 16, scale=0.3, seed=7)
        hx = cluster.place_matrix(x, "X.l2", in_l2=True)
        hw = cluster.place_matrix(w, "W.l2", in_l2=True)
        hz = cluster.l2_allocator().alloc_matrix(16, 16, "Z.l2")
        outcome = cluster.offload_matmul_from_l2(hx, hw, hz)
        assert np.array_equal(hz.load(cluster.l2), matmul_hw_order_simd_fmt(x, w, FP16))
        assert outcome.total_cycles >= outcome.accelerator.cycles
        assert cluster.dma.transfers == 3  # X in, W in, Z out

    def test_l2_tiling_releases_tcdm_space(self, cluster):
        used_before = cluster.tcdm_allocator().used
        x = random_matrix(8, 16, scale=0.3, seed=8)
        w = random_matrix(16, 8, scale=0.3, seed=9)
        hx = cluster.place_matrix(x, in_l2=True)
        hw = cluster.place_matrix(w, in_l2=True)
        hz = cluster.l2_allocator().alloc_matrix(8, 8, "Z")
        cluster.offload_matmul_from_l2(hx, hw, hz)
        assert cluster.tcdm_allocator().used == used_before

    def test_exposed_dma_depends_on_compute_intensity(self, cluster):
        """A tiny GEMM cannot hide its DMA time behind compute."""
        x = random_matrix(8, 8, scale=0.3, seed=10)
        w = random_matrix(8, 8, scale=0.3, seed=11)
        hx = cluster.place_matrix(x, in_l2=True)
        hw = cluster.place_matrix(w, in_l2=True)
        hz = cluster.l2_allocator().alloc_matrix(8, 8, "Z")
        outcome = cluster.offload_matmul_from_l2(hx, hw, hz)
        assert outcome.exposed_dma_cycles > 0
