"""Tests for the tiled execution of GEMMs larger than the TCDM."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import PulpCluster
from repro.cluster.tiler import TiledMatmul, plan_tiled_matmul
from repro.farm import SimulationFarm
from repro.fp.formats import FP16
from repro.fp.vector import random_matrix
from repro.graph.ir import WorkloadGraph
from repro.redmule.functional import matmul_hw_order_simd_fmt
from repro.workloads.gemm import GemmShape


class TestPlanning:
    def test_small_problem_needs_one_job(self):
        plan = plan_tiled_matmul(32, 32, 32, tcdm_budget_bytes=96 * 1024)
        assert plan.n_jobs == 1
        assert (plan.tile_m, plan.tile_n, plan.tile_k) == (32, 32, 32)

    def test_large_problem_is_split(self):
        plan = plan_tiled_matmul(512, 512, 512, tcdm_budget_bytes=96 * 1024)
        assert plan.n_jobs > 1
        assert plan.tile_footprint_bytes <= 96 * 1024
        # Tiles respect the accelerator granularities.
        assert plan.tile_m % 8 == 0 or plan.tile_m == 512
        assert plan.tile_k % 16 == 0 or plan.tile_k == 512

    def test_budget_is_respected_for_skinny_shapes(self):
        plan = plan_tiled_matmul(8, 4096, 16, tcdm_budget_bytes=32 * 1024)
        assert plan.tile_footprint_bytes <= 32 * 1024
        assert plan.tiles_m == 1 and plan.tiles_k == 1
        assert plan.tiles_n > 1

    def test_dma_traffic_accounting(self):
        plan = plan_tiled_matmul(128, 128, 128, tcdm_budget_bytes=24 * 1024)
        # X is re-read once per K tile, W once per M tile, Z written once.
        expected = (128 * 128 * 2 * plan.tiles_k
                    + 128 * 128 * 2 * plan.tiles_m
                    + 128 * 128 * 2)
        assert plan.dma_bytes == expected

    def test_describe(self):
        plan = plan_tiled_matmul(64, 64, 64, tcdm_budget_bytes=16 * 1024)
        assert "jobs" in plan.describe()

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_tiled_matmul(0, 8, 8)
        with pytest.raises(ValueError):
            plan_tiled_matmul(8, 8, 8, tcdm_budget_bytes=1024)


def _tiled_program(size, budget):
    """One ``size``-cube GEMM lowered tile by tile under ``budget`` bytes."""
    graph = WorkloadGraph("tiled")
    for tensor in ("x", "w", "z"):
        graph.add_tensor(tensor, size, size)
    graph.add_gemm("gemm", GemmShape(size, size, size, name="gemm"),
                   x="x", w="w", z="z")
    return graph.lower(tile=True, tcdm_budget_bytes=budget)


class TestEstimation:
    """Tiled GEMMs are timed by lowering with ``tile=True`` and timing the
    program on the farm."""

    def test_larger_budget_means_fewer_jobs_and_less_dma(self):
        small = plan_tiled_matmul(256, 256, 256, tcdm_budget_bytes=24 * 1024)
        large = plan_tiled_matmul(256, 256, 256, tcdm_budget_bytes=96 * 1024)
        assert large.n_jobs < small.n_jobs
        assert large.dma_bytes <= small.dma_bytes

    def test_tiled_timing_sums_the_plan_jobs(self):
        plan = plan_tiled_matmul(256, 256, 256, tcdm_budget_bytes=64 * 1024)
        program = _tiled_program(256, 64 * 1024)
        farm = SimulationFarm(backend="model")
        timing = farm.time_program(program)
        assert program.n_jobs == plan.n_jobs > 1
        assert timing.macs == 256 ** 3
        # No offload cost unless one is asked for.
        assert timing.cycles == sum(r.cycles for r in farm.run(program.jobs))
        # The node's tile jobs are reported as one GEMM.
        assert timing.per_gemm == {"gemm": timing.cycles}

    def test_offload_is_charged_per_tile_job(self):
        plan = plan_tiled_matmul(256, 256, 256, tcdm_budget_bytes=64 * 1024)
        program = _tiled_program(256, 64 * 1024)
        farm = SimulationFarm(backend="model")
        base = farm.time_program(program)
        loaded = farm.time_program(program, offload_cycles_per_job=30.0)
        assert loaded.cycles == base.cycles + 30.0 * plan.n_jobs


class TestExecution:
    def test_tiled_result_matches_single_job(self):
        """A GEMM forced through a tiny TCDM budget must produce exactly the
        same FP16 result as the untiled execution (accumulation order is the
        same because the inner dimension is walked in increasing order)."""
        m, n, k = 24, 64, 32
        cluster = PulpCluster()
        x = random_matrix(m, n, scale=0.2, seed=1)
        w = random_matrix(n, k, scale=0.2, seed=2)
        hx = cluster.place_matrix(x, "X", in_l2=True)
        hw = cluster.place_matrix(w, "W", in_l2=True)
        hz = cluster.l2_allocator().alloc_matrix(m, k, "Z")

        plan = plan_tiled_matmul(m, n, k, tcdm_budget_bytes=8 * 1024)
        assert plan.n_jobs > 1
        result = TiledMatmul(cluster, plan).run(hx, hw, hz)

        assert np.array_equal(hz.load(cluster.l2), matmul_hw_order_simd_fmt(x, w, FP16))
        assert result.n_jobs == plan.n_jobs
        assert result.compute_cycles > 0
        assert result.dma_cycles > 0
        assert result.total_cycles > result.compute_cycles

    def test_single_tile_plan_matches_direct_offload(self):
        m, n, k = 16, 32, 16
        cluster = PulpCluster()
        x = random_matrix(m, n, scale=0.2, seed=5)
        w = random_matrix(n, k, scale=0.2, seed=6)
        hx = cluster.place_matrix(x, "X", in_l2=True)
        hw = cluster.place_matrix(w, "W", in_l2=True)
        hz = cluster.l2_allocator().alloc_matrix(m, k, "Z")
        plan = plan_tiled_matmul(m, n, k)
        result = TiledMatmul(cluster, plan).run(hx, hw, hz)
        assert result.n_jobs == 1
        assert np.array_equal(hz.load(cluster.l2), matmul_hw_order_simd_fmt(x, w, FP16))

    def test_tcdm_allocations_are_released(self):
        cluster = PulpCluster()
        used_before = cluster.tcdm_allocator().used
        x = random_matrix(16, 32, scale=0.2, seed=7)
        w = random_matrix(32, 16, scale=0.2, seed=8)
        hx = cluster.place_matrix(x, "X", in_l2=True)
        hw = cluster.place_matrix(w, "W", in_l2=True)
        hz = cluster.l2_allocator().alloc_matrix(16, 16, "Z")
        TiledMatmul(cluster, plan_tiled_matmul(16, 32, 16)).run(hx, hw, hz)
        assert cluster.tcdm_allocator().used == used_before

    def test_handle_shape_validation(self):
        cluster = PulpCluster()
        plan = plan_tiled_matmul(16, 16, 16)
        hx = cluster.l2_allocator().alloc_matrix(8, 16, "X")
        hw = cluster.l2_allocator().alloc_matrix(16, 16, "W")
        hz = cluster.l2_allocator().alloc_matrix(16, 16, "Z")
        with pytest.raises(ValueError):
            TiledMatmul(cluster, plan).run(hx, hw, hz)


class TestPlanProperties:
    """Property-based guarantees the graph lowering pass leans on.

    ``repro.graph.lower`` turns oversized GEMM nodes into a plan's per-tile
    job stream, so a plan must partition the full M x N x K iteration space:
    every (i, j, l) point covered exactly once, and one in-flight tile set
    must respect the TCDM footprint bound.
    """

    budgets = st.sampled_from([8 * 1024, 16 * 1024, 32 * 1024, 96 * 1024])
    dims = st.integers(min_value=1, max_value=512)

    @staticmethod
    def _tile_starts(extent, tile):
        return list(range(0, extent, tile))

    @given(m=dims, n=dims, k=dims, budget=budgets)
    @settings(max_examples=120, deadline=None)
    def test_tiles_partition_the_iteration_space(self, m, n, k, budget):
        try:
            plan = plan_tiled_matmul(m, n, k, tcdm_budget_bytes=budget)
        except ValueError:
            # Tiny budgets can be infeasible for extreme shapes; rejecting
            # is the documented behaviour, silent corruption is not.
            return

        # Footprint bound: one in-flight (X, W, Z) tile set fits the budget.
        assert plan.tile_footprint_bytes <= budget

        # Coverage without overlap, exactly: the per-axis tile starts
        # partition each extent, so their cross product partitions M x N x K.
        for extent, tile in ((m, plan.tile_m), (n, plan.tile_n),
                             (k, plan.tile_k)):
            starts = self._tile_starts(extent, tile)
            spans = [(s, min(s + tile, extent)) for s in starts]
            # Contiguous, disjoint, and jointly covering [0, extent).
            assert spans[0][0] == 0 and spans[-1][1] == extent
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert end == start
        # Job count equals the cross product of the per-axis tile counts.
        assert plan.n_jobs == (len(self._tile_starts(m, plan.tile_m))
                               * len(self._tile_starts(n, plan.tile_n))
                               * len(self._tile_starts(k, plan.tile_k)))

        # MAC conservation: summing tile volumes reproduces the full GEMM
        # (the lowering pass's job stream must not lose or duplicate work).
        macs = sum(
            (min(m0 + plan.tile_m, m) - m0)
            * (min(n0 + plan.tile_n, n) - n0)
            * (min(k0 + plan.tile_k, k) - k0)
            for m0 in self._tile_starts(m, plan.tile_m)
            for n0 in self._tile_starts(n, plan.tile_n)
            for k0 in self._tile_starts(k, plan.tile_k)
        )
        assert macs == m * n * k

    @given(m=dims, n=dims, k=dims)
    @settings(max_examples=60, deadline=None)
    def test_default_budget_always_feasible(self, m, n, k):
        plan = plan_tiled_matmul(m, n, k)
        assert plan.tile_footprint_bytes <= plan.tcdm_budget_bytes
        assert plan.n_jobs >= 1
