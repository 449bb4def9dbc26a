"""Tests for GEMM workload descriptors and generators."""

import numpy as np
import pytest

from repro.fp.vector import quantize
from repro.workloads.gemm import GemmShape, GemmWorkload, square_sweep


class TestGemmShape:
    def test_counting(self):
        shape = GemmShape(4, 8, 16, name="layer")
        assert shape.macs == 512
        assert shape.flops == 1024
        assert shape.operand_bytes == 2 * (32 + 128 + 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            GemmShape(0, 1, 1)

    def test_random_operands(self):
        shape = GemmShape(6, 10, 4)
        x, w = shape.random_operands(seed=3)
        assert x.shape == (6, 10) and w.shape == (10, 4)
        assert np.array_equal(x, quantize(x))
        x2, w2 = shape.random_operands(seed=3)
        assert np.array_equal(x, x2) and np.array_equal(w, w2)

    def test_describe(self):
        assert "M=2 N=3 K=4" in GemmShape(2, 3, 4, name="t").describe()

    def test_describe_transpose_renders_stored_operand_shapes(self):
        shape = GemmShape(2, 3, 4, name="t")
        # dA = W^T . dY style: the stored X tensor is [n, m].
        assert "X^T[3x2]" in shape.describe(transpose="x")
        assert "W[3x4]" in shape.describe(transpose="x")
        # dW = dY . A^T style: the stored W tensor is [k, n].
        assert "W^T[4x3]" in shape.describe(transpose="w")
        assert "X[2x3]" in shape.describe(transpose="w")
        both = shape.describe(transpose="xw")
        assert "X^T[3x2]" in both and "W^T[4x3]" in both
        assert "Z[2x4]" in both

    def test_describe_rejects_bad_transpose(self):
        with pytest.raises(ValueError):
            GemmShape(2, 3, 4).describe(transpose="q")


class TestGemmWorkload:
    def test_aggregation(self):
        workload = GemmWorkload("w", [GemmShape(2, 2, 2), GemmShape(4, 4, 4)])
        assert len(workload) == 2
        assert workload.total_macs == 8 + 64
        assert workload.total_flops == 2 * workload.total_macs
        assert workload.operand_bytes > 0

    def test_iteration_order(self):
        shapes = [GemmShape(1, 1, 1, name=f"g{i}") for i in range(3)]
        workload = GemmWorkload("w", shapes)
        assert [s.name for s in workload] == ["g0", "g1", "g2"]

    def test_describe(self):
        workload = GemmWorkload("demo", [GemmShape(2, 2, 2)])
        assert "demo" in workload.describe()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GemmWorkload("empty", [])


class TestSquareSweep:
    def test_shapes(self):
        sweep = square_sweep([8, 16, 32])
        assert [(s.m, s.n, s.k) for s in sweep] == [(8,) * 3, (16,) * 3, (32,) * 3]
        assert sweep[0].name == "square-8"
