"""Tests for the GEMM shape descriptor."""

import pytest

from repro.workloads.gemm import GemmShape


class TestGemmShape:
    def test_counting(self):
        shape = GemmShape(4, 8, 16, name="layer")
        assert shape.macs == 512

    def test_validation(self):
        with pytest.raises(ValueError):
            GemmShape(0, 1, 1)

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

