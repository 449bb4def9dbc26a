"""Tests for the golden functional models (FP16 accumulation order)."""

import numpy as np
import pytest

from repro.fp.formats import FP16
from repro.fp.simd_formats import bits_to_f64_many, f64_to_bits_many
from repro.fp.vector import quantize, random_matrix
from repro.redmule.functional import (
    matmul_hw_order_exact_fmt,
    matmul_hw_order_simd_fmt,
    matmul_reference_fp32,
)


class TestExactModel:
    def test_identity(self):
        x = f64_to_bits_many(np.eye(4), FP16)
        w = f64_to_bits_many(np.arange(16, dtype=np.float64).reshape(4, 4) / 8.0,
                             FP16)
        z = matmul_hw_order_exact_fmt(x, w, FP16)
        assert z == w.tolist()

    def test_small_known_result(self):
        x = f64_to_bits_many(np.array([[1.0, 2.0], [3.0, 4.0]]), FP16)
        w = f64_to_bits_many(np.array([[5.0, 6.0], [7.0, 8.0]]), FP16)
        z = bits_to_f64_many(matmul_hw_order_exact_fmt(x, w, FP16), FP16)
        assert np.array_equal(z, [[19.0, 22.0], [43.0, 50.0]])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            matmul_hw_order_exact_fmt([], [[0]], FP16)
        with pytest.raises(ValueError):
            matmul_hw_order_exact_fmt([[0, 1], [2]], [[0], [1]], FP16)
        with pytest.raises(ValueError):
            matmul_hw_order_exact_fmt([[0, 1]], [[0], [1, 2]], FP16)


class TestSimdModel:
    def test_matches_exact_on_random_matrices(self):
        x = random_matrix(7, 11, scale=0.3, seed=0)
        w = random_matrix(11, 9, scale=0.3, seed=1)
        exact = bits_to_f64_many(matmul_hw_order_exact_fmt(
            f64_to_bits_many(x, FP16), f64_to_bits_many(w, FP16), FP16), FP16)
        simd = matmul_hw_order_simd_fmt(x, w, FP16)
        assert np.array_equal(exact, simd)

    def test_accumulation_order_matters(self):
        """FP16 step-wise accumulation differs from an fp32 matmul rounded once,
        which is exactly why a bit-true golden model is needed."""
        rng = np.random.default_rng(5)
        x = quantize(rng.standard_normal((8, 256)))
        w = quantize(rng.standard_normal((256, 8)))
        fp16_result = matmul_hw_order_simd_fmt(x, w, FP16)
        fp32_result = quantize(matmul_reference_fp32(x, w))
        assert not np.array_equal(fp16_result, fp32_result)

    def test_error_vs_fp32_is_bounded(self):
        """The FP16 accumulation error stays small for well-scaled operands."""
        x = random_matrix(16, 64, scale=0.1, seed=7)
        w = random_matrix(64, 16, scale=0.1, seed=8)
        fp16_result = matmul_hw_order_simd_fmt(x, w, FP16)
        fp32_result = matmul_reference_fp32(x, w)
        scale = float(np.mean(np.abs(fp32_result)))
        normalised = np.abs(fp16_result - fp32_result) / scale
        assert float(np.max(normalised)) < 0.05

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            matmul_hw_order_simd_fmt(np.zeros((2, 3)), np.zeros((4, 2)), FP16)
        with pytest.raises(ValueError):
            matmul_hw_order_simd_fmt(np.zeros(3), np.zeros((3, 2)), FP16)

    def test_overflow_saturates_to_infinity(self):
        x = quantize(np.full((1, 4), 200.0))
        w = quantize(np.full((4, 1), 200.0))
        result = matmul_hw_order_simd_fmt(x, w, FP16)
        assert np.isinf(result[0, 0])
