"""Tests for matrix <-> FP16 pattern / byte conversions."""

import numpy as np
import pytest

from repro.fp.formats import FP16
from repro.fp.simd_formats import bits_to_f64_many, f64_to_bits_many
from repro.fp.vector import pack_matrix, quantize, random_matrix, unpack_matrix


class TestQuantize:
    def test_values_are_fp16_representable(self):
        matrix = np.array([[0.1, 0.2], [1.0 / 3.0, 7.77]])
        quantised = quantize(matrix)
        assert np.array_equal(quantised, quantised.astype(np.float16).astype(np.float64))

    def test_idempotent(self):
        matrix = np.random.default_rng(0).standard_normal((5, 7))
        once = quantize(matrix)
        assert np.array_equal(once, quantize(once))


class TestBitsConversion:
    def test_roundtrip(self):
        matrix = random_matrix(6, 9, seed=3)
        bits = f64_to_bits_many(matrix, FP16)
        assert bits.shape == (6, 9)
        back = bits_to_f64_many(bits, FP16)
        assert np.array_equal(back, matrix)

    def test_known_pattern(self):
        bits = f64_to_bits_many(np.array([[1.0, -2.0]]), FP16)
        assert bits.tolist() == [[0x3C00, 0xC000]]


class TestByteConversion:
    def test_roundtrip(self):
        matrix = random_matrix(4, 5, seed=11)
        data = pack_matrix(matrix, FP16)
        assert len(data) == 4 * 5 * 2
        back = unpack_matrix(data, 4, 5, FP16)
        assert np.array_equal(back, matrix)

    def test_little_endian_layout(self):
        data = pack_matrix(np.array([[1.0]]), FP16)
        assert data == b"\x00\x3c"

    def test_unpack_rejects_short_buffer(self):
        with pytest.raises(ValueError):
            unpack_matrix(b"\x00\x3c", 2, 2, FP16)

    def test_pack_rejects_non_2d(self):
        with pytest.raises(ValueError):
            pack_matrix(np.zeros(3), FP16)


class TestRandomMatrix:
    def test_shape_and_reproducibility(self):
        a = random_matrix(8, 16, seed=42)
        b = random_matrix(8, 16, seed=42)
        assert a.shape == (8, 16)
        assert np.array_equal(a, b)

    def test_scale_controls_magnitude(self):
        small = random_matrix(64, 64, scale=0.01, seed=0)
        large = random_matrix(64, 64, scale=10.0, seed=0)
        assert np.abs(small).mean() < np.abs(large).mean()

    def test_values_are_fp16_exact(self):
        matrix = random_matrix(16, 16, seed=5)
        assert np.array_equal(matrix, quantize(matrix))
