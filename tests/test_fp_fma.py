"""Tests for the bit-exact binary16 FMA, multiply and add."""


import numpy as np
import pytest

from repro.fp.flags import ExceptionFlags
from repro.fp.formats import FP16, add_bits, fma_bits, mul_bits, neg_bits, sub_bits
from repro.fp.rounding import RoundingMode


class TestFmaBasics:
    def test_simple(self):
        a, b, c = (FP16.float_to_bits(v) for v in (2.0, 3.0, 1.0))
        assert FP16.bits_to_float(fma_bits(a, b, c, FP16)) == 7.0

    def test_negative_product(self):
        a, b, c = (FP16.float_to_bits(v) for v in (-2.0, 3.0, 1.0))
        assert FP16.bits_to_float(fma_bits(a, b, c, FP16)) == -5.0

    def test_zero_addend_acts_as_multiply(self):
        a, b = FP16.float_to_bits(1.5), FP16.float_to_bits(2.5)
        assert FP16.bits_to_float(fma_bits(a, b, 0x0000, FP16)) == 3.75

    def test_zero_product_passes_addend_through(self):
        addend = FP16.float_to_bits(0.12347412109375)  # arbitrary exact FP16 value
        five = FP16.float_to_bits(5.0)
        assert fma_bits(0x0000, five, addend, FP16) == addend

    def test_single_rounding_differs_from_two_step(self):
        """The fused operation must not round the intermediate product.

        1.0009765625 * 1.0009765625 = 1.00195407867...; rounding the product
        first loses the low bits that the subtraction of 1.002 would expose.
        """
        a = FP16.float_to_bits(1.0009765625)      # 1 + 2^-10
        c = FP16.float_to_bits(-1.001953125)      # -(1 + 2^-9)
        fused = fma_bits(a, a, c, FP16)
        product_first = add_bits(mul_bits(a, a, FP16), c, FP16)
        assert FP16.bits_to_float(fused) == pytest.approx(2.0 ** -20)
        assert fused != product_first

    def test_exact_accumulation_chain(self):
        half, quarter = FP16.float_to_bits(0.5), FP16.float_to_bits(0.25)
        acc = 0x0000
        for _ in range(16):
            acc = fma_bits(half, quarter, acc, FP16)
        assert FP16.bits_to_float(acc) == 2.0


class TestFmaSpecialCases:
    def test_nan_propagation(self):
        one, nan = FP16.float_to_bits(1.0), FP16.nan_bits
        assert fma_bits(nan, one, one, FP16) == nan
        assert fma_bits(one, nan, one, FP16) == nan
        assert fma_bits(one, one, nan, FP16) == nan

    def test_inf_times_zero_is_invalid(self):
        flags = ExceptionFlags()
        three = FP16.float_to_bits(3.0)
        assert fma_bits(FP16.pos_inf_bits, 0x0000, three, FP16,
                        flags=flags) == FP16.nan_bits
        assert flags.invalid

    def test_inf_product_with_opposite_inf_addend_is_invalid(self):
        flags = ExceptionFlags()
        result = fma_bits(FP16.pos_inf_bits, FP16.float_to_bits(2.0),
                          FP16.neg_inf_bits, FP16, flags=flags)
        assert result == FP16.nan_bits
        assert flags.invalid

    def test_inf_product_dominates_finite_addend(self):
        two = FP16.float_to_bits(2.0)
        assert fma_bits(FP16.pos_inf_bits, two, FP16.float_to_bits(-100.0),
                        FP16) == FP16.pos_inf_bits
        assert fma_bits(FP16.neg_inf_bits, two, FP16.float_to_bits(100.0),
                        FP16) == FP16.neg_inf_bits

    def test_inf_addend_dominates_finite_product(self):
        two = FP16.float_to_bits(2.0)
        assert fma_bits(two, two, FP16.neg_inf_bits, FP16) == FP16.neg_inf_bits

    def test_zero_plus_zero_signs(self):
        one = FP16.float_to_bits(1.0)
        assert fma_bits(0x0000, one, 0x0000, FP16) == 0x0000
        assert fma_bits(0x8000, one, 0x8000, FP16) == 0x8000
        # Different signs: +0 except under round-down.
        assert fma_bits(0x8000, one, 0x0000, FP16) == 0x0000
        assert fma_bits(0x8000, one, 0x0000, FP16,
                        RoundingMode.RDN) == 0x8000

    def test_exact_cancellation_gives_positive_zero(self):
        a, b, c = (FP16.float_to_bits(v) for v in (2.0, 3.0, -6.0))
        result = fma_bits(a, b, c, FP16)
        assert result == 0x0000
        result_rdn = fma_bits(a, b, c, FP16, RoundingMode.RDN)
        assert result_rdn == 0x8000

    def test_overflow(self):
        flags = ExceptionFlags()
        big = FP16.float_to_bits(256.0)
        result = fma_bits(big, big, 0x0000, FP16, flags=flags)
        assert result == FP16.pos_inf_bits
        assert flags.overflow and flags.inexact

    def test_overflow_saturates_toward_zero(self):
        big = FP16.float_to_bits(256.0)
        result = fma_bits(big, big, 0x0000, FP16, RoundingMode.RTZ)
        assert result == FP16.max_finite_bits

    def test_subnormal_result(self):
        small = FP16.float_to_bits(2.0 ** -12)
        result = fma_bits(small, small, 0x0000, FP16)
        assert FP16.bits_to_float(result) == 2.0 ** -24

    def test_underflow_to_zero(self):
        flags = ExceptionFlags()
        small = FP16.float_to_bits(2.0 ** -13)
        result = fma_bits(small, small, 0x0000, FP16, flags=flags)
        assert result == 0x0000
        assert flags.underflow and flags.inexact


class TestAgainstNumpyReference:
    """Randomised comparison against float64 evaluation + one numpy rounding."""

    def _random_finite(self, rng) -> int:
        while True:
            bits = int(rng.integers(0, 0x10000))
            if np.isfinite(np.uint16(bits).view(np.float16)):
                return bits

    def test_random_fma_matches(self):
        rng = np.random.default_rng(1234)
        for _ in range(4000):
            a, b, c = (self._random_finite(rng) for _ in range(3))
            ours = fma_bits(a, b, c, FP16)
            fa, fb, fc = (float(np.uint16(v).view(np.float16)) for v in (a, b, c))
            with np.errstate(over="ignore", invalid="ignore"):
                reference = np.float16(fa * fb + fc)
            if np.isnan(reference):
                assert FP16.is_nan(ours)
            else:
                assert FP16.bits_to_float(ours) == float(reference), (
                    f"a={a:#06x} b={b:#06x} c={c:#06x}"
                )

    def test_random_mul_and_add_match(self):
        rng = np.random.default_rng(99)
        for _ in range(2000):
            a, b = self._random_finite(rng), self._random_finite(rng)
            fa, fb = (float(np.uint16(v).view(np.float16)) for v in (a, b))
            with np.errstate(over="ignore", invalid="ignore"):
                ref_mul = np.float16(np.float32(fa) * np.float32(fb))
                ref_add = np.float16(np.float64(fa) + np.float64(fb))
            mul_ours, add_ours = mul_bits(a, b, FP16), add_bits(a, b, FP16)
            if np.isnan(ref_mul):
                assert FP16.is_nan(mul_ours)
            else:
                assert FP16.bits_to_float(mul_ours) == float(ref_mul)
            if np.isnan(ref_add):
                assert FP16.is_nan(add_ours)
            else:
                assert FP16.bits_to_float(add_ours) == float(ref_add)


class TestDerivedOperations:
    def test_sub(self):
        five, three = FP16.float_to_bits(5.0), FP16.float_to_bits(3.0)
        assert FP16.bits_to_float(sub_bits(five, three, FP16)) == 2.0
        assert FP16.bits_to_float(sub_bits(three, five, FP16)) == -2.0

    def test_neg(self):
        assert neg_bits(FP16.float_to_bits(1.5), FP16) == FP16.float_to_bits(-1.5)
        assert neg_bits(0x0000, FP16) == 0x8000
        assert neg_bits(FP16.nan_bits, FP16) == FP16.nan_bits

    def test_add_identity(self):
        for value in (0.5, -3.25, 100.0, 2.0 ** -24):
            bits = FP16.float_to_bits(value)
            assert add_bits(bits, 0x0000, FP16) == bits

    def test_mul_sign_of_zero(self):
        assert mul_bits(FP16.float_to_bits(-2.0), 0x0000, FP16) == 0x8000
        assert mul_bits(FP16.float_to_bits(2.0), 0x8000, FP16) == 0x8000
        assert mul_bits(0x8000, 0x8000, FP16) == 0x0000

    def test_mul_specials(self):
        flags = ExceptionFlags()
        assert mul_bits(FP16.pos_inf_bits, 0x0000, FP16,
                        flags=flags) == FP16.nan_bits
        assert flags.invalid
        assert mul_bits(FP16.pos_inf_bits, FP16.float_to_bits(-2.0),
                        FP16) == FP16.neg_inf_bits
        assert mul_bits(FP16.nan_bits, FP16.float_to_bits(1.0),
                        FP16) == FP16.nan_bits
