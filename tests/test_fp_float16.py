"""Tests for binary16 encoding, decoding and classification."""

import math

import numpy as np
import pytest

from repro.fp.formats import FP16, FloatClass
from repro.fp.rounding import RoundingMode


class TestEncodingRoundtrip:
    def test_one(self):
        assert FP16.float_to_bits(1.0) == 0x3C00
        assert FP16.bits_to_float(0x3C00) == 1.0

    def test_minus_two(self):
        assert FP16.float_to_bits(-2.0) == 0xC000
        assert FP16.bits_to_float(0xC000) == -2.0

    def test_max_finite(self):
        assert FP16.bits_to_float(FP16.max_finite_bits) == 65504.0
        assert FP16.float_to_bits(65504.0) == FP16.max_finite_bits

    def test_smallest_subnormal(self):
        assert FP16.bits_to_float(0x0001) == 2.0 ** -24
        assert FP16.float_to_bits(2.0 ** -24) == 0x0001

    def test_smallest_normal(self):
        assert FP16.bits_to_float(0x0400) == 2.0 ** -14
        assert FP16.float_to_bits(2.0 ** -14) == 0x0400

    def test_roundtrip_every_finite_pattern(self):
        """Every finite pattern survives a decode/encode roundtrip exactly."""
        for bits in range(0x10000):
            if FP16.is_nan(bits) or FP16.is_inf(bits):
                continue
            assert FP16.float_to_bits(FP16.bits_to_float(bits)) == bits

    def test_matches_numpy_for_all_patterns(self):
        """Decoding agrees with numpy's float16 view for every finite pattern."""
        patterns = np.arange(0x10000, dtype=np.uint16)
        as_np = patterns.view(np.float16).astype(np.float64)
        for bits in range(0, 0x10000, 17):  # stride keeps the test fast
            reference = as_np[bits]
            if math.isnan(reference):
                assert FP16.is_nan(bits)
            else:
                assert FP16.bits_to_float(bits) == reference


class TestSpecialValues:
    def test_zero_signs(self):
        assert FP16.float_to_bits(0.0) == 0x0000
        assert FP16.float_to_bits(-0.0) == 0x8000
        assert math.copysign(1.0, FP16.bits_to_float(0x8000)) == -1.0

    def test_infinities(self):
        assert FP16.float_to_bits(math.inf) == FP16.pos_inf_bits
        assert FP16.float_to_bits(-math.inf) == FP16.neg_inf_bits
        assert FP16.bits_to_float(FP16.pos_inf_bits) == math.inf

    def test_nan(self):
        assert FP16.float_to_bits(math.nan) == FP16.nan_bits
        assert math.isnan(FP16.bits_to_float(FP16.nan_bits))
        assert FP16.is_nan(0x7C01)
        assert FP16.is_nan(0xFFFF)

    def test_predicates(self):
        assert FP16.is_zero(0x0000) and FP16.is_zero(0x8000)
        assert FP16.is_inf(FP16.pos_inf_bits) and FP16.is_inf(FP16.neg_inf_bits)
        assert FP16.is_subnormal(0x0001) and not FP16.is_subnormal(0x0400)
        assert FP16.is_finite(0x0001) and not FP16.is_finite(FP16.pos_inf_bits)


class TestClassification:
    @pytest.mark.parametrize(
        "bits,expected",
        [
            (0x0000, FloatClass.POS_ZERO),
            (0x8000, FloatClass.NEG_ZERO),
            (0x0001, FloatClass.POS_SUBNORMAL),
            (0x8001, FloatClass.NEG_SUBNORMAL),
            (0x3C00, FloatClass.POS_NORMAL),
            (0xBC00, FloatClass.NEG_NORMAL),
            (FP16.pos_inf_bits, FloatClass.POS_INF),
            (FP16.neg_inf_bits, FloatClass.NEG_INF),
            (FP16.nan_bits, FloatClass.NAN),
        ],
    )
    def test_classify(self, bits, expected):
        assert FP16.classify(bits) is expected


class TestRoundingOnConversion:
    def test_rne_ties_to_even(self):
        # 1 + 2^-11 is exactly between 1.0 and the next representable value.
        assert FP16.float_to_bits(1.0 + 2.0 ** -11) == 0x3C00
        # 1 + 3*2^-11 is between 1+2^-10 and 1+2^-9; ties to even -> up.
        assert FP16.float_to_bits(1.0 + 3 * 2.0 ** -11) == 0x3C02

    def test_rtz_truncates(self):
        value = 1.0 + 2.0 ** -11
        assert FP16.float_to_bits(value, RoundingMode.RTZ) == 0x3C00
        assert FP16.float_to_bits(-value, RoundingMode.RTZ) == 0xBC00

    def test_directed_modes(self):
        value = 1.0 + 2.0 ** -11
        assert FP16.float_to_bits(value, RoundingMode.RUP) == 0x3C01
        assert FP16.float_to_bits(value, RoundingMode.RDN) == 0x3C00
        assert FP16.float_to_bits(-value, RoundingMode.RDN) == 0xBC01
        assert FP16.float_to_bits(-value, RoundingMode.RUP) == 0xBC00

    def test_overflow_saturates_under_rtz(self):
        assert FP16.float_to_bits(1e6, RoundingMode.RTZ) == FP16.max_finite_bits
        assert FP16.float_to_bits(-1e6, RoundingMode.RUP) == (
            FP16.max_finite_bits | 0x8000)
