"""Scalar multi-precision format tests: descriptors, conversions, arithmetic."""

import math

import pytest

from repro.fp.formats import (
    BF16,
    FORMAT_NAMES,
    FORMATS,
    FP8_E4M3,
    FP8_E5M2,
    FP16,
    BinaryFormat,
    fma_bits,
    fma_mixed,
    get_format,
)

ALL_FORMATS = list(FORMATS.values())


class TestDescriptors:
    def test_registry_contains_the_four_formats(self):
        assert set(FORMAT_NAMES) == {"fp16", "bf16", "fp8-e4m3", "fp8-e5m2"}

    @pytest.mark.parametrize("fmt,exp,man,bits,bias", [
        (FP16, 5, 10, 16, 15),
        (BF16, 8, 7, 16, 127),
        (FP8_E4M3, 4, 3, 8, 7),
        (FP8_E5M2, 5, 2, 8, 15),
    ])
    def test_field_widths_and_bias(self, fmt, exp, man, bits, bias):
        assert fmt.exp_bits == exp
        assert fmt.man_bits == man
        assert fmt.storage_bits == bits
        assert fmt.bias == bias
        assert fmt.storage_bytes == bits // 8

    def test_max_finite_values(self):
        assert FP16.max_finite_value == 65504.0
        # IEEE-style (FPnew) E4M3: emax 7, max significand 1.875.
        assert FP8_E4M3.max_finite_value == 240.0
        assert FP8_E5M2.max_finite_value == 57344.0
        assert BF16.max_finite_value == pytest.approx(3.3895e38, rel=1e-4)

    def test_get_format_accepts_names_and_instances(self):
        assert get_format("bf16") is BF16
        assert get_format(FP8_E5M2) is FP8_E5M2
        with pytest.raises(ValueError, match="unknown element format"):
            get_format("fp4")

    def test_invalid_descriptor_rejected(self):
        with pytest.raises(ValueError):
            BinaryFormat(name="bad", exp_bits=1, man_bits=3, storage_bits=5)
        with pytest.raises(ValueError):
            BinaryFormat(name="bad", exp_bits=4, man_bits=3, storage_bits=16)


class TestConversionRoundTrips:
    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_every_pattern_round_trips_through_float(self, fmt):
        for bits in range(1 << fmt.storage_bits):
            value = fmt.bits_to_float(bits)
            if math.isnan(value):
                assert fmt.is_nan(bits)
                continue
            back = fmt.float_to_bits(value)
            assert back == bits, (
                f"{fmt.name}: {bits:#x} -> {value} -> {back:#x}"
            )

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_one_and_signed_zero_patterns(self, fmt):
        assert fmt.bits_to_float(fmt.one_bits) == 1.0
        assert fmt.float_to_bits(0.0) == 0
        assert fmt.float_to_bits(-0.0) == fmt.sign_mask
        assert math.copysign(1.0, fmt.bits_to_float(fmt.sign_mask)) == -1.0

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_classification_is_exhaustive_and_consistent(self, fmt):
        counts = {"+zero": 0, "-zero": 0, "+inf": 0, "-inf": 0, "nan": 0,
                  "+subnormal": 0}
        for bits in range(1 << fmt.storage_bits):
            # Every pattern is exactly one of NaN, infinity or finite.
            assert fmt.is_nan(bits) + fmt.is_inf(bits) + fmt.is_finite(bits) == 1
            sign = "-" if fmt.sign_of(bits) else "+"
            if fmt.is_nan(bits):
                counts["nan"] += 1
            elif fmt.is_inf(bits):
                counts[sign + "inf"] += 1
            elif fmt.is_zero(bits):
                counts[sign + "zero"] += 1
            elif fmt.exponent_field(bits) == 0 and sign == "+":
                counts["+subnormal"] += 1
        assert counts["+zero"] == 1
        assert counts["-zero"] == 1
        assert counts["+inf"] == 1
        assert counts["-inf"] == 1
        assert counts["nan"] == 2 * (fmt.man_mask)
        assert counts["+subnormal"] == fmt.man_mask


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
class TestRangeBoundaries:
    """Where the subnormal range ends and where the finite range ends."""

    def test_subnormals_fill_the_zero_exponent_field(self, fmt):
        lsb = 2.0 ** fmt.subnormal_exp
        assert fmt.bits_to_float(0x1) == lsb
        assert fmt.bits_to_float(fmt.man_mask) == fmt.man_mask * lsb
        assert fmt.bits_to_float(fmt.sign_mask | 0x1) == -lsb
        for bits in (0x1, fmt.man_mask, fmt.sign_mask | 0x1):
            assert fmt.exponent_field(bits) == 0
            assert fmt.is_finite(bits) and not fmt.is_zero(bits)

    def test_smallest_normal_follows_the_largest_subnormal(self, fmt):
        smallest_normal = fmt.man_mask + 1
        assert smallest_normal == fmt.implicit_one
        assert fmt.exponent_field(smallest_normal) == 1
        assert fmt.bits_to_float(smallest_normal) == 2.0 ** fmt.emin
        # The spacing does not change across the boundary.
        step = (fmt.bits_to_float(smallest_normal)
                - fmt.bits_to_float(fmt.man_mask))
        assert step == 2.0 ** fmt.subnormal_exp

    def test_largest_finite_neighbours_infinity(self, fmt):
        largest = fmt.max_finite_bits
        assert fmt.is_finite(largest)
        assert fmt.bits_to_float(largest) == \
            (2 - 2.0 ** -fmt.man_bits) * 2.0 ** fmt.emax
        assert largest + 1 == fmt.pos_inf_bits and fmt.is_inf(largest + 1)
        assert fmt.is_nan(largest + 2)
        assert fmt.is_inf(fmt.sign_mask | (largest + 1))


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
class TestScalarCodec:
    """Field access and the range and type checks on every format."""

    def test_fields(self, fmt):
        bits = fmt.float_to_bits(-1.5)
        assert fmt.sign_of(bits) == 1
        assert fmt.exponent_field(bits) == fmt.bias
        assert fmt.mantissa_field(bits) == 1 << (fmt.man_bits - 1)

    def test_check_bits_rejects_out_of_range_patterns(self, fmt):
        assert fmt.check_bits(fmt.full_mask) == fmt.full_mask
        with pytest.raises(ValueError):
            fmt.check_bits(fmt.full_mask + 1)
        with pytest.raises(ValueError):
            fmt.check_bits(-1)
        with pytest.raises(TypeError):
            fmt.check_bits(1.0)

    def test_float_to_bits_rejects_non_numbers(self, fmt):
        for value in ("1.0", None, True):
            with pytest.raises(TypeError):
                fmt.float_to_bits(value)


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
class TestDecompose:
    def test_normal(self, fmt):
        sign, sig, exp = fmt.decompose(fmt.one_bits)
        assert (sign, sig, exp) == (0, 1 << fmt.man_bits, -fmt.man_bits)
        assert sig * 2.0 ** exp == 1.0

    def test_subnormal(self, fmt):
        # The least subnormal bit weighs 2**(emin - man_bits), emin = 1 - bias.
        lsb_exp = 1 - fmt.bias - fmt.man_bits
        assert fmt.decompose(0x3) == (0, 3, lsb_exp)
        assert fmt.decompose(fmt.sign_mask | 0x3) == (1, 3, lsb_exp)

    def test_rejects_specials(self, fmt):
        for bits in (0, fmt.sign_mask, fmt.pos_inf_bits, fmt.nan_bits):
            with pytest.raises(ValueError):
                fmt.decompose(bits)


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
class TestPack:
    def test_exact_value(self, fmt):
        assert fmt.pack(0, 3, -1) == fmt.float_to_bits(1.5)

    def test_requires_positive_magnitude(self, fmt):
        with pytest.raises(ValueError):
            fmt.pack(0, 0, 0)

    def test_subnormal_rounds_up_to_normal(self, fmt):
        # Just below the smallest normal 2**(1 - bias), rounding up crosses
        # the boundary.
        bits = fmt.pack(0, (1 << 30) - 1, -30 + 1 - fmt.bias)
        assert bits == 1 << fmt.man_bits
        assert fmt.bits_to_float(bits) == 2.0 ** (1 - fmt.bias)


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
class TestConversionRounding:
    def test_overflow_to_infinity(self, fmt):
        huge = fmt.max_finite_value * 4
        assert fmt.float_to_bits(huge) == fmt.pos_inf_bits
        assert fmt.float_to_bits(-huge) == fmt.neg_inf_bits

    def test_subnormal_ties_round_to_even(self, fmt):
        smallest = fmt.bits_to_float(0x1)
        assert fmt.float_to_bits(smallest / 2) == 0
        assert fmt.float_to_bits(smallest * 1.5) == 0x2
        assert fmt.float_to_bits(smallest * 0.75) == 0x1

    def test_tiny_value_rounds_to_zero(self, fmt):
        tiny = fmt.bits_to_float(0x1) / 4
        assert fmt.float_to_bits(tiny) == 0
        assert fmt.float_to_bits(-tiny) == fmt.sign_mask


class TestGenericArithmetic:
    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_fma_special_cases(self, fmt):
        one = fmt.one_bits
        inf = fmt.pos_inf_bits
        ninf = fmt.neg_inf_bits
        nan = fmt.nan_bits
        # NaN propagation is canonical.
        assert fma_bits(nan, one, one, fmt) == nan
        # inf * 0 is invalid.
        assert fma_bits(inf, 0, one, fmt) == nan
        # inf - inf is invalid.
        assert fma_bits(inf, one, ninf, fmt) == nan
        # Exact cancellation is +0 under round-to-nearest.
        assert fma_bits(one, one, one | fmt.sign_mask, fmt) == 0

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_fma_matches_exact_rational_result_on_small_values(self, fmt):
        # 1.5 * 1.5 + 0.25 = 2.5 is exactly representable in every format.
        a = fmt.float_to_bits(1.5)
        c = fmt.float_to_bits(0.25)
        assert fmt.bits_to_float(fma_bits(a, a, c, fmt)) == 2.5

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_single_rounding_beats_two_step(self, fmt):
        # Find a case where mul-then-add double-rounds differently from the
        # fused operation; its existence is what makes the single-rounded
        # FMA worth modelling, in every format.
        import random

        rng = random.Random(11)
        found = False
        size = 1 << fmt.storage_bits
        for _ in range(20000):
            a, b, c = (rng.randrange(size) for _ in range(3))
            if not all(fmt.is_finite(v) and not fmt.is_zero(v)
                       for v in (a, b, c)):
                continue
            fused = fma_bits(a, b, c, fmt)
            product = fma_bits(a, b, fmt.sign_mask, fmt)
            two_step = fma_bits(product, fmt.one_bits, c, fmt)
            if fused != two_step:
                found = True
                break
        assert found, f"{fmt.name}: no double-rounding witness found"


class TestMixedPrecision:
    def test_e4m3_products_accumulate_exactly_in_fp16(self):
        """Every finite E4M3 x E4M3 product is exactly representable in FP16.

        The product has <= 8 significand bits and an exponent within
        [2**-18, 57600 < 2**16], both inside binary16's exact range, so a
        mixed FMA with a zero addend must reproduce the true product
        *exactly* -- the property that makes FP8-multiply / FP16-accumulate
        dot products single-rounded per step.
        """
        op_fmt = FP8_E4M3
        for a in range(1 << 8):
            for b in range(0, 1 << 8, 7):
                if not (op_fmt.is_finite(a) and op_fmt.is_finite(b)):
                    continue
                if op_fmt.is_zero(a) or op_fmt.is_zero(b):
                    continue
                result = fma_mixed(a, b, 0, op_fmt, FP16)
                exact = op_fmt.bits_to_float(a) * op_fmt.bits_to_float(b)
                assert FP16.bits_to_float(result) == exact

    def test_mixed_reduces_to_single_format_when_formats_match(self):
        import random

        rng = random.Random(3)
        for _ in range(300):
            a, b, c = (rng.randrange(1 << 8) for _ in range(3))
            assert fma_mixed(a, b, c, FP8_E4M3, FP8_E4M3) == fma_bits(
                a, b, c, FP8_E4M3
            )

    def test_wide_accumulator_resists_swamping(self):
        """FP8 accumulation loses small addends that FP16 accumulation keeps."""
        op = FP8_E4M3
        one_tiny = op.float_to_bits(2 ** -4)  # 0.0625: product = 2**-8
        acc8 = op.one_bits
        acc16 = FP16.one_bits
        # In-format accumulate: 1 + 2**-8 rounds back to 1 (3 mantissa bits).
        assert fma_bits(one_tiny, one_tiny, acc8, op) == acc8
        # FP16 accumulate (10 mantissa bits) keeps the contribution.
        mixed = fma_mixed(one_tiny, one_tiny, acc16, op, FP16)
        assert FP16.bits_to_float(mixed) > 1.0

    def test_mixed_special_cases_land_in_the_accumulator_format(self):
        assert fma_mixed(FP8_E5M2.nan_bits, 0, FP16.one_bits,
                         FP8_E5M2, FP16) == FP16.nan_bits
        assert fma_mixed(FP8_E5M2.pos_inf_bits, FP8_E5M2.one_bits,
                         FP16.one_bits, FP8_E5M2, FP16) == FP16.pos_inf_bits
