"""Directed binary16 tests of the vectorised kernels (:mod:`repro.fp.simd_formats`).

The scalar substrate (:mod:`repro.fp.fma` et al.) is the oracle: every
kernel must match it bit for bit, element by element, over directed
special-value grids and large random sweeps, for every rounding mode.  The
hypothesis properties of ``test_fp_formats_properties`` cover the other
formats; binary16 gets the exhaustive directed grids here because its float
codec and guarded kernel take numpy's native ``float16`` path.
"""

import itertools
import math
import struct

import numpy as np
import pytest

from repro.fp.flags import ExceptionFlags
from repro.fp.float16 import pack
from repro.fp.fma import add16, fma16, mul16, neg16, sub16
from repro.fp.formats import FORMATS, FP16
from repro.fp.rounding import RoundingMode
from repro.fp.simd_formats import (
    add_many_fmt,
    bits_to_f64_many,
    f64_to_bits_many,
    fma_guarded_f64_fmt,
    fma_many_fmt,
    mul_many_fmt,
    neg_many_fmt,
    pack_many_fmt,
    round_f64_many,
)

#: Directed patterns covering every interesting encoding class: signed zeros,
#: smallest/largest subnormals, smallest/largest normals, one, infinities,
#: canonical and payload NaNs, plus a few mid-range values.
SPECIAL_PATTERNS = [
    0x0000, 0x8000,              # +-0
    0x0001, 0x8001,              # +-min subnormal
    0x03FF, 0x83FF,              # +-max subnormal
    0x0400, 0x8400,              # +-min normal
    0x7BFF, 0xFBFF,              # +-max finite
    0x7C00, 0xFC00,              # +-inf
    0x7E00, 0x7C01, 0xFE00,      # NaNs (canonical, payload, negative)
    0x3C00, 0xBC00,              # +-1.0
    0x3800, 0x0002, 0x7800, 0xF800,
]

ALL_MODES = list(RoundingMode)


def _f64(raw: int) -> float:
    """The binary64 value with bit pattern ``raw`` (keeps NaN sign/payload)."""
    return struct.unpack("<d", struct.pack("<Q", raw))[0]


def _triples_as_arrays(triples):
    a = np.array([t[0] for t in triples], dtype=np.uint16)
    b = np.array([t[1] for t in triples], dtype=np.uint16)
    c = np.array([t[2] for t in triples], dtype=np.uint16)
    return a, b, c


def _assert_fma_matches_scalar(triples, mode):
    a, b, c = _triples_as_arrays(triples)
    got = fma_many_fmt(a, b, c, FP16, mode)
    for i, (x, y, z) in enumerate(triples):
        want = fma16(x, y, z, mode)
        assert int(got[i]) == want, (
            f"fma_many_fmt mismatch at {mode}: "
            f"a={x:#06x} b={y:#06x} c={z:#06x} "
            f"want={want:#06x} got={int(got[i]):#06x}"
        )


class TestFmaDirected:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_special_value_grid(self, mode):
        """Full cube of special patterns: NaN propagation, +-inf, +-0,
        subnormal operands, invalid operations."""
        triples = list(itertools.product(SPECIAL_PATTERNS, repeat=3))
        _assert_fma_matches_scalar(triples, mode)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_extreme_alignment(self, mode):
        """Tiny (often subnormal) products against huge addends exercise the
        alignment clamp / sticky-reduction path."""
        rng = np.random.default_rng(1234)
        triples = []
        for _ in range(2000):
            a = int(rng.integers(0, 0x400)) | (int(rng.integers(0, 2)) << 15)
            b = int(rng.integers(0, 0x400)) | (int(rng.integers(0, 2)) << 15)
            c = int(rng.integers(0x4C00, 0x7C00)) | (int(rng.integers(0, 2)) << 15)
            triples.append((a, b, c))
            triples.append((c, a, b))
        _assert_fma_matches_scalar(triples, mode)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_overflow_to_inf_per_mode(self, mode):
        """Overflowing products saturate to inf or max-finite depending on
        the rounding direction and the result sign."""
        big = [0x7BFF, 0xFBFF, 0x7800, 0xF800, 0x7A00, 0xFA00]
        triples = list(itertools.product(big, big, SPECIAL_PATTERNS))
        _assert_fma_matches_scalar(triples, mode)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_subnormal_outputs(self, mode):
        """Products landing in (or rounding out of) the subnormal range."""
        tiny = [0x0001, 0x8001, 0x0400, 0x8400, 0x0800, 0x8800, 0x03FF, 0x83FF]
        triples = list(itertools.product(tiny, tiny, tiny))
        _assert_fma_matches_scalar(triples, mode)

    def test_broadcasting_and_shape(self):
        a = np.array([[0x3C00, 0x4000]], dtype=np.uint16)
        c = np.array([[0x0000], [0x3C00]], dtype=np.uint16)
        out = fma_many_fmt(a, np.uint16(0x3C00), c, FP16)
        assert out.shape == (2, 2)
        assert int(out[1, 0]) == fma16(0x3C00, 0x3C00, 0x3C00)

    def test_rejects_out_of_range_patterns(self):
        with pytest.raises(ValueError):
            fma_many_fmt([0x10000], [0], [0], FP16)
        with pytest.raises(TypeError):
            fma_many_fmt([1.5], [0], [0], FP16)


class TestFmaRandom:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_random_triples_match_scalar_bit_for_bit(self, mode):
        """>= 10k random (a, b, c) triples per rounding mode."""
        rng = np.random.default_rng(9000 + mode.value)
        triples = [
            tuple(int(v) for v in rng.integers(0, 0x10000, 3))
            for _ in range(10_500)
        ]
        _assert_fma_matches_scalar(triples, mode)


class TestOtherKernels:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_mul_matches_scalar(self, mode):
        rng = np.random.default_rng(7)
        pairs = list(itertools.product(SPECIAL_PATTERNS, repeat=2))
        pairs += [tuple(int(v) for v in rng.integers(0, 0x10000, 2))
                  for _ in range(4000)]
        a = np.array([p[0] for p in pairs], dtype=np.uint16)
        b = np.array([p[1] for p in pairs], dtype=np.uint16)
        got = mul_many_fmt(a, b, FP16, mode)
        for i, (x, y) in enumerate(pairs):
            assert int(got[i]) == mul16(x, y, mode)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_add_sub_match_scalar(self, mode):
        rng = np.random.default_rng(11)
        pairs = list(itertools.product(SPECIAL_PATTERNS, repeat=2))
        pairs += [tuple(int(v) for v in rng.integers(0, 0x10000, 2))
                  for _ in range(2000)]
        a = np.array([p[0] for p in pairs], dtype=np.uint16)
        b = np.array([p[1] for p in pairs], dtype=np.uint16)
        added = add_many_fmt(a, b, FP16, mode)
        subbed = add_many_fmt(a, neg_many_fmt(b, FP16), FP16, mode)
        for i, (x, y) in enumerate(pairs):
            assert int(added[i]) == add16(x, y, mode)
            assert int(subbed[i]) == sub16(x, y, mode)

    def test_neg_matches_scalar(self):
        bits = np.array(SPECIAL_PATTERNS, dtype=np.uint16)
        got = neg_many_fmt(bits, FP16)
        for i, value in enumerate(SPECIAL_PATTERNS):
            assert int(got[i]) == neg16(value)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_pack_matches_scalar(self, mode):
        rng = np.random.default_rng(6)
        cases = [(int(s), int(m) + 1, int(e)) for s, m, e in zip(
            rng.integers(0, 2, 800),
            rng.integers(0, 1 << 44, 800),
            rng.integers(-60, 20, 800),
        )]
        sign = np.array([c[0] for c in cases], dtype=np.int64)
        magnitude = np.array([c[1] for c in cases], dtype=np.int64)
        exponent = np.array([c[2] for c in cases], dtype=np.int64)
        vector_flags = ExceptionFlags()
        bits = pack_many_fmt(sign, magnitude, exponent, FP16, mode, vector_flags)
        scalar_flags = ExceptionFlags()
        for i, (s, m, e) in enumerate(cases):
            assert int(bits[i]) == pack(s, m, e, mode, scalar_flags)
        assert vector_flags == scalar_flags


class TestFlags:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_flags_aggregate_the_scalar_flags(self, mode):
        rng = np.random.default_rng(3)
        triples = list(itertools.product(SPECIAL_PATTERNS[:12], repeat=3))[:3000]
        triples += [tuple(int(v) for v in rng.integers(0, 0x10000, 3))
                    for _ in range(1000)]
        vector_flags = ExceptionFlags()
        a, b, c = _triples_as_arrays(triples)
        fma_many_fmt(a, b, c, FP16, mode, vector_flags)
        scalar_flags = ExceptionFlags()
        for x, y, z in triples:
            fma16(x, y, z, mode, scalar_flags)
        assert vector_flags == scalar_flags

    def test_flags_quiet_on_exact_lanes(self):
        flags = ExceptionFlags()
        fma_many_fmt([0x3C00], [0x4000], [0x3C00], FP16, RoundingMode.RNE, flags)
        assert not flags.any()


class TestCodec:
    """The native binary16 float codec against the scalar conversions."""

    #: Values whose binary16 rounding is a corner case of the native cast.
    VALUES = [
        _f64(0xFFF8000000000000),    # -NaN (x86's default NaN)
        _f64(0x7FF0000000000001),    # signalling NaN with a payload
        _f64(0xFFF4000000000123),    # negative NaN with a payload
        math.inf, -math.inf,
        65504.0, 65519.99, 65520.0, -65520.0, 1e6, -1e300,   # overflow edge
        2.0 ** -24, 2.0 ** -25, 1.5 * 2.0 ** -24, 2.5 * 2.0 ** -24,
        -3.0 * 2.0 ** -26, 2.0 ** -26, 2.0 ** -14 - 2.0 ** -25,
        2.0 ** -14 - 2.0 ** -26, 5e-324, -5e-324,            # subnormal rounding
        0.0, -0.0, 1.0 + 2.0 ** -11, 1.0 + 3 * 2.0 ** -11,
    ]

    def test_encode_matches_scalar(self):
        got = f64_to_bits_many(np.array(self.VALUES), FP16)
        assert got.dtype == np.uint16
        assert got.tolist() == [FP16.float_to_bits(v) for v in self.VALUES]

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_encode_with_flags_matches_scalar_per_mode(self, mode):
        vector_flags, scalar_flags = ExceptionFlags(), ExceptionFlags()
        got = f64_to_bits_many(np.array(self.VALUES), FP16, mode, vector_flags)
        want = [FP16.float_to_bits(v, mode, scalar_flags) for v in self.VALUES]
        assert got.tolist() == want
        assert vector_flags == scalar_flags

    def test_encode_keeps_the_shape(self):
        values = np.array(self.VALUES[:6]).reshape(2, 3)
        assert f64_to_bits_many(values, FP16).shape == (2, 3)

    @pytest.mark.parametrize("fmt", list(FORMATS.values()), ids=list(FORMATS))
    def test_round_is_the_value_round_trip(self, fmt):
        values = np.array(self.VALUES)
        with np.errstate(over="ignore"):
            got = round_f64_many(values, fmt)
        want = bits_to_f64_many(f64_to_bits_many(values, fmt), fmt)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()   # signed zeros too

    def test_decode_matches_scalar(self):
        got = bits_to_f64_many(np.array(SPECIAL_PATTERNS, np.uint16), FP16)
        assert got.dtype == np.float64
        for value, bits in zip(got, SPECIAL_PATTERNS):
            want = FP16.bits_to_float(bits)
            if math.isnan(want):
                assert math.isnan(value)
            else:
                assert value == want
                assert math.copysign(1.0, value) == math.copysign(1.0, want)


class TestGuardedF64:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_on_random_fp16_values(self, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 0x10000, (3, 4096)).astype(np.uint16)
        x64, w64, c64 = (bits_to_f64_many(bits[i], FP16) for i in range(3))
        got = f64_to_bits_many(fma_guarded_f64_fmt(x64, w64, c64, FP16), FP16)
        for i in range(bits.shape[1]):
            want = fma16(int(bits[0, i]), int(bits[1, i]), int(bits[2, i]))
            assert int(got[i]) == want

    def test_double_rounding_lanes_are_diverted(self):
        # max-finite addend + tiny product: the float64 sum is inexact, so the
        # lane must go through the integer kernel instead of double rounding.
        x = np.array([2.0 ** -24], dtype=np.float64)
        w = np.array([2.0 ** -14], dtype=np.float64)
        c = np.array([65504.0], dtype=np.float64)
        got = int(f64_to_bits_many(fma_guarded_f64_fmt(x, w, c, FP16), FP16)[0])
        assert got == fma16(0x0001, 0x0400, 0x7BFF)
