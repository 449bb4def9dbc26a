"""Directed binary16 tests of the vectorised kernels (:mod:`repro.fp.simd_formats`).

The scalar kernels of :mod:`repro.fp.formats` (``fma_bits`` et al. on
:data:`FP16`) are the oracle: every kernel must match them bit for bit,
element by element, over directed special-value grids and large random
sweeps.  The hypothesis properties of
``test_fp_formats_properties`` cover the other formats; binary16 gets the
exhaustive directed grids here because its float codec and guarded kernel
take numpy's native ``float16`` path.
"""

import itertools
import math
import struct

import numpy as np
import pytest

from repro.fp.formats import FORMATS, FP16, fma_bits
from repro.fp.simd_formats import (
    _pack_arrays_fmt,
    bits_to_f64_many,
    f64_to_bits_codec,
    f64_to_bits_many,
    fma_guarded_f64_fmt,
    fma_many_fmt,
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


def _f64(raw: int) -> float:
    """The binary64 value with bit pattern ``raw`` (keeps NaN sign/payload)."""
    return struct.unpack("<d", struct.pack("<Q", raw))[0]


def _triples_as_arrays(triples):
    a = np.array([t[0] for t in triples], dtype=np.uint16)
    b = np.array([t[1] for t in triples], dtype=np.uint16)
    c = np.array([t[2] for t in triples], dtype=np.uint16)
    return a, b, c


def _assert_fma_matches_scalar(triples):
    a, b, c = _triples_as_arrays(triples)
    got = fma_many_fmt(a, b, c, FP16)
    for i, (x, y, z) in enumerate(triples):
        want = fma_bits(x, y, z, FP16)
        assert int(got[i]) == want, (
            f"fma_many_fmt mismatch: "
            f"a={x:#06x} b={y:#06x} c={z:#06x} "
            f"want={want:#06x} got={int(got[i]):#06x}"
        )


class TestFmaDirected:
    def test_special_value_grid(self):
        """Full cube of special patterns: NaN propagation, +-inf, +-0,
        subnormal operands, invalid operations."""
        triples = list(itertools.product(SPECIAL_PATTERNS, repeat=3))
        _assert_fma_matches_scalar(triples)

    def test_extreme_alignment(self):
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
        _assert_fma_matches_scalar(triples)

    def test_overflow_to_inf(self):
        """Overflowing products round to the infinity of the result's
        sign."""
        big = [0x7BFF, 0xFBFF, 0x7800, 0xF800, 0x7A00, 0xFA00]
        triples = list(itertools.product(big, big, SPECIAL_PATTERNS))
        _assert_fma_matches_scalar(triples)

    def test_subnormal_outputs(self):
        """Products landing in (or rounding out of) the subnormal range."""
        tiny = [0x0001, 0x8001, 0x0400, 0x8400, 0x0800, 0x8800, 0x03FF, 0x83FF]
        triples = list(itertools.product(tiny, tiny, tiny))
        _assert_fma_matches_scalar(triples)

    def test_broadcasting_and_shape(self):
        a = np.array([[0x3C00, 0x4000]], dtype=np.uint16)
        c = np.array([[0x0000], [0x3C00]], dtype=np.uint16)
        out = fma_many_fmt(a, np.uint16(0x3C00), c, FP16)
        assert out.shape == (2, 2)
        assert int(out[1, 0]) == fma_bits(0x3C00, 0x3C00, 0x3C00, FP16)

    def test_rejects_out_of_range_patterns(self):
        with pytest.raises(ValueError):
            fma_many_fmt([0x10000], [0], [0], FP16)
        with pytest.raises(TypeError):
            fma_many_fmt([1.5], [0], [0], FP16)


class TestFmaRandom:
    def test_random_triples_match_scalar_bit_for_bit(self):
        """>= 10k random (a, b, c) triples."""
        rng = np.random.default_rng(9000)
        triples = [
            tuple(int(v) for v in rng.integers(0, 0x10000, 3))
            for _ in range(10_500)
        ]
        _assert_fma_matches_scalar(triples)


class TestPackCore:
    def test_pack_matches_scalar(self):
        """The vectorised pack core behind every kernel, on magnitudes and
        exponents far outside what one FMA produces."""
        rng = np.random.default_rng(6)
        cases = [(int(s), int(m) + 1, int(e)) for s, m, e in zip(
            rng.integers(0, 2, 800),
            rng.integers(0, 1 << 44, 800),
            rng.integers(-60, 20, 800),
        )]
        sign = np.array([c[0] for c in cases], dtype=np.int64)
        magnitude = np.array([c[1] for c in cases], dtype=np.int64)
        exponent = np.array([c[2] for c in cases], dtype=np.int64)
        bits = _pack_arrays_fmt(sign, magnitude, exponent, FP16)
        for i, (s, m, e) in enumerate(cases):
            assert int(bits[i]) == FP16.pack(s, m, e)


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

    @pytest.mark.parametrize("fmt", list(FORMATS.values()), ids=list(FORMATS))
    def test_integer_codec_matches_scalar(self, fmt):
        got = f64_to_bits_codec(np.array(self.VALUES), fmt)
        assert got.tolist() == [fmt.float_to_bits(v) for v in self.VALUES]

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
            a, b, c = (int(v) for v in bits[:, i])
            want = fma_bits(a, b, c, FP16)
            assert int(got[i]) == want

    def test_double_rounding_lanes_are_diverted(self):
        # max-finite addend + tiny product: the float64 sum is inexact, so the
        # lane must go through the integer kernel instead of double rounding.
        x = np.array([2.0 ** -24], dtype=np.float64)
        w = np.array([2.0 ** -14], dtype=np.float64)
        c = np.array([65504.0], dtype=np.float64)
        got = int(f64_to_bits_many(fma_guarded_f64_fmt(x, w, c, FP16), FP16)[0])
        assert got == fma_bits(0x0001, 0x0400, 0x7BFF, FP16)
