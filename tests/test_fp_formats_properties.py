"""Hypothesis property tests for the multi-precision formats.

The three satellite properties of the multi-precision work:

* pack/unpack round-trips (patterns <-> float64 <-> byte images);
* scalar-vs-SIMD bit-equality per format (the array
  kernels of :mod:`repro.fp.simd_formats` against the scalar oracles of
  :mod:`repro.fp.formats`), including the mixed-precision accumulate;
* perf-model exactness on FP8 geometries lives in
  ``tests/test_multiprecision.py`` (it needs the engine).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.formats import (
    FORMATS,
    FP8_E4M3,
    FP8_E5M2,
    FP16,
    fma_bits,
    fma_mixed,
)
from repro.fp.simd_formats import (
    bits_to_f64_many,
    f64_to_bits_many,
    fma_guarded_f64_fmt,
    fma_many_fmt,
    fma_mixed_many,
)
from repro.fp.vector import pack_matrix, quantize, unpack_matrix

formats = st.sampled_from(list(FORMATS.values()))


def patterns(fmt, n):
    return st.lists(
        st.integers(min_value=0, max_value=(1 << fmt.storage_bits) - 1),
        min_size=n, max_size=n,
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data(), fmt=formats)
def test_fma_scalar_vs_simd_bit_equality(data, fmt):
    n = 64
    a = data.draw(patterns(fmt, n))
    b = data.draw(patterns(fmt, n))
    c = data.draw(patterns(fmt, n))
    array = fma_many_fmt(a, b, c, fmt)
    scalar = [fma_bits(x, y, z, fmt) for x, y, z in zip(a, b, c)]
    assert array.tolist() == scalar


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       op_fmt=st.sampled_from([FP8_E4M3, FP8_E5M2]))
def test_mixed_fma_scalar_vs_simd_bit_equality(data, op_fmt):
    n = 48
    a = data.draw(patterns(op_fmt, n))
    b = data.draw(patterns(op_fmt, n))
    c = data.draw(patterns(FP16, n))
    array = fma_mixed_many(a, b, c, op_fmt, FP16)
    scalar = [fma_mixed(x, y, z, op_fmt, FP16) for x, y, z in zip(a, b, c)]
    assert array.tolist() == scalar


@settings(max_examples=150, deadline=None)
@given(data=st.data(), fmt=formats)
def test_f64_conversion_matches_scalar(data, fmt):
    values = data.draw(st.lists(
        st.floats(allow_nan=True, allow_infinity=True, width=64),
        min_size=1, max_size=32,
    ))
    array = f64_to_bits_many(np.array(values, dtype=np.float64), fmt)
    scalar = [fmt.float_to_bits(v) for v in values]
    assert array.tolist() == scalar


@settings(max_examples=100, deadline=None)
@given(data=st.data(), fmt=formats)
def test_pattern_decode_encode_round_trip(data, fmt):
    bits = data.draw(patterns(fmt, 64))
    values = bits_to_f64_many(bits, fmt)
    back = f64_to_bits_many(values, fmt)
    for original, value, rebuilt in zip(bits, values, back.tolist()):
        if fmt.is_nan(original):
            assert np.isnan(value) and rebuilt == fmt.nan_bits
        else:
            assert rebuilt == original


@settings(max_examples=60, deadline=None)
@given(data=st.data(), fmt=formats,
       rows=st.integers(min_value=1, max_value=8),
       cols=st.integers(min_value=1, max_value=8))
def test_matrix_pack_unpack_round_trip(data, fmt, rows, cols):
    raw = data.draw(st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False, width=64),
        min_size=rows * cols, max_size=rows * cols,
    ))
    matrix = quantize(np.array(raw, dtype=np.float64).reshape(rows, cols), fmt)
    image = pack_matrix(matrix, fmt)
    assert len(image) == rows * cols * fmt.storage_bytes
    back = unpack_matrix(image, rows, cols, fmt)
    assert np.array_equal(back, matrix)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), fmt=formats)
def test_guarded_f64_kernel_matches_integer_kernel(data, fmt):
    n = 48
    a = data.draw(patterns(fmt, n))
    b = data.draw(patterns(fmt, n))
    c = data.draw(patterns(fmt, n))
    x64 = bits_to_f64_many(a, fmt)
    w64 = bits_to_f64_many(b, fmt)
    acc64 = bits_to_f64_many(c, fmt)
    guarded = fma_guarded_f64_fmt(x64, w64, acc64, fmt)
    reference = bits_to_f64_many(fma_many_fmt(a, b, c, fmt), fmt)
    same = (guarded == reference) | (np.isnan(guarded) & np.isnan(reference))
    assert bool(same.all())
