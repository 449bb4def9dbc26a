"""Exhaustive checks of the exact float64 arithmetic on the 8-bit formats.

An 8-bit format has 256 patterns, so every ``(x, w, acc)`` triple -- 2**24
per format -- can run through :func:`fma_guarded_f64_fmt` and be compared
against the integer kernel :func:`fma_many_fmt`, and every key of the
rounding tables behind :func:`round_f64_many` and :func:`f64_to_bits_many`
can be compared against the integer codec :func:`f64_to_bits_codec`.

The table check always runs in full.  The triple grid runs a seeded slice
of 16 ``x`` patterns by default; set ``REPRO_EXHAUSTIVE_FP8=1`` to run all
256 (about ten seconds per format):

    REPRO_EXHAUSTIVE_FP8=1 PYTHONPATH=src python -m pytest tests/test_fp8_exhaustive.py
"""

import os

import numpy as np
import pytest

from repro.fp.formats import FP8_E4M3, FP8_E5M2
from repro.fp.simd_formats import (
    bits_to_f64_many,
    exact_sum_bound,
    f64_to_bits_codec,
    f64_to_bits_many,
    fma_guarded_f64_fmt,
    fma_many_fmt,
    round_f64_many,
    round_tables,
)

FORMATS = [FP8_E4M3, FP8_E5M2]

#: Run the whole triple grid instead of the seeded slice.
EXHAUSTIVE = os.environ.get("REPRO_EXHAUSTIVE_FP8", "") not in ("", "0")

#: ``x`` patterns of the default slice, and the seed that picks them.
SLICE_SIZE = 16
SLICE_SEED = 2024


def _x_patterns():
    if EXHAUSTIVE:
        return np.arange(256)
    rng = np.random.default_rng(SLICE_SEED)
    return np.sort(rng.choice(256, SLICE_SIZE, replace=False))


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_fma_kernel_on_every_pattern_triple(fmt):
    """For each ``x``: the guarded kernel on the full ``w x acc`` grid (NaN
    and infinity lanes force the TwoSum fallback), on the finite grid (the
    unguarded branch wherever the step's sums lie below the bound), and the
    exactness proof lane by lane -- every sum below
    :func:`exact_sum_bound` rounds once to the integer kernel's result."""
    patterns = np.arange(256, dtype=np.uint8)
    values = bits_to_f64_many(patterns, fmt)
    finite = np.isfinite(values)
    w_bits, acc_bits = patterns[:, None], patterns[None, :]
    w64, acc64 = values[:, None], values[None, :]
    bound = exact_sum_bound(fmt)
    mismatches = proven = 0
    for x in _x_patterns():
        want = fma_many_fmt(np.uint8(x), w_bits, acc_bits, fmt)
        x64 = values[x]
        got = fma_guarded_f64_fmt(x64, w64, acc64, fmt)
        mismatches += int(np.count_nonzero(f64_to_bits_codec(got, fmt) != want))
        got = fma_guarded_f64_fmt(x64, w64[finite], acc64[:, finite], fmt)
        mismatches += int(np.count_nonzero(
            f64_to_bits_codec(got, fmt) != want[finite][:, finite]))
        with np.errstate(over="ignore", invalid="ignore"):
            total = x64 * w64 + acc64
            exact = np.abs(total) < bound
        got = round_f64_many(total[exact], fmt)
        mismatches += int(np.count_nonzero(
            f64_to_bits_codec(got, fmt) != want[exact]))
        proven += int(np.count_nonzero(exact))
    assert mismatches == 0
    assert proven > 0


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_round_tables_match_the_codec_on_every_key(fmt):
    """Every table key against the integer codec.  A key is the float64's
    top 16 bits (sign, exponent, four mantissa bits) plus a sticky bit; a
    key without the sticky bit is one float64, a key with it covers every
    nonzero 48-bit tail.  Rounding is monotone, so matching the codec on the
    smallest and the largest tail proves the whole key."""
    patterns, values = round_tables(fmt)
    assert np.array_equal(values, bits_to_f64_many(patterns, fmt),
                          equal_nan=True)
    prefix = np.arange(1 << 16, dtype=np.uint64) << np.uint64(48)
    for sticky, tails in ((0, (0,)), (1, (1, (1 << 48) - 1))):
        entries = patterns[(np.arange(1 << 16) << 1) | sticky]
        for tail in tails:
            floats = (prefix | np.uint64(tail)).view(np.float64)
            want = f64_to_bits_codec(floats, fmt)
            assert np.array_equal(entries, want)
            assert np.array_equal(f64_to_bits_many(floats, fmt), want)
            assert np.array_equal(round_f64_many(floats, fmt),
                                  bits_to_f64_many(want, fmt), equal_nan=True)
