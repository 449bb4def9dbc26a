"""Vectorised bit-exact arithmetic for any :class:`~repro.fp.formats.BinaryFormat`.

The array kernels behind every array-oriented simulator backend, for every
registered format (FP16, BF16, FP8-E4M3, FP8-E5M2) *and* for
mixed-precision accumulation (narrow multiply, wide accumulate).  All
arithmetic kernels operate on integer pattern arrays with pure int64 bit
manipulation and are bit-for-bit identical to the scalar oracles in
:mod:`repro.fp.formats`, element by element, for every operand class and
every rounding mode; the property tests assert the equivalence.  IEEE
exception flags are *aggregated*: a flag passed in is raised when any
element raised it, the way a vector unit ORs its lanes into one ``fflags``.

Implementation notes
--------------------

* All intermediate arithmetic happens in ``int64``.  Two hazards are clamped
  to *sticky* substitutions that provably preserve the rounding decision:

  - **dominant addend**: when the addend sits so far above the product that
    the product cannot reach the result's guard/round significance, the
    workspace keeps the addend with ``G = man_res + 6`` spare low bits and
    the product collapses to a ``1`` in the workspace LSB;
  - **dominant product** (reachable with BF16's wide exponent range):
    symmetrically, the addend collapses to a ``1`` below the shifted
    product.

  In both cases the substituted operand lies strictly below the workspace
  LSB, so only the "are the discarded bits non-zero" question -- never their
  value -- can influence the rounding, for every mode; borrow/carry
  propagation is handled by the ordinary integer subtraction of the sticky.
* Right shifts inside the rounding helper are clamped to 62: a shift that
  large discards every bit of a sub-``2**61`` magnitude, and the clamped
  half-comparison makes the same decision as the unclamped one.
* Special operand classes flow through the integer path as bounded garbage
  and are overwritten by masked selects in scalar-priority order.
* IEEE binary16 is numpy's ``float16``, whose float64 casts round to
  nearest-even with gradual underflow and overflow to infinity: exactly
  :meth:`BinaryFormat.float_to_bits` under RNE.  The float codec and the
  guarded kernel therefore convert and round binary16 natively instead of
  through the integer packer (the engine's hot path), and this module is the
  only place that tests for the format.  NaN lanes are the one difference: the cast
  keeps sign and payload, so native encodes rewrite them to ``nan_bits``.
* Formats with at most three mantissa bits (the FP8 pair) round and encode
  ``float64`` values by table lookup (:func:`round_f64_many`,
  :func:`f64_to_bits_many`); the tables are derived from the integer codec
  (:func:`f64_to_bits_codec`).
* Float64 FMA chains (:func:`fma_chain_f64_fmt`) prove their sums exact from
  operand magnitudes (:func:`exact_sum_bound`, :func:`chain_sums_exact`)
  and only fall back to the per-lane TwoSum guard when the proof fails.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.fp.flags import ExceptionFlags
from repro.fp.formats import BinaryFormat
from repro.fp.rounding import RoundingMode

#: Per-format decode lookup tables (pattern -> exact float64 value).
_DECODE_TABLES: Dict[str, np.ndarray] = {}

#: Per-format ``(patterns, values)`` rounding tables of the <= 3-mantissa-
#: bit formats (see :func:`round_tables`), indexed by :func:`_round_key`.
_ROUND_TABLES: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

#: Mantissa bits a rounding-table key keeps; formats with fewer stored
#: mantissa bits than this round by table.
_ROUND_KEY_MAN_BITS = 4

#: A key is a float64 pattern shifted right by this much: sign, exponent,
#: the kept mantissa bits and one more bit, into which the sticky bit (any
#: lower bit set) is OR-ed.
_ROUND_KEY_SHIFT = 52 - _ROUND_KEY_MAN_BITS - 1
_ROUND_STICKY_MASK = np.int64((1 << _ROUND_KEY_SHIFT) - 1)


def format_dtype(fmt: BinaryFormat):
    """Numpy storage dtype of a format's patterns."""
    return np.uint8 if fmt.storage_bits == 8 else np.uint16


def as_bits_many(bits, fmt: BinaryFormat) -> np.ndarray:
    """Coerce patterns to the format's storage dtype, validating the range."""
    dtype = format_dtype(fmt)
    array = np.asarray(bits)
    if array.dtype == dtype:
        return array
    if array.dtype.kind == "b" or array.dtype.kind not in "iu":
        raise TypeError(
            f"{fmt.name} patterns must be integers, got dtype {array.dtype}"
        )
    wide = array.astype(np.int64)
    if wide.size and (int(wide.min()) < 0 or int(wide.max()) > fmt.full_mask):
        raise ValueError(f"{fmt.name} pattern out of range")
    return wide.astype(dtype)


# ---------------------------------------------------------------------------
# decode / encode
# ---------------------------------------------------------------------------

def _native_binary16(fmt: BinaryFormat) -> bool:
    """True when numpy's ``float16`` is ``fmt`` (IEEE binary16, 1/5/10)."""
    return fmt.man_bits == 10 and fmt.exp_bits == 5


def _build_decode_table(fmt: BinaryFormat) -> np.ndarray:
    patterns = np.arange(1 << fmt.storage_bits, dtype=np.int64)
    magnitude = patterns & fmt.abs_mask
    exp_field = magnitude >> fmt.man_bits
    man = magnitude & fmt.man_mask
    normal = exp_field != 0
    sig = np.where(normal, man | fmt.implicit_one, man).astype(np.float64)
    exp = np.where(normal, exp_field - (fmt.bias + fmt.man_bits),
                   np.int64(fmt.subnormal_exp))
    sign = np.where(patterns >> (fmt.storage_bits - 1), -1.0, 1.0)
    values = sign * np.ldexp(sig, exp)
    values = np.where(magnitude == fmt.exp_mask, sign * np.inf, values)
    values = np.where(magnitude > fmt.exp_mask, np.nan, values)
    return values


def bits_to_f64_many(bits, fmt: BinaryFormat) -> np.ndarray:
    """Decode a pattern array to the exact ``float64`` values it represents.

    NaN patterns decode to a NaN whose sign and payload are unspecified.
    """
    u = as_bits_many(bits, fmt)
    if _native_binary16(fmt):
        return u.view(np.float16).astype(np.float64)
    table = _DECODE_TABLES.get(fmt.name)
    if table is None:
        table = _build_decode_table(fmt)
        _DECODE_TABLES[fmt.name] = table
    return table[u.astype(np.int64)]


def f64_to_bits_many(
    values,
    fmt: BinaryFormat,
    mode: RoundingMode = RoundingMode.RNE,
    flags: Optional[ExceptionFlags] = None,
) -> np.ndarray:
    """Round a ``float64`` array to ``fmt`` patterns (bit-exact, any mode).

    Element-for-element equivalent to mapping
    :meth:`BinaryFormat.float_to_bits` over the array.  Without flags and
    under RNE, binary16 casts natively and the FP8 formats look their
    patterns up in :func:`round_tables`; everything else runs the integer
    codec (:func:`f64_to_bits_codec`).
    """
    values = np.asarray(values, dtype=np.float64)
    if flags is None and mode is RoundingMode.RNE:
        if _native_binary16(fmt):
            with np.errstate(over="ignore"):
                bits = values.astype(np.float16).view(np.uint16)
            nan = np.isnan(values)
            if nan.any():
                bits = np.where(nan, np.uint16(fmt.nan_bits), bits)
            return bits
        if fmt.man_bits < _ROUND_KEY_MAN_BITS:
            patterns = round_tables(fmt)[0]
            return np.asarray(patterns.take(_round_key(values.view(np.int64))))
    return f64_to_bits_codec(values, fmt, mode, flags)


def f64_to_bits_codec(
    values,
    fmt: BinaryFormat,
    mode: RoundingMode = RoundingMode.RNE,
    flags: Optional[ExceptionFlags] = None,
) -> np.ndarray:
    """The integer codec behind :func:`f64_to_bits_many`, for every format.

    Decomposes each float64 into sign, integer significand and exponent and
    packs it with :func:`_pack_arrays_fmt` -- no float arithmetic, so it is
    the reference the native and table-driven encodings are checked against.
    """
    values = np.asarray(values, dtype=np.float64)
    shape = values.shape
    raw = values.ravel().view(np.uint64).astype(np.int64)
    sign = (raw >> 63) & 0x1
    exp_field = (raw >> 52) & 0x7FF
    man_field = raw & ((np.int64(1) << 52) - 1)

    is_nan = (exp_field == 0x7FF) & (man_field != 0)
    is_inf = (exp_field == 0x7FF) & (man_field == 0)
    is_zero = (exp_field == 0) & (man_field == 0)
    special = is_nan | is_inf | is_zero

    normal = exp_field != 0
    magnitude = np.where(normal, man_field | (np.int64(1) << 52), man_field)
    exponent = np.where(normal, exp_field - 1023 - 52, np.int64(-1074))

    pack_lanes = ~special
    magnitude = np.where(pack_lanes, magnitude, np.int64(1))
    exponent = np.where(pack_lanes, exponent, np.int64(0))
    bits, overflow, underflow, inexact = _pack_arrays_fmt(
        sign, magnitude, exponent, fmt, mode
    )

    if special.any():
        bits = np.where(is_zero, sign << (fmt.storage_bits - 1), bits)
        bits = np.where(
            is_inf,
            np.where(sign == 1, np.int64(fmt.neg_inf_bits),
                     np.int64(fmt.pos_inf_bits)),
            bits,
        )
        bits = np.where(is_nan, np.int64(fmt.nan_bits), bits)
    if flags is not None:
        flags.overflow |= bool(np.any(overflow & pack_lanes))
        flags.underflow |= bool(np.any(underflow & pack_lanes))
        flags.inexact |= bool(np.any(inexact & pack_lanes))
    return bits.astype(format_dtype(fmt)).reshape(shape)


def _round_key(raw: np.ndarray) -> np.ndarray:
    """Rounding-table keys of ``float64`` bit patterns viewed as ``int64``.

    The key is the pattern's sign, exponent and top four mantissa bits with
    a sticky bit appended (set when any lower bit is).  Negative values
    shift to negative keys, ``key - 2**17``, which index the table from its
    end: exactly the slot of the unsigned key.
    """
    key = raw >> _ROUND_KEY_SHIFT
    key |= (raw & _ROUND_STICKY_MASK) != 0
    return key


def _build_round_tables(fmt: BinaryFormat) -> Tuple[np.ndarray, np.ndarray]:
    """Every rounding-table key's RNE result, derived from the integer codec.

    One representative per key (its top bits, plus the lowest float64 bit
    when the sticky bit is set) goes through :func:`f64_to_bits_codec`; the
    keys run in chunks so the codec's temporaries stay small.  Returns the
    ``uint8`` patterns and their values as ``float32``, which holds every
    value (and infinity and NaN) of a format this narrow.

    The key determines the rounding: with ``p <= 4`` bits of precision, the
    format's values and the midpoints between them all have at most five
    significant bits (subnormal spacing included), so they lie on the grid
    of float64 values whose mantissa ends after four bits.  Every value
    strictly between two neighbours of that grid -- one key with its sticky
    bit set -- therefore rounds the same way, and a grid value -- sticky
    bit clear -- is its own key.  Float64 subnormals, infinities and NaNs
    are keyed like any other pattern.
    """
    size = 1 << (12 + _ROUND_KEY_MAN_BITS + 1)
    patterns = np.empty(size, dtype=np.uint8)
    values = np.empty(size, dtype=np.float32)
    chunk = 1 << 10
    for start in range(0, size, chunk):
        key = np.arange(start, start + chunk, dtype=np.uint64)
        raw = ((key >> np.uint64(1)) << np.uint64(_ROUND_KEY_SHIFT + 1)) | (
            key & np.uint64(1))
        bits = f64_to_bits_codec(raw.view(np.float64), fmt)
        patterns[start: start + chunk] = bits
        values[start: start + chunk] = bits_to_f64_many(bits, fmt)
    return patterns, values


def round_tables(fmt: BinaryFormat) -> Tuple[np.ndarray, np.ndarray]:
    """The RNE rounding tables of a <= 3-mantissa-bit format.

    ``(patterns, values)``: the ``uint8`` pattern and the ``float32`` value
    every float64 rounds to, indexed by :func:`_round_key` (2**17 entries,
    640 KiB together).  Built once per format and shared by every later
    call.
    """
    tables = _ROUND_TABLES.get(fmt.name)
    if tables is None:
        if fmt.man_bits >= _ROUND_KEY_MAN_BITS:
            raise ValueError(f"{fmt.name} has too many mantissa bits for a "
                             "rounding table")
        tables = _build_round_tables(fmt)
        _ROUND_TABLES[fmt.name] = tables
    return tables


def round_f64_many(values, fmt: BinaryFormat) -> np.ndarray:
    """Round ``float64`` values to the nearest ``fmt`` values (RNE), as float64.

    Equal to the value-level :func:`f64_to_bits_many` +
    :func:`bits_to_f64_many` round trip, element for element; NaN lanes stay
    NaN.  Three evaluations:

    * binary16 casts through numpy's ``float16``, which raises numpy's
      overflow condition on values beyond the format (a warning unless the
      caller's :func:`numpy.errstate` ignores it);
    * formats with at most three mantissa bits (FP8) are one lookup in
      :func:`round_tables`, keyed on the float64's sign, exponent, top four
      mantissa bits and a sticky bit -- the table is built from the integer
      codec and checked against it on every key;
    * every other format (bf16) runs the integer codec.
    """
    values = np.asarray(values, dtype=np.float64)
    if _native_binary16(fmt):
        return values.astype(np.float16).astype(np.float64)
    if fmt.man_bits < _ROUND_KEY_MAN_BITS:
        table = round_tables(fmt)[1]
        return table.take(_round_key(values.view(np.int64))).astype(
            np.float64)
    return bits_to_f64_many(f64_to_bits_many(values, fmt), fmt)


# ---------------------------------------------------------------------------
# decompose / round / pack
# ---------------------------------------------------------------------------

def _decompose_magnitude_fmt(
    magnitude: np.ndarray, fmt: BinaryFormat
) -> Tuple[np.ndarray, np.ndarray]:
    """Unchecked ``(significand, exponent)`` of sign-stripped ``int64`` patterns.

    Zeros decompose to a zero significand; infinities and NaNs produce
    bounded garbage that callers must mask out.
    """
    exp_field = magnitude >> fmt.man_bits
    man = magnitude & fmt.man_mask
    normal = exp_field != 0
    sig = np.where(normal, man | fmt.implicit_one, man)
    exp = np.where(normal, exp_field - (fmt.bias + fmt.man_bits),
                   np.int64(fmt.subnormal_exp))
    return sig, exp


def _bit_length(values: np.ndarray) -> np.ndarray:
    """Bit lengths of strictly positive ``int64`` values (< 2**62)."""
    exponents = np.frexp(values.astype(np.float64))[1].astype(np.int64)
    overshoot = (values >> (exponents - 1)) == 0
    return exponents - overshoot


def _round_shifted_arrays_fmt(
    magnitude: np.ndarray,
    rshift: np.ndarray,
    mode: RoundingMode,
    negative: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`repro.fp.rounding.round_shifted` core (int64 workspace).

    ``magnitude`` must be non-negative and below 2**62; right shifts are
    clamped to 62, which preserves every rounding decision for such
    magnitudes (the clamped remainder stays on the same side of the clamped
    half in every mode).  Negative shifts shift left exactly.
    """
    zero = np.int64(0)
    right = np.minimum(np.maximum(rshift, zero), np.int64(62))
    truncated = magnitude >> right
    remainder = magnitude - (truncated << right)
    inexact = remainder != 0
    if mode is RoundingMode.RNE:
        half = (np.int64(1) << right) >> 1
        increment = (remainder > half) | ((remainder == half) & ((truncated & 1) == 1))
    elif mode is RoundingMode.RTZ:
        increment = np.zeros_like(inexact)
    elif mode is RoundingMode.RDN:
        increment = negative & inexact
    elif mode is RoundingMode.RUP:
        increment = ~negative & inexact
    elif mode is RoundingMode.RMM:
        half = (np.int64(1) << right) >> 1
        increment = inexact & (remainder >= half)
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown rounding mode {mode!r}")
    rounded = truncated + increment
    exact_left = magnitude << np.maximum(-rshift, zero)
    return np.where(rshift > 0, rounded, exact_left), inexact


def _overflow_to_inf(mode: RoundingMode, negative: np.ndarray) -> np.ndarray:
    """Mask of lanes whose overflow saturates to infinity (vs. max finite)."""
    if mode in (RoundingMode.RNE, RoundingMode.RMM):
        return np.ones_like(negative)
    if mode is RoundingMode.RTZ:
        return np.zeros_like(negative)
    if mode is RoundingMode.RUP:
        return ~negative
    if mode is RoundingMode.RDN:
        return negative
    raise ValueError(f"unknown rounding mode {mode!r}")  # pragma: no cover


def _pack_arrays_fmt(
    sign: np.ndarray,
    magnitude: np.ndarray,
    exponent: np.ndarray,
    fmt: BinaryFormat,
    mode: RoundingMode,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :meth:`BinaryFormat.pack` core.

    All arguments are ``int64`` arrays; ``magnitude`` must be strictly
    positive and below 2**62.  Returns ``(bits, overflow, underflow,
    inexact)`` with per-element flag vectors.
    """
    negative = sign != 0
    man_bits = fmt.man_bits
    implicit = np.int64(fmt.implicit_one)
    length = _bit_length(magnitude)
    unbiased = exponent + length - 1
    normal = unbiased >= fmt.emin
    all_normal = bool(normal.all())

    if all_normal:
        rshift = length - (man_bits + 1)
    else:
        rshift = np.where(normal, length - (man_bits + 1),
                          fmt.subnormal_exp - exponent)
    sig, inexact = _round_shifted_arrays_fmt(magnitude, rshift, mode, negative)

    carried = normal & (sig == (implicit << 1))
    sig_n = np.where(carried, implicit, sig)
    unbiased_n = unbiased + carried
    overflow = normal & (unbiased_n > fmt.emax)
    sign_shift = fmt.storage_bits - 1
    bits = (sign << sign_shift) | ((unbiased_n + fmt.bias) << man_bits) | (
        sig_n - implicit
    )
    if overflow.any():
        saturate_inf = _overflow_to_inf(mode, negative)
        overflow_bits = np.where(
            saturate_inf,
            np.where(negative, np.int64(fmt.neg_inf_bits),
                     np.int64(fmt.pos_inf_bits)),
            fmt.max_finite_bits | (sign << sign_shift),
        )
        bits = np.where(overflow, overflow_bits, bits)
    inexact = inexact | overflow
    underflow = np.zeros_like(normal)

    if not all_normal:
        rounded_to_normal = ~normal & (sig >= implicit)
        bits_s = np.where(
            rounded_to_normal,
            (sign << sign_shift) | (1 << man_bits) | (sig - implicit),
            (sign << sign_shift) | sig,
        )
        bits = np.where(normal, bits, bits_s)
        underflow = ~normal & inexact & ~rounded_to_normal
    return bits, overflow, underflow, inexact


def pack_many_fmt(
    sign,
    magnitude,
    exponent,
    fmt: BinaryFormat,
    mode: RoundingMode = RoundingMode.RNE,
    flags: Optional[ExceptionFlags] = None,
) -> np.ndarray:
    """Vectorised :meth:`BinaryFormat.pack` with aggregated flags."""
    magnitude = np.asarray(magnitude, dtype=np.int64)
    if np.any(magnitude <= 0):
        raise ValueError("pack_many_fmt requires strictly positive magnitudes")
    sign = np.broadcast_to(np.asarray(sign, dtype=np.int64), magnitude.shape)
    exponent = np.broadcast_to(np.asarray(exponent, dtype=np.int64),
                               magnitude.shape)
    bits, overflow, underflow, inexact = _pack_arrays_fmt(
        sign, magnitude, exponent, fmt, mode
    )
    if flags is not None:
        flags.overflow |= bool(np.any(overflow))
        flags.underflow |= bool(np.any(underflow))
        flags.inexact |= bool(np.any(inexact))
    return bits.astype(format_dtype(fmt))


# ---------------------------------------------------------------------------
# arithmetic kernels
# ---------------------------------------------------------------------------

def fma_mixed_many(
    a,
    b,
    c,
    op_fmt: BinaryFormat,
    acc_fmt: Optional[BinaryFormat] = None,
    mode: RoundingMode = RoundingMode.RNE,
    flags: Optional[ExceptionFlags] = None,
) -> np.ndarray:
    """Element-wise mixed-precision ``a * b + c`` with one rounding.

    ``a`` and ``b`` are ``op_fmt`` patterns, ``c`` and the result ``acc_fmt``
    patterns (defaulting to ``op_fmt``); broadcasting applies.  Bit-for-bit
    equivalent to mapping :func:`repro.fp.formats.fma_mixed` over the inputs.
    """
    if acc_fmt is None:
        acc_fmt = op_fmt
    a, b = np.broadcast_arrays(as_bits_many(a, op_fmt), as_bits_many(b, op_fmt))
    c = as_bits_many(c, acc_fmt)
    a, b, c = np.broadcast_arrays(a, b, c)
    shape = a.shape
    ai = a.astype(np.int64).ravel()
    bi = b.astype(np.int64).ravel()
    ci = c.astype(np.int64).ravel()

    op_abs = np.int64(op_fmt.abs_mask)
    op_exp = np.int64(op_fmt.exp_mask)
    acc_abs = np.int64(acc_fmt.abs_mask)
    acc_exp = np.int64(acc_fmt.exp_mask)
    op_sign_shift = op_fmt.storage_bits - 1
    acc_sign_shift = acc_fmt.storage_bits - 1

    abs_a = ai & op_abs
    abs_b = bi & op_abs
    abs_c = ci & acc_abs
    nonfinite = (np.maximum(abs_a, abs_b) >= op_exp) | (abs_c >= acc_exp)
    both_zero = (np.minimum(abs_a, abs_b) | abs_c) == 0
    special = nonfinite | both_zero
    special_any = bool(special.any())

    product_sign = ((ai >> op_sign_shift) ^ (bi >> op_sign_shift)) & 1
    sign_c = ci >> acc_sign_shift

    sig_a, exp_a = _decompose_magnitude_fmt(abs_a, op_fmt)
    sig_b, exp_b = _decompose_magnitude_fmt(abs_b, op_fmt)
    sig_c, exp_c = _decompose_magnitude_fmt(abs_c, acc_fmt)
    product_sig = sig_a * sig_b
    product_exp = exp_a + exp_b

    # Workspace construction with the two-sided sticky clamp (module
    # docstring): G spare guard bits under the dominant operand, the other
    # operand collapsing to a sticky 1 when it lies entirely below them.
    guard = np.int64(acc_fmt.man_bits + 6)
    clamp_add = np.int64(2 * op_fmt.man_bits + acc_fmt.man_bits + 10)
    clamp_prod = np.int64(2 * acc_fmt.man_bits + 10)
    gap = exp_c - product_exp

    # A zero product (zero operand lanes) decomposes to the subnormal
    # exponent scale, which can fake a huge gap: the product-dominant clamp
    # must never fire for it, or the true addend would be replaced by a
    # sticky bit.  (The addend-dominant clamp is safe either way: a zero
    # product contributes min(0, 1) = 0 sticky.)
    dominant_add = gap > clamp_add
    dominant_prod = (gap < -clamp_prod) & (product_sig != 0)
    clamped = dominant_add | dominant_prod
    if clamped.any():
        common_exp = np.minimum(product_exp, exp_c)
        common_exp = np.where(dominant_add, exp_c - guard, common_exp)
        common_exp = np.where(dominant_prod, product_exp - guard, common_exp)
        shift_p = np.maximum(product_exp - common_exp, 0)
        shift_c = np.maximum(exp_c - common_exp, 0)
        product_val = np.where(
            dominant_add, np.minimum(product_sig, 1), product_sig << shift_p
        )
        addend_val = np.where(
            dominant_prod, np.minimum(sig_c, 1), sig_c << shift_c
        )
    else:
        common_exp = np.minimum(product_exp, exp_c)
        product_val = product_sig << (product_exp - common_exp)
        addend_val = sig_c << (exp_c - common_exp)

    signed_sum = product_val * (1 - (product_sign << 1)) + addend_val * (
        1 - (sign_c << 1)
    )
    cancel = ~special & (signed_sum == 0)
    pack_lanes = ~(special | cancel)
    result_sign = (signed_sum < 0).astype(np.int64)
    magnitude = np.where(pack_lanes, np.abs(signed_sum), np.int64(1))
    pack_exp = np.where(pack_lanes, common_exp, np.int64(0))
    bits, overflow, underflow, inexact = _pack_arrays_fmt(
        result_sign, magnitude, pack_exp, acc_fmt, mode
    )

    if cancel.any():
        cancel_zero = np.int64(
            acc_fmt.sign_mask if mode is RoundingMode.RDN else 0
        )
        bits = np.where(cancel, cancel_zero, bits)
    invalid_any = False
    if special_any:
        nan = (abs_a > op_exp) | (abs_b > op_exp) | (abs_c > acc_exp)
        inf_a = abs_a == op_exp
        inf_b = abs_b == op_exp
        inf_c = abs_c == acc_exp
        product_inf = inf_a | inf_b
        invalid = ~nan & (
            (inf_a & (abs_b == 0))
            | ((abs_a == 0) & inf_b)
            | (product_inf & inf_c & (product_sign != sign_c))
        )
        invalid_any = bool(invalid.any())
        zero_sign = np.where(
            product_sign == sign_c,
            product_sign,
            np.int64(1 if mode is RoundingMode.RDN else 0),
        )
        bits = np.where(both_zero, zero_sign << acc_sign_shift, bits)
        bits = np.where(inf_c & ~product_inf & ~nan, ci, bits)
        bits = np.where(
            product_inf,
            (product_sign << acc_sign_shift) | acc_exp,
            bits,
        )
        bits = np.where(invalid | nan, np.int64(acc_fmt.nan_bits), bits)

    if flags is not None:
        flags.invalid |= invalid_any
        flags.overflow |= bool(np.any(overflow & pack_lanes))
        flags.underflow |= bool(np.any(underflow & pack_lanes))
        flags.inexact |= bool(np.any(inexact & pack_lanes))
    return bits.astype(format_dtype(acc_fmt)).reshape(shape)


def fma_many_fmt(
    a,
    b,
    c,
    fmt: BinaryFormat,
    mode: RoundingMode = RoundingMode.RNE,
    flags: Optional[ExceptionFlags] = None,
) -> np.ndarray:
    """Element-wise single-format ``a * b + c`` with one rounding."""
    return fma_mixed_many(a, b, c, fmt, fmt, mode, flags)


def mul_many_fmt(
    a,
    b,
    fmt: BinaryFormat,
    mode: RoundingMode = RoundingMode.RNE,
    flags: Optional[ExceptionFlags] = None,
) -> np.ndarray:
    """Element-wise ``a * b`` in ``fmt`` (broadcasting), scalar-equivalent."""
    a, b = np.broadcast_arrays(as_bits_many(a, fmt), as_bits_many(b, fmt))
    shape = a.shape
    ai = a.astype(np.int64).ravel()
    bi = b.astype(np.int64).ravel()
    abs_mask = np.int64(fmt.abs_mask)
    exp_mask = np.int64(fmt.exp_mask)
    sign_shift = fmt.storage_bits - 1

    abs_a = ai & abs_mask
    abs_b = bi & abs_mask
    sign = ((ai ^ bi) >> sign_shift) & 1
    special = (np.maximum(abs_a, abs_b) >= exp_mask) | (
        np.minimum(abs_a, abs_b) == 0
    )

    sig_a, exp_a = _decompose_magnitude_fmt(abs_a, fmt)
    sig_b, exp_b = _decompose_magnitude_fmt(abs_b, fmt)
    pack_lanes = ~special
    magnitude = np.where(pack_lanes, sig_a * sig_b, np.int64(1))
    exponent = np.where(pack_lanes, exp_a + exp_b, np.int64(0))
    bits, overflow, underflow, inexact = _pack_arrays_fmt(
        sign, magnitude, exponent, fmt, mode
    )

    invalid_any = False
    if special.any():
        nan = (abs_a > exp_mask) | (abs_b > exp_mask)
        inf_a = abs_a == exp_mask
        inf_b = abs_b == exp_mask
        invalid = ~nan & ((inf_a & (abs_b == 0)) | ((abs_a == 0) & inf_b))
        invalid_any = bool(invalid.any())
        bits = np.where((abs_a == 0) | (abs_b == 0), sign << sign_shift, bits)
        bits = np.where(inf_a | inf_b, (sign << sign_shift) | exp_mask, bits)
        bits = np.where(invalid | nan, np.int64(fmt.nan_bits), bits)
    if flags is not None:
        flags.invalid |= invalid_any
        flags.overflow |= bool(np.any(overflow & pack_lanes))
        flags.underflow |= bool(np.any(underflow & pack_lanes))
        flags.inexact |= bool(np.any(inexact & pack_lanes))
    return bits.astype(format_dtype(fmt)).reshape(shape)


def add_many_fmt(
    a,
    b,
    fmt: BinaryFormat,
    mode: RoundingMode = RoundingMode.RNE,
    flags: Optional[ExceptionFlags] = None,
) -> np.ndarray:
    """Element-wise ``a + b`` in ``fmt``, via the exact FMA (``a * 1 + b``)."""
    one = format_dtype(fmt)(fmt.one_bits)
    return fma_many_fmt(a, one, b, fmt, mode, flags)


def neg_many_fmt(a, fmt: BinaryFormat) -> np.ndarray:
    """Element-wise sign-bit flip (NaNs pass through unchanged)."""
    u = as_bits_many(a, fmt)
    dtype = format_dtype(fmt)
    wide = u.astype(np.int64)
    nan = (wide & fmt.abs_mask) > fmt.exp_mask
    return np.where(nan, wide, wide ^ fmt.sign_mask).astype(dtype)


def exact_sum_bound(fmt: BinaryFormat) -> float:
    """Magnitude below which ``x * w + acc`` over ``fmt`` values is exact.

    Proof: every ``fmt`` value is an integer multiple of
    ``2**subnormal_exp``, so a product of two is a multiple of
    ``2**(2 * subnormal_exp)`` -- and so is the sum with a third, as
    ``subnormal_exp < 0``.  A multiple of ``2**q`` whose magnitude is below
    ``2**(53 + q)`` has at most 53 significant bits: it is a float64.  The
    product itself is exact (at most ``2 * (man_bits + 1)`` bits), so the
    float64 sum is the exact sum whenever the exact sum lies below the
    bound; and as rounding is monotone and the bound a power of two, that
    holds whenever the *computed* sum lies below it.

    The bound is ``2**5`` for fp16, ``2**35`` for fp8-e4m3 and ``2**21``
    for fp8-e5m2; bf16's wide exponent range leaves ``2**-213``.
    """
    return math.ldexp(1.0, 53 + 2 * fmt.subnormal_exp)


#: Longest chain :func:`chain_sums_exact` evaluates; longer ones are guarded.
_CHAIN_BOUND_MAX_STEPS = 1 << 20


def chain_sums_exact(x64: np.ndarray, w64: np.ndarray, acc64: np.ndarray,
                     fmt: BinaryFormat) -> bool:
    """True when every float64 sum of the chain ``acc += x @ w`` is exact.

    ``x64`` is ``(..., M, N)``, ``w64`` ``(..., N, K)`` and ``acc64``
    ``(..., M, K)``, all exact ``fmt`` values; the chain is the one
    :func:`fma_chain_f64_fmt` runs.  Proof: let ``u = 2**-(man_bits + 1)``
    and ``e = subnormal_exp``.  RNE rounding to ``fmt`` obeys
    ``|rnd(v)| <= (1 + u) |v| + 2**(e - 1)`` (half an ulp relative to
    ``v`` in the normal range, half the subnormal spacing below it), so by
    induction over the steps every sum ``v_n = x_n w_n + acc_(n-1)`` obeys

        ``|v_n| <= (1 + u)**N * (S + N * 2**(e - 1))``,
        ``S = |acc| + |x| @ |w|``

    elementwise.  A finite accumulator also never exceeds the format's
    largest finite value (a larger sum rounds to infinity), so
    ``|v_n| <= S + max_finite`` as well -- the tighter bound for the FP8
    formats on long chains.  When the smaller bound stays below
    :func:`exact_sum_bound`, no step needs a guard.  A step that overflows
    to infinity leaves the finite domain, and float64 then propagates the
    infinity exactly as the FMA does.

    ``S`` is one batched matmul, evaluated in ``float32`` to halve its
    temporaries: the magnitudes of every format here are exact in
    ``float32``, and the sum of ``N + 1`` non-negative terms errs by less
    than ``2 * (N + 2) * 2**-24`` relative, which the check adds back for
    chains up to ``2**20`` steps (longer ones are not proven).  Products
    that overflow ``float32`` make ``S`` infinite; bf16 products that
    underflow it are covered by the ``N * 2**(e - 1)`` term, which alone
    exceeds bf16's bound.  An infinite or NaN operand (``inf * 0``
    included) makes ``S`` non-finite, which fails the check.
    """
    n = x64.shape[-1]
    if n == 0:
        return True
    if n > _CHAIN_BOUND_MAX_STEPS:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        magnitude = np.abs(acc64, dtype=np.float32) + np.einsum(
            "...mn,...nk->...mk", np.abs(x64, dtype=np.float32),
            np.abs(w64, dtype=np.float32))
        largest = float(magnitude.max(initial=0.0))
        growth = float(np.power(1.0 + math.ldexp(1.0, -(fmt.man_bits + 1)),
                                n))
    largest *= 1.0 + (n + 2) * 2.0 ** -23
    underflow = n * math.ldexp(1.0, fmt.subnormal_exp - 1)
    reach = min(growth * (largest + underflow),
                largest + fmt.max_finite_value)
    return reach * (1.0 + 2.0 ** -40) < exact_sum_bound(fmt)


def fma_chain_f64_fmt(x64: np.ndarray, w64: np.ndarray, acc64: np.ndarray,
                      fmt: BinaryFormat, guard: bool = True) -> np.ndarray:
    """Hardware-order FMA chains ``acc += x @ w`` over exact ``fmt`` values.

    ``x64`` is ``(..., M, N)``, ``w64`` ``(..., N, K)`` and ``acc64``
    ``(..., M, K)`` float64 arrays of ``fmt`` values.  Step ``n``, in
    increasing order, sets every element to ``x[..., m, n] * w[..., n, k] +
    acc[..., m, k]`` rounded once to ``fmt`` (RNE).  Returns a float64 array
    of exact ``fmt`` values.

    With ``guard`` (the default) the chain is bit-exact: when
    :func:`chain_sums_exact` proves every float64 sum exact, each step is a
    multiply, an add and one :func:`round_f64_many`; otherwise each step is
    :func:`fma_guarded_f64_fmt`, which re-checks exactness per step and
    recomputes unprovable lanes through the integer kernel.  Without
    ``guard`` every step rounds its float64 sum directly, which can round
    twice (the ``fast`` backend's arithmetic).
    """
    x_cols = np.moveaxis(x64, -1, 0)[..., None]
    w_lines = np.moveaxis(w64, -2, 0)[..., None, :]
    guarded = guard and not chain_sums_exact(x64, w64, acc64, fmt)
    with np.errstate(over="ignore", invalid="ignore"):
        if guarded:
            for x_col, w_line in zip(x_cols, w_lines):
                acc64 = fma_guarded_f64_fmt(x_col, w_line, acc64, fmt)
        else:
            for x_col, w_line in zip(x_cols, w_lines):
                acc64 = round_f64_many(x_col * w_line + acc64, fmt)
    return acc64


def fma_guarded_f64_fmt(
    x64: np.ndarray, w64: np.ndarray, acc64: np.ndarray, fmt: BinaryFormat
) -> np.ndarray:
    """Bit-exact FMA (RNE) over float64 operands holding exact ``fmt`` values.

    The product of two ``fmt`` values is always exact in float64, so the
    only rounding hazard is the addition.  Every sum is a multiple of
    ``2**(2 * subnormal_exp)``, so one below :func:`exact_sum_bound` in
    magnitude fits 53 bits and is exact; when the largest computed sum of
    the step lies below the bound, every lane is rounded once, unguarded.
    Otherwise (NaN or infinite lanes, large magnitudes, bf16) a TwoSum
    error term detects exactly the lanes whose float64 sum is inexact
    (where the final conversion to ``fmt`` would double-round) and those
    lanes -- plus NaNs and infinities, whose error term is NaN -- are
    recomputed through the integer kernel.  Operands must broadcast against
    each other.  Returns a ``float64`` array of exactly representable
    ``fmt`` values.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        product = x64 * w64
        total = product + acc64
        if np.abs(total).max(initial=0.0) < exact_sum_bound(fmt):
            return round_f64_many(total, fmt)
        virtual_product = total - acc64
        error = (product - virtual_product) + (acc64 - (total - virtual_product))
        rounded = round_f64_many(total, fmt)
        double_rounding_risk = error != 0
    if double_rounding_risk.any():
        lanes = np.nonzero(double_rounding_risk)
        xb = f64_to_bits_many(np.broadcast_to(x64, total.shape)[lanes], fmt)
        wb = f64_to_bits_many(np.broadcast_to(w64, total.shape)[lanes], fmt)
        cb = f64_to_bits_many(np.broadcast_to(acc64, total.shape)[lanes], fmt)
        exact = fma_many_fmt(xb, wb, cb, fmt)
        rounded[lanes] = bits_to_f64_many(exact, fmt)
    return rounded
