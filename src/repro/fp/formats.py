"""Parameterised IEEE-style binary floating-point formats.

Every format is an IEEE-style binary format described by three numbers --
exponent width, mantissa width and storage width.  :class:`BinaryFormat`
captures that description together with every derived constant (bias,
masks, canonical special patterns) and the bit-exact scalar algorithms
(classification, decompose, round-and-pack, conversion); the binary16 of
the paper is its :data:`FP16` instance.

Four formats are registered, mirroring the precisions an FPnew-derived
datapath offers (the RedMulE follow-on direction is reduced-precision FP8
operands with wider accumulation):

* ``fp16``     -- IEEE binary16 (1/5/10), the paper's baseline;
* ``bf16``     -- bfloat16 (1/8/7), binary32's exponent range at half width;
* ``fp8-e4m3`` -- 8-bit 1/4/3 (FPnew's ``fp8alt``), more precision;
* ``fp8-e5m2`` -- 8-bit 1/5/2 (FPnew's ``fp8``), more range.

All formats follow uniform IEEE semantics -- exponent-all-ones encodes
infinities (mantissa 0) and NaNs (mantissa non-zero), gradual underflow via
subnormals -- which is the FPnew convention this model reproduces (the OCP
variant of E4M3 that trades the infinities for one extra binade is *not*
modelled).

Besides the per-format scalar kernels, this module provides the
*mixed-precision* fused multiply-add :func:`fma_mixed`: multiply in a narrow
operand format, accumulate (and round once) in a wider format, which is how
an FP8 datapath keeps long dot products from drowning in rounding error.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple, Union

from repro.fp.flags import ExceptionFlags
from repro.fp.rounding import RoundingMode, overflow_result, round_shifted


class FloatClass(enum.Enum):
    """Classification of a floating-point pattern (mirrors RISC-V ``fclass``)."""

    NAN = "nan"
    POS_INF = "+inf"
    NEG_INF = "-inf"
    POS_NORMAL = "+normal"
    NEG_NORMAL = "-normal"
    POS_SUBNORMAL = "+subnormal"
    NEG_SUBNORMAL = "-subnormal"
    POS_ZERO = "+zero"
    NEG_ZERO = "-zero"


@dataclass(frozen=True)
class BinaryFormat:
    """An IEEE-style binary floating-point format and its bit-exact algorithms.

    Attributes
    ----------
    name:
        Registry name (``"fp16"``, ``"bf16"``, ``"fp8-e4m3"``, ``"fp8-e5m2"``).
    exp_bits, man_bits:
        Width of the exponent field and of the explicitly stored mantissa.
    storage_bits:
        Total storage width (``1 + exp_bits + man_bits`` for the packed
        formats modelled here).
    """

    name: str
    exp_bits: int
    man_bits: int
    storage_bits: int

    def __post_init__(self) -> None:
        if self.exp_bits < 2 or self.man_bits < 1:
            raise ValueError("a format needs >= 2 exponent and >= 1 mantissa bits")
        if self.storage_bits != 1 + self.exp_bits + self.man_bits:
            raise ValueError(
                f"{self.name}: storage_bits must equal 1 + exp_bits + man_bits"
            )

    # -- derived constants ---------------------------------------------------
    @cached_property
    def bias(self) -> int:
        """Exponent bias (``2**(exp_bits - 1) - 1``)."""
        return (1 << (self.exp_bits - 1)) - 1

    @cached_property
    def emin(self) -> int:
        """Exponent of the minimum normal number."""
        return 1 - self.bias

    @cached_property
    def emax(self) -> int:
        """Exponent of the maximum normal number."""
        return (1 << self.exp_bits) - 2 - self.bias

    @cached_property
    def implicit_one(self) -> int:
        """Hidden-bit weight of the normalised significand."""
        return 1 << self.man_bits

    @cached_property
    def subnormal_exp(self) -> int:
        """Unbiased exponent scale of the least significant subnormal bit."""
        return self.emin - self.man_bits

    @cached_property
    def exp_field_mask(self) -> int:
        """All-ones exponent field value."""
        return (1 << self.exp_bits) - 1

    @cached_property
    def sign_mask(self) -> int:
        """Sign-bit mask."""
        return 1 << (self.storage_bits - 1)

    @cached_property
    def abs_mask(self) -> int:
        """Magnitude mask (everything but the sign bit)."""
        return self.sign_mask - 1

    @cached_property
    def exp_mask(self) -> int:
        """In-place exponent-field mask."""
        return self.exp_field_mask << self.man_bits

    @cached_property
    def man_mask(self) -> int:
        """Mantissa-field mask."""
        return self.implicit_one - 1

    @cached_property
    def full_mask(self) -> int:
        """All storage bits."""
        return (1 << self.storage_bits) - 1

    @cached_property
    def nan_bits(self) -> int:
        """Canonical quiet NaN produced by FPnew-style units."""
        return self.exp_mask | (1 << (self.man_bits - 1))

    @cached_property
    def pos_inf_bits(self) -> int:
        """Positive infinity."""
        return self.exp_mask

    @cached_property
    def neg_inf_bits(self) -> int:
        """Negative infinity."""
        return self.sign_mask | self.exp_mask

    @cached_property
    def max_finite_bits(self) -> int:
        """Largest positive finite pattern."""
        return self.exp_mask - 1

    @cached_property
    def one_bits(self) -> int:
        """The pattern of 1.0."""
        return self.bias << self.man_bits

    @cached_property
    def storage_bytes(self) -> int:
        """Bytes one element occupies in memory."""
        if self.storage_bits % 8:
            raise ValueError(f"{self.name}: storage width is not byte-aligned")
        return self.storage_bits // 8

    @cached_property
    def max_finite_value(self) -> float:
        """Largest finite magnitude as a Python float."""
        return self.bits_to_float(self.max_finite_bits)

    # -- field extraction ----------------------------------------------------
    def check_bits(self, bits: int) -> int:
        """Validate a pattern's type and range; returns it unchanged."""
        if not isinstance(bits, int):
            raise TypeError(
                f"{self.name} pattern must be an int, got {type(bits).__name__}"
            )
        if bits < 0 or bits > self.full_mask:
            raise ValueError(f"{self.name} pattern out of range: {bits:#x}")
        return bits

    def sign_of(self, bits: int) -> int:
        """Sign bit (0 or 1) of a pattern."""
        return (self.check_bits(bits) >> (self.storage_bits - 1)) & 0x1

    def exponent_field(self, bits: int) -> int:
        """Raw exponent field of a pattern."""
        return (self.check_bits(bits) >> self.man_bits) & self.exp_field_mask

    def mantissa_field(self, bits: int) -> int:
        """Raw mantissa field of a pattern."""
        return self.check_bits(bits) & self.man_mask

    # -- classification ------------------------------------------------------
    def is_nan(self, bits: int) -> bool:
        """True if the pattern encodes a NaN."""
        return (self.check_bits(bits) & self.abs_mask) > self.exp_mask

    def is_inf(self, bits: int) -> bool:
        """True if the pattern encodes +-inf."""
        return (self.check_bits(bits) & self.abs_mask) == self.exp_mask

    def is_zero(self, bits: int) -> bool:
        """True if the pattern encodes +-0."""
        return (self.check_bits(bits) & self.abs_mask) == 0

    def is_subnormal(self, bits: int) -> bool:
        """True if the pattern encodes a non-zero subnormal."""
        magnitude = self.check_bits(bits) & self.abs_mask
        return 0 < magnitude < self.implicit_one

    def is_finite(self, bits: int) -> bool:
        """True if the pattern encodes a finite value (zero included)."""
        return (self.check_bits(bits) & self.abs_mask) < self.exp_mask

    def classify(self, bits: int) -> FloatClass:
        """Classify a pattern."""
        sign = self.sign_of(bits)
        if self.is_nan(bits):
            return FloatClass.NAN
        if self.is_inf(bits):
            return FloatClass.NEG_INF if sign else FloatClass.POS_INF
        if self.is_zero(bits):
            return FloatClass.NEG_ZERO if sign else FloatClass.POS_ZERO
        if self.is_subnormal(bits):
            return FloatClass.NEG_SUBNORMAL if sign else FloatClass.POS_SUBNORMAL
        return FloatClass.NEG_NORMAL if sign else FloatClass.POS_NORMAL

    # -- decompose / pack ----------------------------------------------------
    def decompose(self, bits: int) -> Tuple[int, int, int]:
        """``(sign, significand, exponent)`` of a finite, non-zero pattern.

        The value equals ``(-1)**sign * significand * 2**exponent`` with an
        integer significand; normals include the hidden one.
        """
        if not self.is_finite(bits) or self.is_zero(bits):
            raise ValueError("decompose requires a finite, non-zero pattern")
        sign = self.sign_of(bits)
        exp_field = self.exponent_field(bits)
        man = self.mantissa_field(bits)
        if exp_field == 0:
            return sign, man, self.subnormal_exp
        return sign, man | self.implicit_one, exp_field - self.bias - self.man_bits

    def pack(self, sign: int, magnitude: int, exponent: int,
             mode: RoundingMode = RoundingMode.RNE, flags=None) -> int:
        """Round and pack ``(-1)**sign * magnitude * 2**exponent``.

        The shared normalise/round/encode step of every arithmetic operation;
        ``magnitude`` must be a strictly positive integer.  Overflow /
        underflow / inexact flags are raised on ``flags`` when given.
        """
        if magnitude <= 0:
            raise ValueError("pack requires a strictly positive magnitude")
        negative = bool(sign)
        length = magnitude.bit_length()
        unbiased = exponent + length - 1
        man_bits = self.man_bits
        implicit = self.implicit_one

        inexact = False
        if unbiased >= self.emin:
            # Normal-range candidate: keep man_bits + 1 significand bits.
            rshift = length - (man_bits + 1)
            sig, inexact = round_shifted(magnitude, rshift, mode, negative)
            if sig == (implicit << 1):
                sig >>= 1
                unbiased += 1
            if unbiased > self.emax:
                if flags is not None:
                    flags.overflow = True
                    flags.inexact = True
                if overflow_result(mode, negative) == "inf":
                    return self.neg_inf_bits if negative else self.pos_inf_bits
                return self.max_finite_bits | (self.sign_mask if negative else 0)
            bits = (
                ((sign & 1) << (self.storage_bits - 1))
                | ((unbiased + self.bias) << man_bits)
                | (sig - implicit)
            )
        else:
            # Subnormal range: multiples of 2**subnormal_exp.
            rshift = self.subnormal_exp - exponent
            sig, inexact = round_shifted(magnitude, rshift, mode, negative)
            if sig >= implicit:
                # Rounded up into the smallest normal number.
                bits = (
                    ((sign & 1) << (self.storage_bits - 1))
                    | (1 << man_bits)
                    | (sig - implicit)
                )
            else:
                bits = ((sign & 1) << (self.storage_bits - 1)) | sig
                if flags is not None and inexact:
                    flags.underflow = True
        if flags is not None and inexact:
            flags.inexact = True
        return bits

    # -- conversion ----------------------------------------------------------
    def float_to_bits(self, value: float,
                      mode: RoundingMode = RoundingMode.RNE, flags=None) -> int:
        """Convert a Python float (binary64) to a pattern with one rounding."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"expected a real number, got {type(value).__name__}")
        value = float(value)
        if math.isnan(value):
            return self.nan_bits
        if math.isinf(value):
            return self.neg_inf_bits if value < 0 else self.pos_inf_bits
        if value == 0.0:
            return self.sign_mask if math.copysign(1.0, value) < 0 else 0

        sign = 1 if value < 0 or math.copysign(1.0, value) < 0 else 0
        # Exact integer decomposition of the binary64 value.
        (raw,) = struct.unpack("<Q", struct.pack("<d", abs(value)))
        exp_field = (raw >> 52) & 0x7FF
        man_field = raw & ((1 << 52) - 1)
        if exp_field == 0:
            magnitude = man_field
            exponent = -1074
        else:
            magnitude = man_field | (1 << 52)
            exponent = exp_field - 1023 - 52
        return self.pack(sign, magnitude, exponent, mode, flags)

    def bits_to_float(self, bits: int) -> float:
        """Convert a pattern to the exact Python float it represents."""
        self.check_bits(bits)
        if self.is_nan(bits):
            return math.nan
        sign = -1.0 if self.sign_of(bits) else 1.0
        if self.is_inf(bits):
            return sign * math.inf
        if self.is_zero(bits):
            return sign * 0.0
        _, sig, exp = self.decompose(bits)
        return sign * math.ldexp(float(sig), exp)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: 1/{self.exp_bits}/{self.man_bits} "
            f"({self.storage_bits} bits, bias {self.bias}, "
            f"max {self.max_finite_value})"
        )


def _zero_bits(fmt: BinaryFormat, sign: int) -> int:
    return fmt.sign_mask if sign else 0


def _inf_bits(fmt: BinaryFormat, sign: int) -> int:
    return fmt.neg_inf_bits if sign else fmt.pos_inf_bits


def fma_mixed(
    a: int,
    b: int,
    c: int,
    op_fmt: BinaryFormat,
    acc_fmt: Optional[BinaryFormat] = None,
    mode: RoundingMode = RoundingMode.RNE,
    flags: Optional[ExceptionFlags] = None,
) -> int:
    """Compute ``a * b + c`` with one rounding, mixing operand formats.

    ``a`` and ``b`` are patterns of ``op_fmt``; ``c`` and the result are
    patterns of ``acc_fmt`` (which defaults to ``op_fmt``, giving the plain
    same-format FMA).  The product is formed exactly and added exactly to the
    accumulator before the single rounding into ``acc_fmt`` -- the
    mixed-precision accumulate of the RedMulE FP8 follow-on (e.g. FP8
    multiplies feeding an FP16 accumulator).  NaN results are canonicalised
    like FPnew does.
    """
    if acc_fmt is None:
        acc_fmt = op_fmt
    # --- NaN propagation --------------------------------------------------
    if op_fmt.is_nan(a) or op_fmt.is_nan(b) or acc_fmt.is_nan(c):
        return acc_fmt.nan_bits

    sign_a, sign_b, sign_c = op_fmt.sign_of(a), op_fmt.sign_of(b), acc_fmt.sign_of(c)
    product_sign = sign_a ^ sign_b

    # --- invalid operations -----------------------------------------------
    if (op_fmt.is_inf(a) and op_fmt.is_zero(b)) or (
        op_fmt.is_zero(a) and op_fmt.is_inf(b)
    ):
        if flags is not None:
            flags.invalid = True
        return acc_fmt.nan_bits

    product_inf = op_fmt.is_inf(a) or op_fmt.is_inf(b)
    if product_inf:
        if acc_fmt.is_inf(c) and sign_c != product_sign:
            if flags is not None:
                flags.invalid = True
            return acc_fmt.nan_bits
        return _inf_bits(acc_fmt, product_sign)
    if acc_fmt.is_inf(c):
        return c

    # --- zero handling ------------------------------------------------------
    product_zero = op_fmt.is_zero(a) or op_fmt.is_zero(b)
    if product_zero and acc_fmt.is_zero(c):
        if product_sign == sign_c:
            return _zero_bits(acc_fmt, product_sign)
        return _zero_bits(acc_fmt, 1 if mode is RoundingMode.RDN else 0)
    if product_zero:
        # Exact: the addend passes through unchanged.
        return c

    # --- exact product ------------------------------------------------------
    _, sig_a, exp_a = op_fmt.decompose(a)
    _, sig_b, exp_b = op_fmt.decompose(b)
    product_sig = sig_a * sig_b
    product_exp = exp_a + exp_b

    if acc_fmt.is_zero(c):
        return acc_fmt.pack(product_sign, product_sig, product_exp, mode, flags)

    _, sig_c, exp_c = acc_fmt.decompose(c)

    # --- exact aligned addition ---------------------------------------------
    common_exp = min(product_exp, exp_c)
    product_val = product_sig << (product_exp - common_exp)
    addend_val = sig_c << (exp_c - common_exp)

    signed_sum = (-product_val if product_sign else product_val) + (
        -addend_val if sign_c else addend_val
    )
    if signed_sum == 0:
        # Exact cancellation: IEEE mandates +0 except under round-down.
        return _zero_bits(acc_fmt, 1 if mode is RoundingMode.RDN else 0)

    result_sign = 1 if signed_sum < 0 else 0
    return acc_fmt.pack(result_sign, abs(signed_sum), common_exp, mode, flags)


def fma_bits(
    a: int,
    b: int,
    c: int,
    fmt: BinaryFormat,
    mode: RoundingMode = RoundingMode.RNE,
    flags: Optional[ExceptionFlags] = None,
) -> int:
    """Single-format fused multiply-add ``a * b + c`` with one rounding."""
    return fma_mixed(a, b, c, fmt, fmt, mode, flags)


def mul_bits(
    a: int,
    b: int,
    fmt: BinaryFormat,
    mode: RoundingMode = RoundingMode.RNE,
    flags: Optional[ExceptionFlags] = None,
) -> int:
    """Compute ``a * b`` in ``fmt``."""
    if fmt.is_nan(a) or fmt.is_nan(b):
        return fmt.nan_bits
    sign = fmt.sign_of(a) ^ fmt.sign_of(b)
    if (fmt.is_inf(a) and fmt.is_zero(b)) or (fmt.is_zero(a) and fmt.is_inf(b)):
        if flags is not None:
            flags.invalid = True
        return fmt.nan_bits
    if fmt.is_inf(a) or fmt.is_inf(b):
        return _inf_bits(fmt, sign)
    if fmt.is_zero(a) or fmt.is_zero(b):
        return _zero_bits(fmt, sign)
    _, sig_a, exp_a = fmt.decompose(a)
    _, sig_b, exp_b = fmt.decompose(b)
    return fmt.pack(sign, sig_a * sig_b, exp_a + exp_b, mode, flags)


def add_bits(
    a: int,
    b: int,
    fmt: BinaryFormat,
    mode: RoundingMode = RoundingMode.RNE,
    flags: Optional[ExceptionFlags] = None,
) -> int:
    """Compute ``a + b`` in ``fmt`` (via the exact FMA, ``a * 1 + b``)."""
    return fma_bits(a, fmt.one_bits, b, fmt, mode, flags)


def sub_bits(
    a: int,
    b: int,
    fmt: BinaryFormat,
    mode: RoundingMode = RoundingMode.RNE,
    flags: Optional[ExceptionFlags] = None,
) -> int:
    """Compute ``a - b`` in ``fmt``."""
    return fma_bits(a, fmt.one_bits, neg_bits(b, fmt), fmt, mode, flags)


def neg_bits(a: int, fmt: BinaryFormat) -> int:
    """Negate a pattern (sign-bit flip; NaNs pass through)."""
    if fmt.is_nan(a):
        return a
    return a ^ fmt.sign_mask


#: IEEE binary16 (the paper's baseline precision).
FP16 = BinaryFormat(name="fp16", exp_bits=5, man_bits=10, storage_bits=16)
#: bfloat16: binary32 exponent range at half the storage.
BF16 = BinaryFormat(name="bf16", exp_bits=8, man_bits=7, storage_bits=16)
#: 8-bit 1/4/3 (FPnew ``fp8alt``): precision-leaning FP8.
FP8_E4M3 = BinaryFormat(name="fp8-e4m3", exp_bits=4, man_bits=3, storage_bits=8)
#: 8-bit 1/5/2 (FPnew ``fp8``): range-leaning FP8.
FP8_E5M2 = BinaryFormat(name="fp8-e5m2", exp_bits=5, man_bits=2, storage_bits=8)

#: Registry of supported formats, keyed by name (CLI / config vocabulary).
FORMATS: Dict[str, BinaryFormat] = {
    fmt.name: fmt for fmt in (FP16, BF16, FP8_E4M3, FP8_E5M2)
}

#: Valid format names, FP16 (the default) first.
FORMAT_NAMES = tuple(FORMATS)


def get_format(fmt: Union[str, BinaryFormat]) -> BinaryFormat:
    """Resolve a format name (or pass a :class:`BinaryFormat` through)."""
    if isinstance(fmt, BinaryFormat):
        return fmt
    try:
        return FORMATS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown element format {fmt!r}; available: "
            f"{', '.join(FORMAT_NAMES)}"
        ) from None
