"""Bit-accurate IEEE-style floating-point arithmetic substrate.

RedMulE's datapath is built from FPnew-derived FP16 fused multiply-add (FMA)
units; its follow-ons run the same array on BF16 and FP8 operands.  This
package provides the numerical foundation used by the cycle-accurate model:

* :mod:`repro.fp.formats` -- the parameterised :class:`BinaryFormat`
  (FP16, BF16, FP8-E4M3, FP8-E5M2) with the bit-exact scalar kernels
  (``fma_bits``, the mixed-precision ``fma_mixed``, ...), the oracle every
  other implementation is checked against.
* :mod:`repro.fp.simd_formats` -- vectorised bit-exact kernels over pattern
  arrays for every format, plus the float64 codec and guarded FMA used by
  the array-oriented simulator backends (binary16 runs natively there).
* :mod:`repro.fp.float16` / :mod:`repro.fp.fma` -- the binary16 vocabulary
  (encoding, classification, ``fma16`` and friends) as thin shims over
  :data:`FP16`.
* :mod:`repro.fp.rounding` -- the rounding modes supported by FPnew-style FPUs
  and the shared round-and-increment helper.
* :mod:`repro.fp.flags` -- IEEE exception flags raised by an operation.
* :mod:`repro.fp.vector` -- helpers to move matrices between numpy arrays and
  bit patterns / byte images.
"""

from repro.fp.flags import ExceptionFlags
from repro.fp.float16 import (
    BIAS,
    EXP_BITS,
    MAN_BITS,
    MAX_FINITE_BITS,
    NAN_BITS,
    NEG_INF_BITS,
    POS_INF_BITS,
    Float16,
    FloatClass,
    bits_to_float,
    classify,
    float_to_bits,
    is_finite,
    is_inf,
    is_nan,
    is_subnormal,
    is_zero,
)
from repro.fp.fma import add16, fma16, mul16, neg16
from repro.fp.formats import (
    BF16,
    FORMAT_NAMES,
    FORMATS,
    FP8_E4M3,
    FP8_E5M2,
    FP16,
    BinaryFormat,
    add_bits,
    fma_bits,
    fma_mixed,
    get_format,
    mul_bits,
    neg_bits,
    sub_bits,
)
from repro.fp.rounding import RoundingMode
from repro.fp.simd_formats import (
    add_many_fmt,
    bits_to_f64_many,
    f64_to_bits_many,
    fma_guarded_f64_fmt,
    fma_many_fmt,
    fma_mixed_many,
    mul_many_fmt,
    neg_many_fmt,
    pack_many_fmt,
)
from repro.fp.vector import (
    matrix_from_bits,
    matrix_from_bits_fmt,
    matrix_to_bits,
    matrix_to_bits_fmt,
    pack_fp16_matrix,
    pack_matrix,
    quantize,
    quantize_fp16,
    random_fp16_matrix,
    random_matrix,
    unpack_fp16_matrix,
    unpack_matrix,
)

__all__ = [
    "BF16",
    "BIAS",
    "BinaryFormat",
    "FORMATS",
    "FORMAT_NAMES",
    "FP16",
    "FP8_E4M3",
    "FP8_E5M2",
    "add_bits",
    "add_many_fmt",
    "bits_to_f64_many",
    "f64_to_bits_many",
    "fma_bits",
    "fma_guarded_f64_fmt",
    "fma_many_fmt",
    "fma_mixed",
    "fma_mixed_many",
    "get_format",
    "matrix_from_bits_fmt",
    "matrix_to_bits_fmt",
    "mul_bits",
    "mul_many_fmt",
    "neg_bits",
    "neg_many_fmt",
    "pack_many_fmt",
    "pack_matrix",
    "quantize",
    "random_matrix",
    "sub_bits",
    "unpack_matrix",
    "EXP_BITS",
    "MAN_BITS",
    "MAX_FINITE_BITS",
    "NAN_BITS",
    "NEG_INF_BITS",
    "POS_INF_BITS",
    "ExceptionFlags",
    "Float16",
    "FloatClass",
    "RoundingMode",
    "add16",
    "bits_to_float",
    "classify",
    "float_to_bits",
    "fma16",
    "is_finite",
    "is_inf",
    "is_nan",
    "is_subnormal",
    "is_zero",
    "matrix_from_bits",
    "matrix_to_bits",
    "mul16",
    "neg16",
    "pack_fp16_matrix",
    "quantize_fp16",
    "random_fp16_matrix",
    "unpack_fp16_matrix",
]
