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
* :mod:`repro.fp.rounding` -- the rounding modes supported by FPnew-style FPUs
  and the shared round-and-increment helper.
* :mod:`repro.fp.flags` -- IEEE exception flags raised by an operation.
* :mod:`repro.fp.vector` -- helpers to move matrices between numpy arrays and
  bit patterns / byte images.
"""

from repro.fp.flags import ExceptionFlags
from repro.fp.formats import (
    BF16,
    FORMAT_NAMES,
    FORMATS,
    FP8_E4M3,
    FP8_E5M2,
    FP16,
    BinaryFormat,
    FloatClass,
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
    fma_chain_f64_fmt,
    fma_guarded_f64_fmt,
    fma_many_fmt,
    fma_mixed_many,
    mul_many_fmt,
    neg_many_fmt,
    pack_many_fmt,
)
from repro.fp.vector import (
    matrix_from_bits,
    matrix_to_bits,
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
    "fma_chain_f64_fmt",
    "fma_guarded_f64_fmt",
    "fma_many_fmt",
    "fma_mixed",
    "fma_mixed_many",
    "get_format",
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
    "ExceptionFlags",
    "FloatClass",
    "RoundingMode",
    "matrix_from_bits",
    "matrix_to_bits",
    "pack_fp16_matrix",
    "quantize_fp16",
    "random_fp16_matrix",
    "unpack_fp16_matrix",
]
