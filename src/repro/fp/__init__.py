"""Bit-accurate IEEE-style floating-point arithmetic substrate.

RedMulE's datapath is built from FPnew-derived FP16 fused multiply-add (FMA)
units; its follow-ons run the same array on BF16 and FP8 operands.  This
package provides the numerical foundation used by the cycle-accurate model.
Every operation rounds to nearest, ties to even, as those units do.

* :mod:`repro.fp.formats` -- the parameterised :class:`BinaryFormat`
  (FP16, BF16, FP8-E4M3, FP8-E5M2) with the bit-exact scalar kernels
  (``fma_bits``, the mixed-precision ``fma_mixed``, round-and-pack and the
  float conversion), the oracle every other implementation is checked
  against.
* :mod:`repro.fp.simd_formats` -- vectorised bit-exact kernels over pattern
  arrays for every format, plus the float64 codec and guarded FMA used by
  the array-oriented simulator backends (binary16 runs natively there).
* :mod:`repro.fp.vector` -- helpers to round numpy matrices to a format and
  move them to and from byte images.
"""

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
from repro.fp.simd_formats import (
    bits_to_f64_many,
    f64_to_bits_many,
    fma_chain_f64_fmt,
    fma_guarded_f64_fmt,
    fma_many_fmt,
    fma_mixed_many,
)
from repro.fp.vector import (
    pack_matrix,
    quantize,
    random_matrix,
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
    "bits_to_f64_many",
    "f64_to_bits_many",
    "fma_bits",
    "fma_chain_f64_fmt",
    "fma_guarded_f64_fmt",
    "fma_many_fmt",
    "fma_mixed",
    "fma_mixed_many",
    "get_format",
    "pack_matrix",
    "quantize",
    "random_matrix",
    "unpack_matrix",
]
