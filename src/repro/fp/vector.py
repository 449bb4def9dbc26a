"""Matrix helpers over any :class:`~repro.fp.formats.BinaryFormat`.

RedMulE reads and writes matrices stored row-major in the TCDM as packed
little-endian elements (16-bit for FP16/BF16, 8-bit for the FP8 formats).
These helpers round numpy arrays (the convenient representation for
workloads and golden models) to a format and convert them to and from the
raw byte images the memory model stores.  Values come back as ``float64``;
pattern arrays are :func:`~repro.fp.simd_formats.f64_to_bits_many` and
:func:`~repro.fp.simd_formats.bits_to_f64_many` away.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.fp.formats import FP16, BinaryFormat, get_format
from repro.fp.simd_formats import bits_to_f64_many, f64_to_bits_many

FormatLike = Union[str, BinaryFormat]


def quantize(matrix: np.ndarray, fmt: FormatLike = FP16) -> np.ndarray:
    """Round an arbitrary float array to ``fmt`` and return it as float64.

    The returned array contains values exactly representable in the format,
    which makes it a convenient "already quantised" operand for both the
    hardware model and numpy-based golden references.
    """
    fmt = get_format(fmt)
    values = np.asarray(matrix, dtype=np.float64)
    return bits_to_f64_many(f64_to_bits_many(values, fmt), fmt)


def pack_matrix(matrix: np.ndarray, fmt: FormatLike) -> bytes:
    """Pack a 2-D array row-major into little-endian ``fmt`` element bytes."""
    fmt = get_format(fmt)
    array = np.asarray(matrix, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {array.shape}")
    bits = f64_to_bits_many(array, fmt)
    if fmt.storage_bytes == 2:
        bits = bits.astype("<u2")
    return bits.tobytes(order="C")


def unpack_matrix(data: bytes, rows: int, cols: int,
                  fmt: FormatLike) -> np.ndarray:
    """Unpack little-endian ``fmt`` bytes into a ``rows x cols`` float64 array."""
    fmt = get_format(fmt)
    expected = rows * cols * fmt.storage_bytes
    if len(data) < expected:
        raise ValueError(
            f"byte image too small: need {expected} bytes, got {len(data)}"
        )
    dtype = "<u2" if fmt.storage_bytes == 2 else np.uint8
    flat = np.frombuffer(data[:expected], dtype=dtype)
    return bits_to_f64_many(flat, fmt).reshape(rows, cols)


def random_matrix(
    rows: int,
    cols: int,
    fmt: FormatLike = FP16,
    scale: float = 1.0,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Generate a random matrix of ``fmt``-representable values (float64).

    Values are drawn from a normal distribution scaled by ``scale`` and
    rounded to the format, so accumulating realistic layer sizes stays within
    the format's range.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    raw = rng.standard_normal((rows, cols)) * scale
    return quantize(raw, fmt)
