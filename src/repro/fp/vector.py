"""Matrix <-> floating-point pattern conversion helpers.

RedMulE reads and writes matrices stored row-major in the TCDM as packed
little-endian elements (16-bit for FP16/BF16, 8-bit for the FP8 formats).
These helpers convert between numpy arrays (the convenient representation
for workloads and golden models), 2-D lists of bit patterns (what the
cycle-accurate model consumes) and raw byte images (what the memory model
stores).  The ``*_fp16`` names keep the established binary16 vocabulary; the
format-generic functions take any :class:`~repro.fp.formats.BinaryFormat`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

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


def quantize_fp16(matrix: np.ndarray) -> np.ndarray:
    """Round an arbitrary float array to binary16 and return it as float32."""
    return np.asarray(matrix, dtype=np.float64).astype(np.float16).astype(np.float32)


def matrix_to_bits(matrix: np.ndarray) -> List[List[int]]:
    """Convert a 2-D array to a list-of-lists of 16-bit FP16 patterns."""
    array = np.asarray(matrix)
    if array.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {array.shape}")
    as_u16 = array.astype(np.float16).view(np.uint16)
    return [[int(v) for v in row] for row in as_u16]


def matrix_from_bits(bits: Sequence[Sequence[int]]) -> np.ndarray:
    """Convert a list-of-lists of 16-bit patterns to a float32 numpy array."""
    rows = len(bits)
    cols = len(bits[0]) if rows else 0
    out = np.empty((rows, cols), dtype=np.uint16)
    for i, row in enumerate(bits):
        if len(row) != cols:
            raise ValueError("ragged bit matrix")
        out[i, :] = row
    return out.view(np.float16).astype(np.float32)


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


def random_fp16_matrix(
    rows: int,
    cols: int,
    scale: float = 1.0,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Generate a random matrix of binary16-representable values.

    Values are drawn from a normal distribution scaled by ``scale`` (chosen so
    FP16 accumulation of realistic layer sizes does not overflow) and rounded
    to binary16.  The result is returned as float32 holding exact FP16 values.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    raw = rng.standard_normal((rows, cols)) * scale
    return quantize_fp16(raw)
