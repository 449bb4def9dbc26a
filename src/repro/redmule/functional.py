"""Golden functional models of the RedMulE computation.

RedMulE accumulates every output element ``Z[r, k]`` by walking the inner
dimension ``n`` strictly in increasing order, one fused multiply-add at a
time (chunks of ``H`` columns, then feedback -- see Fig. 2).  Because each
step is a single-rounded FMA in the element format, the result differs in
general from a float32 matmul rounded at the end; these golden models
reproduce the exact hardware result so the cycle-accurate engine can be
verified bit-by-bit.

Two implementations are provided:

* :func:`matmul_hw_order_exact_fmt` -- scalar, bit-exact for any element
  format (integers all the way); the oracle for correctness, used on small
  matrices.
* :func:`matmul_hw_order_simd_fmt` -- vectorised *and* bit-exact: each FMA
  step is evaluated over the whole output matrix by the exact float64 chain
  kernel (:func:`repro.fp.simd_formats.fma_chain_f64_fmt`), the one the
  engine's ``exact-simd`` backend runs, so it matches the scalar oracle bit
  for bit at array speed.  The reference for workload-level checks, and the
  arithmetic of the numeric :class:`~repro.workloads.autoencoder.AutoEncoder`.

plus :func:`matmul_reference_fp32`, a float32 reference used to bound the
numerical error of FP16 accumulation in the accuracy examples.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.fp.formats import BinaryFormat, fma_bits
from repro.fp.simd_formats import fma_chain_f64_fmt


def matmul_hw_order_exact_fmt(
    x_bits: Sequence[Sequence[int]],
    w_bits: Sequence[Sequence[int]],
    fmt: BinaryFormat,
    acc_bits: Optional[Sequence[Sequence[int]]] = None,
) -> List[List[int]]:
    """Bit-exact ``Z = acc + X . W`` with the hardware's FMA accumulation order.

    Operands are matrices of ``fmt`` patterns (``x_bits`` is ``M x N``,
    ``w_bits`` is ``N x K``) and every accumulation step is one
    single-rounded ``fmt`` FMA in the hardware's strictly-increasing inner
    order.  ``acc_bits`` (``M x K``) is the initial accumulator used by
    accumulation jobs (``Z += X . W``); it defaults to positive zeros.  The
    accumulation order per output element is independent of the packed-lane
    layout (lanes pack along K, each output element still walks ``n`` in
    order), so this is the oracle for every precision.
    """
    m = len(x_bits)
    n = len(w_bits)
    if m == 0 or n == 0:
        raise ValueError("empty operands")
    if any(len(row) != n for row in x_bits):
        raise ValueError("X has inconsistent row lengths or wrong inner dimension")
    k = len(w_bits[0])
    if any(len(row) != k for row in w_bits):
        raise ValueError("W has inconsistent row lengths")
    if acc_bits is not None and (
        len(acc_bits) != m or any(len(row) != k for row in acc_bits)
    ):
        raise ValueError("accumulator matrix must be M x K")

    result: List[List[int]] = []
    for r in range(m):
        x_row = x_bits[r]
        out_row: List[int] = []
        for c in range(k):
            acc = int(acc_bits[r][c]) if acc_bits is not None else 0
            for i in range(n):
                acc = fma_bits(int(x_row[i]), int(w_bits[i][c]), acc, fmt)
            out_row.append(acc)
        result.append(out_row)
    return result


def matmul_hw_order_simd_fmt(x: np.ndarray, w: np.ndarray, fmt: BinaryFormat,
                             acc: Optional[np.ndarray] = None) -> np.ndarray:
    """Vectorised, bit-exact hardware-order matmul for any element format.

    ``x`` and ``w`` must contain ``fmt``-representable values (use
    :func:`repro.fp.vector.quantize`); the ``N`` accumulation steps run as
    one exact chain (:func:`repro.fp.simd_formats.fma_chain_f64_fmt`) over
    the whole ``M x K`` output, bit-identical to
    :func:`matmul_hw_order_exact_fmt` at numpy speed.  Returns float64
    holding exact ``fmt`` values.
    """
    x64 = np.asarray(x, dtype=np.float64)
    w64 = np.asarray(w, dtype=np.float64)
    if x64.ndim != 2 or w64.ndim != 2:
        raise ValueError("operands must be 2-D")
    if x64.shape[1] != w64.shape[0]:
        raise ValueError(
            f"inner dimensions disagree: {x64.shape} . {w64.shape}"
        )
    m, k = x64.shape[0], w64.shape[1]
    if acc is None:
        acc64 = np.zeros((m, k), dtype=np.float64)
    else:
        acc64 = np.asarray(acc, dtype=np.float64)
        if acc64.shape != (m, k):
            raise ValueError(f"accumulator must be {m}x{k}, got {acc64.shape}")
    return fma_chain_f64_fmt(x64, w64, acc64, fmt)


def matmul_reference_fp32(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Plain float32 matrix multiplication (accuracy yard-stick)."""
    return (np.asarray(x, dtype=np.float32) @ np.asarray(w, dtype=np.float32))
