"""Per-tile arithmetic strategies for the datapath simulator.

All ``L`` rows of the RedMulE array execute the same schedule on different
data, and no value is observed before a tile's Z lines leave the array.  The
event-stepped engine therefore tracks only the schedule -- issue tags and
timing -- and evaluates the arithmetic once per tile: when a tile drains, it
hands the operands the streamer loaded (X columns, W lines and the Y
pre-load, in issue order) together with the gated-lane mask to its
strategy's :meth:`VectorOps.chain` kernel, which returns the tile's Z lines.
Trace replay (:mod:`repro.redmule.trace`) calls the same kernel on a batch
of tiles, so each backend has exactly one data-plane implementation:

* :class:`ExactVectorOps` -- one scalar bit-exact
  :func:`repro.fp.formats.fma_bits` per element and step.  Slow; the
  ground-truth oracle.
* :class:`ExactSimdVectorOps` -- bit-identical to :class:`ExactVectorOps`:
  the exact float64 chain kernel
  (:func:`repro.fp.simd_formats.fma_chain_f64_fmt`) over all rows, columns
  and tiles at once.  Chains whose sums are proven exact from operand
  magnitudes run unguarded; the others recompute every lane where float64
  evaluation could double-round through the integer kernels.
* :class:`FastVectorOps` -- each step is evaluated in ``float64`` and
  rounded once to the element format, without the proof.  Matches the
  oracle except for double-rounding corner cases.
* :class:`TraceVectorOps` -- :class:`ExactSimdVectorOps` plus trace
  compilation: the engine records each tile signature's cycle schedule once
  and replays later tiles through the same chain kernel.

The chain walks the inner dimension in increasing order, which is the order
the engine's chunk x column schedule issues it (chunk ``c``, column ``h``
consumes inner index ``c * H + h``), so evaluating a whole tile at its end
produces exactly the bits per-issue evaluation would.  For the 8-bit formats
each 16-bit datapath slot packs two elements along the output (K)
dimension; every output element still walks the inner dimension in order,
so the kernels work on elements and never see the slot packing.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Union

import numpy as np

from repro.fp.formats import FP16, BinaryFormat, fma_bits, get_format
from repro.fp.simd_formats import (
    bits_to_f64_many,
    f64_to_bits_many,
    fma_chain_f64_fmt,
    format_dtype,
)


class VectorOps(abc.ABC):
    """Arithmetic strategy: the FMA chains of whole tiles in one call."""

    #: Strategy name used in traces, reports and the backend registry.
    name: str = "abstract"
    #: True when the strategy reproduces the hardware bit patterns exactly.
    bit_exact: bool = False
    #: True when engines built on this strategy should record and replay
    #: compiled cycle schedules (see :mod:`repro.redmule.trace`).
    schedule_compiled: bool = False

    def __init__(self, fmt: Union[str, BinaryFormat, None] = None) -> None:
        self.fmt = get_format(fmt) if fmt is not None else FP16

    @abc.abstractmethod
    def chain(self, x_bits, w_bits, acc_bits, active_mask) -> np.ndarray:
        """Run the FMA chains of ``T`` tiles and return their Z patterns.

        ``x_bits`` is ``(T, rows, N)``, ``w_bits`` ``(T, N, cols)`` and
        ``acc_bits`` ``(T, rows, cols)`` (the Y pre-load, or zeros) pattern
        arrays.  Step ``n`` of ``active_mask`` is inner index ``n``: for
        every active step, in increasing order, each element becomes
        ``x[t, r, n] * w[t, n, c] + acc[t, r, c]`` rounded once to the
        format; a gated step (False) passes the accumulator through
        untouched, as the array's operand-gated padding lanes do.  Returns
        a ``(T, rows, cols)`` array of the format's storage dtype.
        """


class ExactVectorOps(VectorOps):
    """Bit-exact scalar strategy: one :func:`fma_bits` per element and step."""

    name = "exact"
    bit_exact = True

    def chain(self, x_bits, w_bits, acc_bits, active_mask) -> np.ndarray:
        fmt = self.fmt
        steps = np.flatnonzero(np.asarray(active_mask, dtype=bool)).tolist()
        x = np.asarray(x_bits).tolist()
        w = np.asarray(w_bits).tolist()
        out = np.asarray(acc_bits).tolist()
        for x_tile, w_tile, out_tile in zip(x, w, out):
            for x_row, acc_row in zip(x_tile, out_tile):
                for c, acc in enumerate(acc_row):
                    for n in steps:
                        acc = fma_bits(x_row[n], w_tile[n][c], acc, fmt)
                    acc_row[c] = acc
        return np.array(out, dtype=format_dtype(fmt)).reshape(np.shape(acc_bits))


class _Float64Chain(VectorOps):
    """Chains evaluated on ``float64`` arrays holding exact format values:
    patterns are decoded once per call, the active steps run through
    :func:`~repro.fp.simd_formats.fma_chain_f64_fmt` (guarded when the
    strategy is bit-exact) and the result is encoded once at the end."""

    def chain(self, x_bits, w_bits, acc_bits, active_mask) -> np.ndarray:
        fmt = self.fmt
        steps = np.flatnonzero(np.asarray(active_mask, dtype=bool))
        x64 = bits_to_f64_many(x_bits, fmt)[:, :, steps]
        w64 = bits_to_f64_many(w_bits, fmt)[:, steps, :]
        acc64 = fma_chain_f64_fmt(x64, w64, bits_to_f64_many(acc_bits, fmt),
                                  fmt, guard=self.bit_exact)
        return f64_to_bits_many(acc64, fmt)


class FastVectorOps(_Float64Chain):
    """Float64 strategy: ``x * w + acc`` in float64, rounded once per step."""

    name = "fast"
    bit_exact = False


class ExactSimdVectorOps(_Float64Chain):
    """Bit-exact array strategy built on the exact float64 chain kernel.

    The whole batch -- every row, column and tile -- runs as one chain of
    :func:`~repro.fp.simd_formats.fma_chain_f64_fmt`.  Every format value
    is a multiple of ``2**subnormal_exp``, so a float64 sum of magnitude
    below :func:`~repro.fp.simd_formats.exact_sum_bound` is exact; one
    batched matmul of operand magnitudes times a rounding-growth factor
    bounds every sum of the chain
    (:func:`~repro.fp.simd_formats.chain_sums_exact`).  A proven chain runs
    a multiply, an add and one rounding per step, the same work as
    ``fast``; the rounding is a native ``float16`` cast for fp16 and one
    lookup in a table built from the integer codec for the FP8 formats.  A
    chain the bound cannot prove (NaN or infinite operands, near-maximum
    magnitudes, bf16) runs
    :func:`~repro.fp.simd_formats.fma_guarded_f64_fmt` per step, which
    routes any lane where float64 evaluation could double-round through the
    integer kernels.  Either way the produced bits are the scalar oracle's.
    """

    name = "exact-simd"
    bit_exact = True


class TraceVectorOps(ExactSimdVectorOps):
    """Bit-exact strategy that additionally opts the engine into trace
    compilation: tiles whose cycle schedule was recorded before are replayed
    without the cycle loop (:mod:`repro.redmule.trace`), unseen tiles are
    event-stepped -- both through the inherited chain kernel, so a cold run
    is never slower than ``exact-simd`` and a warm run skips the control
    plane entirely.
    """

    name = "trace"
    bit_exact = True
    schedule_compiled = True


#: Registry of vector-ops strategies keyed by backend name.
VECTOR_OPS_REGISTRY: Dict[str, Callable[..., VectorOps]] = {
    ExactVectorOps.name: ExactVectorOps,
    ExactSimdVectorOps.name: ExactSimdVectorOps,
    FastVectorOps.name: FastVectorOps,
    TraceVectorOps.name: TraceVectorOps,
}

#: Valid backend names, in oracle-first order (CLI choices, docs).
VECTOR_OPS_BACKENDS = tuple(VECTOR_OPS_REGISTRY)


def backend_schedule_compiled(backend: str) -> bool:
    """True when ``backend`` engines record/replay compiled cycle schedules."""
    return VECTOR_OPS_REGISTRY[validate_backend_name(backend)].schedule_compiled


def validate_backend_name(backend: str) -> str:
    """Check a backend name against the registry; returns it unchanged."""
    if backend not in VECTOR_OPS_REGISTRY:
        raise ValueError(
            f"unknown vector-ops backend {backend!r}; "
            f"available: {', '.join(VECTOR_OPS_BACKENDS)}"
        )
    return backend


def make_vector_ops(
    backend: Union[str, bool] = "exact",
    fmt: Union[str, BinaryFormat, None] = None,
) -> VectorOps:
    """Build the strategy registered under ``backend`` for element format ``fmt``.

    Booleans are accepted for backward compatibility: ``True`` selects the
    scalar bit-exact oracle, ``False`` the float64 fast path.  ``fmt``
    defaults to binary16.
    """
    if isinstance(backend, bool):
        backend = "exact" if backend else "fast"
    return VECTOR_OPS_REGISTRY[validate_backend_name(backend)](fmt)
