"""Row-vector arithmetic strategies for the datapath simulator.

All ``L`` rows of the RedMulE array execute the same schedule on different
data, so the cycle-accurate engine processes one *row vector* (one value per
row per lane) per column per cycle.  Interchangeable strategies implement
the arithmetic on those vectors:

* :class:`ExactVectorOps` -- vectors are lists of bit patterns and every
  FMA is evaluated with the bit-exact scalar implementation
  (:func:`repro.fp.formats.fma_bits`).  Slow; the ground-truth oracle.
* :class:`ExactSimdVectorOps` -- bit-identical to :class:`ExactVectorOps`,
  array-backed: FMAs are evaluated with the vectorised bit-exact kernels of
  :mod:`repro.fp.simd_formats`.  Issued FMAs are recorded as a lazy
  dependency chain and evaluated in batches (all of a tile's independent
  accumulator chains side by side) when results are observed, so the
  per-element kernel cost is amortised over whole rows.
* :class:`FastVectorOps` -- vectors are numpy ``float64`` arrays holding
  exactly representable format values; the FMA is evaluated in ``float64``
  and rounded once per step.  Fast, used for performance sweeps.
* :class:`TraceVectorOps` -- :class:`ExactSimdVectorOps` plus trace
  compilation: the engine records each tile signature's cycle schedule once
  and replays later tiles as batched data-plane computations
  (:mod:`repro.redmule.trace`), bit-identical to the oracle.

The array strategies convert between patterns and values through the
codec of :mod:`repro.fp.simd_formats`, which owns any per-format fast path,
so no strategy here branches on the element format.

Every strategy is constructed for one element format
(:class:`~repro.fp.formats.BinaryFormat`, default binary16).  For the 8-bit
formats each 16-bit datapath slot packs ``lanes = 2`` elements along the
output (K) dimension, so a slot-level FMA broadcasts one X element against a
``lanes``-wide W slot and a ``lanes``-wide accumulator slice -- the
FPnew-style packed vectorial mode of the FP8 follow-on.  Vectors over the
array are stored flat in ``[row][lane]`` order (length ``L * lanes``); X
operand vectors stay one element per row (length ``L``).

The engine is written against the small interface below, so switching
strategy changes only the cost of simulating a cycle, never the structure of
the machine.  Besides per-row vectors the interface also covers *lines* (the
``elements_per_line``-element rows the streamer moves to and from the TCDM),
so a strategy can keep whole lines in its preferred representation instead
of converting to per-element Python lists at every layer boundary.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Sequence, Union

import numpy as np

from repro.fp.formats import FP16, BinaryFormat, fma_bits, get_format
from repro.fp.simd_formats import (
    bits_to_f64_many,
    f64_to_bits_many,
    fma_guarded_f64_fmt,
    round_f64_many,
)

#: Datapath slot width in bits (one FPnew FMA register).
_SLOT_BITS = 16


class VectorOps(abc.ABC):
    """Arithmetic strategy over per-row vectors of format values."""

    #: Strategy name used in traces, reports and the backend registry.
    name: str = "abstract"
    #: True when the strategy reproduces the hardware bit patterns exactly.
    bit_exact: bool = False
    #: True when engines built on this strategy should record and replay
    #: compiled cycle schedules (see :mod:`repro.redmule.trace`).
    schedule_compiled: bool = False

    def __init__(self, fmt: Union[str, BinaryFormat, None] = None) -> None:
        self.fmt = get_format(fmt) if fmt is not None else FP16
        #: Elements packed per 16-bit datapath slot (1 or 2).
        self.lanes = _SLOT_BITS // self.fmt.storage_bits

    @abc.abstractmethod
    def from_bits(self, bits: Sequence[int]):
        """Build a vector from a sequence (or pattern array) of patterns."""

    @abc.abstractmethod
    def to_bits(self, vector) -> List[int]:
        """Convert a vector back to a list of bit patterns."""

    @abc.abstractmethod
    def zeros(self, n: int):
        """Return a vector of ``n`` positive zeros."""

    @abc.abstractmethod
    def fma(self, x_vector, w_slot, acc_vector):
        """Return ``x (*) w_slot + acc`` element-wise, rounded once per element.

        ``x_vector`` holds one element per row; ``w_slot`` is a slot operand
        (a scalar for single-lane formats, ``lanes`` values for packed ones,
        in the representation :meth:`w_slot` returns); ``acc_vector`` is a
        flat ``[row][lane]`` vector.  The result has the accumulator's shape.
        """

    @abc.abstractmethod
    def gather(self, lines: Sequence, offset: int):
        """Build an X vector from element ``offset`` of each per-row line."""

    # -- slot-level interface ------------------------------------------------
    def gather_slot(self, lines: Sequence, slot: int):
        """Build a flat ``[row][lane]`` vector from slot ``slot`` of each line.

        Used to seed the accumulators from pre-loaded Z lines; for
        single-lane formats this is exactly :meth:`gather`.
        """
        if self.lanes == 1:
            return self.gather(lines, slot)
        raise NotImplementedError  # packed formats: strategy-specific

    def w_slot(self, line, k: int):
        """Slot operand broadcast by a column at cycle ``k`` of its chunk."""
        if self.lanes == 1:
            return line[k]
        return line[k * self.lanes : (k + 1) * self.lanes]

    # -- line-level interface (streamer <-> buffers boundary) ---------------
    def from_line(self, line) -> object:
        """Convert a raw pattern line into the strategy's W-line storage.

        Indexing the result via :meth:`w_slot` must yield an operand
        :meth:`fma` accepts.  The default keeps Python ints (what the scalar
        exact path consumes).
        """
        return [int(v) for v in line]

    def zero_line(self, n: int) -> object:
        """A line of ``n`` positive zeros in the strategy's W-line storage."""
        return self.from_line([0] * n)

    def to_lines(self, columns: Sequence) -> Sequence:
        """Transpose per-slot result vectors into per-row pattern lines.

        ``columns[s]`` is the flat ``[row][lane]`` result vector of slot
        ``s``; ``lines[row]`` collects ``columns[s][row * lanes + j]`` at
        element index ``s * lanes + j``.  The returned rows are
        indexable/sliceable pattern sequences ready for a line store.  This
        is the point where lazily accumulated results are materialised, so
        strategies should force *all* columns in one batch.
        """
        lanes = self.lanes
        column_bits = [self.to_bits(c) for c in columns]
        n_rows = len(column_bits[0]) // lanes if column_bits else 0
        lines = []
        for row in range(n_rows):
            line: List[int] = []
            for bits in column_bits:
                line.extend(bits[row * lanes : (row + 1) * lanes])
            lines.append(line)
        return lines


class ExactVectorOps(VectorOps):
    """Bit-exact scalar strategy: vectors are lists of bit patterns."""

    name = "exact"
    bit_exact = True

    def from_bits(self, bits: Sequence[int]) -> List[int]:
        return [int(v) for v in bits]

    def to_bits(self, vector: Sequence[int]) -> List[int]:
        return [int(v) for v in vector]

    def zeros(self, n: int) -> List[int]:
        return [0] * n

    def fma(self, x_vector: Sequence[int], w_slot,
            acc_vector: Sequence[int]) -> List[int]:
        fmt = self.fmt
        if self.lanes == 1:
            w = int(w_slot)
            return [fma_bits(int(x), w, int(acc), fmt)
                    for x, acc in zip(x_vector, acc_vector)]
        lanes = self.lanes
        w = [int(v) for v in w_slot]
        out: List[int] = []
        for row, x in enumerate(x_vector):
            x = int(x)
            base = row * lanes
            out.extend(
                fma_bits(x, w[j], int(acc_vector[base + j]), fmt)
                for j in range(lanes)
            )
        return out

    def gather(self, lines: Sequence[Sequence[int]], offset: int) -> List[int]:
        return [int(line[offset]) for line in lines]

    def gather_slot(self, lines: Sequence[Sequence[int]], slot: int) -> List[int]:
        if self.lanes == 1:
            return self.gather(lines, slot)
        base = slot * self.lanes
        return [int(line[base + j]) for line in lines
                for j in range(self.lanes)]


class _PendingFma:
    """One recorded (not yet evaluated) vector FMA of the lazy exact strategy."""

    __slots__ = ("x", "w", "acc", "values")

    def __init__(self, x: np.ndarray, w, acc) -> None:
        self.x = x
        self.w = w
        self.acc = acc
        self.values = None


class FastVectorOps(VectorOps):
    """Numpy strategy: vectors are float64 arrays of exact format values."""

    name = "fast"
    bit_exact = False

    def from_bits(self, bits) -> np.ndarray:
        return bits_to_f64_many(bits, self.fmt)

    def to_bits(self, vector: np.ndarray) -> List[int]:
        return [int(v) for v in f64_to_bits_many(vector, self.fmt)]

    def zeros(self, n: int) -> np.ndarray:
        return np.zeros(n, dtype=np.float64)

    def fma(self, x_vector: np.ndarray, w_slot,
            acc_vector: np.ndarray) -> np.ndarray:
        if self.lanes == 1:
            if isinstance(w_slot, (int, np.integer)):
                w_value = self.fmt.bits_to_float(int(w_slot))
            else:
                w_value = float(w_slot)
            raw = x_vector * w_value + acc_vector
        else:
            w = np.asarray(w_slot, dtype=np.float64)
            raw = (np.asarray(x_vector)[:, None] * w[None, :]).ravel() + acc_vector
        return round_f64_many(raw, self.fmt)

    def gather(self, lines: Sequence[np.ndarray], offset: int) -> np.ndarray:
        return np.array([line[offset] for line in lines], dtype=np.float64)

    def gather_slot(self, lines: Sequence[np.ndarray], slot: int) -> np.ndarray:
        if self.lanes == 1:
            return self.gather(lines, slot)
        base = slot * self.lanes
        return np.concatenate(
            [np.asarray(line[base : base + self.lanes], dtype=np.float64)
             for line in lines]
        )

    # -- line-level interface ----------------------------------------------
    def from_line(self, line) -> np.ndarray:
        # W lines are decoded to float64 values once per line, so the per
        # issue hot path no longer decodes the broadcast operands from bits.
        return bits_to_f64_many(line, self.fmt)

    def zero_line(self, n: int) -> np.ndarray:
        return np.zeros(n, dtype=np.float64)

    def to_lines(self, columns: Sequence) -> np.ndarray:
        stacked = np.stack([np.asarray(c, dtype=np.float64) for c in columns])
        n_slots, flat = stacked.shape
        lanes = self.lanes
        if lanes > 1:
            # (slot, row, lane) -> (row, slot * lanes + lane)
            stacked = stacked.reshape(n_slots, flat // lanes, lanes)
            stacked = stacked.transpose(1, 0, 2).reshape(flat // lanes,
                                                         n_slots * lanes)
        else:
            stacked = stacked.T
        return f64_to_bits_many(stacked, self.fmt)


class ExactSimdVectorOps(FastVectorOps):
    """Bit-exact array strategy built on the vectorised SIMD kernels.

    Shares :class:`FastVectorOps`' representation -- ``float64`` arrays
    holding exact format values (patterns only appear at the memory
    boundaries) -- but replaces its arithmetic: :meth:`fma` records a lazy
    node instead of evaluating immediately, and when a result is observed
    (via :meth:`to_bits` / :meth:`to_lines` / :meth:`gather`) every chain the
    requested values depend on is evaluated level by level with one guarded
    kernel call per dependency depth, stacking all same-depth nodes (e.g.
    the ``block_k`` independent accumulator chains of a tile) into a single
    kernel batch.  The guarded kernel
    (:func:`repro.fp.simd_formats.fma_guarded_f64_fmt`) routes any lane
    where float64 evaluation could double-round through the integer
    kernels, so deferral and the float hot path never change the produced
    bits -- only how many elements each kernel invocation covers.
    """

    name = "exact-simd"
    bit_exact = True

    def to_bits(self, vector) -> List[int]:
        return super().to_bits(self._materialise(vector))

    def fma(self, x_vector, w_slot, acc_vector) -> _PendingFma:
        if isinstance(x_vector, _PendingFma):
            x_vector = self._materialise(x_vector)
        if self.lanes == 1:
            if isinstance(w_slot, (int, np.integer)):
                w_slot = self.fmt.bits_to_float(int(w_slot))
            x = x_vector
            w = w_slot
        else:
            x = np.repeat(np.asarray(x_vector, dtype=np.float64), self.lanes)
            w = np.tile(np.asarray(w_slot, dtype=np.float64),
                        len(x_vector))
        return _PendingFma(x, w, acc_vector)

    def gather(self, lines: Sequence, offset: int) -> np.ndarray:
        return super().gather([self._materialise(line) for line in lines],
                              offset)

    def gather_slot(self, lines: Sequence, slot: int) -> np.ndarray:
        return super().gather_slot(
            [self._materialise(line) for line in lines], slot
        )

    def to_lines(self, columns: Sequence) -> np.ndarray:
        return super().to_lines(self._force(list(columns)))

    # -- lazy-chain evaluation ---------------------------------------------
    def _materialise(self, vector) -> np.ndarray:
        if isinstance(vector, _PendingFma):
            if vector.values is None:
                self._force([vector])
            return vector.values
        return np.asarray(vector, dtype=np.float64)

    def _force(self, vectors: Sequence) -> List[np.ndarray]:
        """Evaluate every pending chain the requested vectors depend on.

        Nodes are bucketed by their distance from a concrete leaf and each
        bucket is evaluated with a single batched kernel call; dependency
        order is preserved because a node is always one level above its
        accumulator input.
        """
        levels: List[List[_PendingFma]] = []
        depth_of: Dict[int, int] = {}
        for root in vectors:
            chain: List[_PendingFma] = []
            node = root
            while (
                isinstance(node, _PendingFma)
                and node.values is None
                and id(node) not in depth_of
            ):
                chain.append(node)
                node = node.acc
            base = 0
            if isinstance(node, _PendingFma) and node.values is None:
                base = depth_of[id(node)] + 1
            for depth, pending in enumerate(reversed(chain), start=base):
                depth_of[id(pending)] = depth
                if depth == len(levels):
                    levels.append([])
                levels[depth].append(pending)

        scalar_w = self.lanes == 1
        for level in levels:
            x = np.stack([node.x for node in level])
            if scalar_w:
                w = np.array([node.w for node in level],
                             dtype=np.float64)[:, None]
            else:
                w = np.stack([node.w for node in level])
            acc = np.stack([
                node.acc.values if isinstance(node.acc, _PendingFma) else node.acc
                for node in level
            ])
            values = fma_guarded_f64_fmt(x, w, acc, self.fmt)
            for row, node in enumerate(level):
                node.values = values[row]
        return [self._materialise(v) for v in vectors]


class TraceVectorOps(ExactSimdVectorOps):
    """Bit-exact strategy that additionally opts the engine into trace
    compilation: tiles whose cycle schedule was recorded before are replayed
    at numpy speed (:mod:`repro.redmule.trace`), unseen tiles fall back to
    the event-stepped loop using the inherited lazy SIMD arithmetic -- so a
    cold run is never slower than ``exact-simd`` and a warm run skips the
    control plane entirely.
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

