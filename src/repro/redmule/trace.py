"""Trace compilation for the cycle-accurate engine: record once, replay fast.

For a fixed architectural configuration the per-cycle control schedule of a
tile is *data-independent*: which cycle each W/X/Y request is issued and
completed, when the datapath issues or stalls, and when Z lines are pushed
and drained depend only on the tile geometry (``job.n``, ``accumulate``,
``tile.rows``, ``tile.cols``), on the Z store backlog carried across the
tile boundary, and on the interconnect contention environment -- never on
operand values or addresses.  This module exploits that separation the same
way schedule-compilation passes in cycle-level simulators (pymtl3's
``OpenLoopCLPass``) do:

* :class:`ScheduleTrace` -- the compact numpy record of one tile's control
  schedule, captured by a :class:`TileRecorder` while the engine runs the
  ordinary event-stepped loop;
* :class:`TraceStore` -- schedule traces keyed by *(tile signature, Z
  backlog, contention environment)*; one store per architectural
  configuration (:func:`shared_trace_store`), so the full key is
  ``(config_key, tile signature, contention env)``;
* :func:`replay_dataplane` -- the batched format-parametric FMA chain that
  re-computes only the data plane of a recorded schedule, driven by the
  recorded lane-activity mask (bit-identical to the scalar oracle; the same
  chain kernel the event-stepped engine runs per tile, plus an
  exception-flag-exact variant);
* :class:`ReplaySession` -- the hybrid executor used by
  ``RedMulE(backend="trace")``: tiles whose schedule is already recorded are
  replayed in signature-grouped batches at numpy speed, unseen tiles are
  event-stepped (and recorded), and the Z store backlog is reconstructed at
  every replay/event-step boundary so the two execution modes interleave
  without drift.

Replayed tiles reproduce the event-stepped engine exactly where it is
observable: TCDM contents, ``RedMulEResult`` cycle/stall/issue counters and
streamer statistics are bit-identical.  Low-level interconnect counters the
result does not carry (HCI grant counts, per-bank access tallies, the flat
memory's read/write counts) are not re-simulated during replay windows: a
replayed batch reads its operands and lands its Z lines in bulk.

Why the key is sufficient (uncontended case): at a tile boundary the X/W/Y
queues are empty and the datapath is idle -- the only state crossing the
boundary is the backlog of computed Z lines (Z-buffer occupancy plus the
streamer's pending store queue).  Addresses never influence timing because
an uncontended wide request is always granted without advancing the branch
rotor (see :class:`repro.interco.arbiter.BranchRotator`).  Contention breaks
both properties, so a recording that observed any wide-port stall is
discarded instead of stored, and only the ``"idle"`` environment tag is
replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fp.flags import ExceptionFlags
from repro.fp.formats import BinaryFormat
from repro.fp.simd_formats import fma_many_fmt, format_dtype
from repro.redmule.buffers import ZStoreRequest
from repro.redmule.streamer import StreamRequest
from repro.redmule.vector_ops import ExactSimdVectorOps

#: The only contention environment a trace can be replayed under: no
#: logarithmic-branch traffic contends with the wide port, so the branch
#: rotor never advances and no interconnect state crosses tile boundaries.
CONTENTION_ENV_IDLE = "idle"

#: Stream-request kinds in the order their event codes are assigned.
STREAM_KINDS = ("w", "y", "x", "z")

#: Schedule trace key within one configuration's store:
#: ``(n, accumulate, rows, cols, zbuf_occupancy, pending_z, env)``.
TileKey = Tuple[int, bool, int, int, int, int, str]


def trace_config_key(config) -> Tuple[int, int, int, int, int, str]:
    """Architectural part of the trace key (one shared store per value).

    Mirrors :func:`repro.farm.cache.config_key`: every field that changes
    the cycle schedule participates, the arithmetic backend does not.
    """
    return (
        config.height,
        config.length,
        config.pipeline_regs,
        config.w_prefetch_lines,
        config.z_queue_depth,
        config.format,
    )


def trace_tag(config) -> str:
    """String form of :func:`trace_config_key` (JSON-object key)."""
    return ":".join(str(v) for v in trace_config_key(config))


def tile_key(
    n: int,
    accumulate: bool,
    rows: int,
    cols: int,
    zbuf_occupancy: int,
    pending_z: int,
    env: str = CONTENTION_ENV_IDLE,
) -> TileKey:
    """Key of one tile's schedule within a configuration's trace store."""
    return (n, bool(accumulate), rows, cols, zbuf_occupancy, pending_z, env)


# ---------------------------------------------------------------------------
# schedule traces
# ---------------------------------------------------------------------------

_INT_FIELDS = (
    "cycles",
    "stall_cycles",
    "active_cycles",
    "column_issues",
    "fma_issues",
    "w_loads",
    "x_loads",
    "y_loads",
    "z_stores",
    "idle_cycles",
    "z_pushes",
    "z_drains",
    "zbuf_out",
    "pending_z_out",
)

_ARRAY_FIELDS = (
    "active_mask",
    "issue_cycles",
    "issue_cols",
    "issue_chunks",
    "issue_ks",
    "issue_gated",
    "stream_cycles",
    "stream_phases",
    "stream_kinds",
    "z_event_cycles",
    "z_event_kinds",
)


@dataclass
class ScheduleTrace:
    """The recorded control schedule of one tile, as compact numpy arrays.

    Scalar fields are the deltas a replayed tile applies to the engine's
    counters; ``zbuf_out``/``pending_z_out`` describe the Z backlog left at
    the tile boundary (the entry state of the next tile's key).  The event
    arrays are the per-cycle evidence the deltas were derived from -- kept
    (and persisted) so traces can be inspected and cross-checked; replay
    itself only needs the scalars plus ``active_mask``, the per-inner-step
    lane mask distilled from the recorded ``issue_gated`` flags.
    """

    key: TileKey
    cycles: int
    stall_cycles: int
    active_cycles: int
    column_issues: int
    fma_issues: int
    w_loads: int
    x_loads: int
    y_loads: int
    z_stores: int
    idle_cycles: int
    z_pushes: int
    z_drains: int
    zbuf_out: int
    pending_z_out: int
    #: Per inner-dimension step: True where the FMA chain consumes a real
    #: operand, False where the recorded schedule gated the lane (inner
    #: padding passes the accumulator through untouched).
    active_mask: np.ndarray = field(default_factory=lambda: np.zeros(0, bool))
    issue_cycles: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    issue_cols: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int16))
    issue_chunks: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    issue_ks: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int16))
    issue_gated: np.ndarray = field(default_factory=lambda: np.zeros(0, bool))
    stream_cycles: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    stream_phases: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int8))
    stream_kinds: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int8))
    z_event_cycles: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int32))
    z_event_kinds: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int8))

    @property
    def n_steps(self) -> int:
        """Inner-dimension steps of the recorded chain (gated included)."""
        return int(self.active_mask.shape[0])

    # -- persistence --------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-serialisable representation (see :meth:`from_payload`)."""
        payload = {"key": list(self.key)}
        for name in _INT_FIELDS:
            payload[name] = int(getattr(self, name))
        for name in _ARRAY_FIELDS:
            payload[name] = [int(v) for v in getattr(self, name)]
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ScheduleTrace":
        """Rebuild a trace from :meth:`to_payload` output."""
        key = tuple(payload["key"])
        key = tile_key(key[0], key[1], key[2], key[3], key[4], key[5], key[6])
        kwargs = {name: int(payload[name]) for name in _INT_FIELDS}
        bool_arrays = ("active_mask", "issue_gated")
        for name in _ARRAY_FIELDS:
            dtype = bool if name in bool_arrays else np.int64
            kwargs[name] = np.asarray(payload[name], dtype=dtype)
        return cls(key=key, **kwargs)


@dataclass
class TraceStoreStats:
    """Hit/miss accounting of a :class:`TraceStore`."""

    hits: int = 0
    misses: int = 0
    recordings: int = 0
    #: Recordings thrown away because contention polluted the schedule.
    discarded: int = 0


class TraceStore:
    """Schedule traces of one architectural configuration, keyed by tile."""

    def __init__(self) -> None:
        self._traces: Dict[TileKey, ScheduleTrace] = {}
        self.stats = TraceStoreStats()

    def __len__(self) -> int:
        return len(self._traces)

    def __contains__(self, key: TileKey) -> bool:
        return key in self._traces

    def lookup(self, key: TileKey) -> Optional[ScheduleTrace]:
        """Return the trace recorded for ``key`` (and count a hit or miss)."""
        trace = self._traces.get(key)
        if trace is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return trace

    def store(self, trace: ScheduleTrace) -> None:
        """Commit a recorded trace (later recordings of a key overwrite)."""
        self._traces[trace.key] = trace
        self.stats.recordings += 1

    def discard_recording(self) -> None:
        """Account for a recording that could not be kept (contention)."""
        self.stats.discarded += 1

    def clear(self) -> None:
        """Drop every trace (statistics are kept)."""
        self._traces.clear()

    # -- persistence --------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-serialisable dump of every trace (``TimingCache`` payload)."""
        return {"traces": [t.to_payload() for t in self._traces.values()]}

    def merge_payload(self, payload: dict) -> int:
        """Merge traces from :meth:`to_payload` output; returns the count.

        Existing keys are kept (a live recording is at least as fresh as a
        persisted one); merging counts neither hits nor recordings.
        """
        merged = 0
        for entry in payload.get("traces", []):
            trace = ScheduleTrace.from_payload(entry)
            if trace.key not in self._traces:
                self._traces[trace.key] = trace
                merged += 1
        return merged


# -- process-wide shared stores ---------------------------------------------

_SHARED_STORES: Dict[Tuple[int, int, int, int, int, str], TraceStore] = {}


def shared_trace_store(config) -> TraceStore:
    """Process-wide trace store for an architectural configuration.

    Every ``RedMulE(backend="trace")`` instance of the same configuration
    shares one store (unless constructed with an explicit ``trace_store``),
    so a sweep's later jobs replay the schedules its earlier jobs recorded.
    """
    key = trace_config_key(config)
    store = _SHARED_STORES.get(key)
    if store is None:
        store = TraceStore()
        _SHARED_STORES[key] = store
    return store


def reset_shared_trace_stores() -> None:
    """Drop every shared store (test isolation / benchmark cold starts)."""
    _SHARED_STORES.clear()


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------


class TileRecorder:
    """Captures one tile's control events while the engine event-steps it.

    The engine calls :meth:`begin_cycle` once per simulated cycle; the
    streamer and Z-buffer hooks (`observer` attributes) deliver request
    issue/completion and push/drain events, and the engine reports datapath
    issues (with their ``issue_gated`` flag) directly.  Events fired before
    the first cycle (the Y pre-load enqueues of an accumulation tile) land
    at cycle ``-1``.
    """

    def __init__(self, key: TileKey) -> None:
        self.key = key
        self.cycle = -1
        self._issues: List[Tuple[int, int, int, int, bool]] = []
        self._stream_events: List[Tuple[int, int, int]] = []
        self._z_events: List[Tuple[int, int]] = []

    def begin_cycle(self) -> None:
        """Advance the tile-local cycle counter (one call per engine cycle)."""
        self.cycle += 1

    # -- engine-side hook ---------------------------------------------------
    def issue(self, col: int, chunk: int, k: int, gated: bool) -> None:
        """Record one column issue (gated lanes pass the accumulator through)."""
        self._issues.append((self.cycle, col, chunk, k, gated))

    # -- streamer observer protocol ----------------------------------------
    def stream_enqueued(self, request: StreamRequest) -> None:
        """Record a stream request entering the port queues."""
        self._stream_events.append(
            (self.cycle, 0, STREAM_KINDS.index(request.kind))
        )

    def stream_completed(self, request: StreamRequest) -> None:
        """Record a stream request completing on the wide port."""
        self._stream_events.append(
            (self.cycle, 1, STREAM_KINDS.index(request.kind))
        )

    # -- Z-buffer observer protocol ----------------------------------------
    def z_pushed(self, request: ZStoreRequest) -> None:
        """Record a computed Z line entering the store queue."""
        self._z_events.append((self.cycle, 0))

    def z_drained(self, request: ZStoreRequest) -> None:
        """Record a Z line leaving the store queue for the streamer."""
        self._z_events.append((self.cycle, 1))

    # -- trace assembly -----------------------------------------------------
    def finish(self, n: int, n_steps: int, deltas: dict,
               zbuf_out: int, pending_z_out: int) -> ScheduleTrace:
        """Assemble the :class:`ScheduleTrace` from the captured events.

        ``deltas`` carries the counter differences measured by the caller
        around the tile (see ``_INT_FIELDS``); the per-step ``active_mask``
        is distilled from the chain-head (``k == 0``) issue events and
        cross-checked against the issue evidence -- a mismatch means the
        recording hooks missed events and the trace must not be replayed.
        """
        issues = self._issues
        heads = sorted(
            (c, col, chunk, gated) for c, col, chunk, k, gated in issues
            if k == 0
        )
        if len(heads) != n_steps:
            raise RuntimeError(
                f"schedule recording captured {len(heads)} chain heads, "
                f"expected {n_steps}"
            )
        active = np.zeros(n_steps, dtype=bool)
        for pos, (_cycle, _col, _chunk, gated) in enumerate(heads):
            active[pos] = not gated
        if not np.array_equal(active, np.arange(n_steps) < n):
            raise RuntimeError(
                "recorded lane mask disagrees with the tile geometry "
                f"(n={n}, steps={n_steps})"
            )
        arrays = dict(
            active_mask=active,
            issue_cycles=np.asarray([e[0] for e in issues], np.int32),
            issue_cols=np.asarray([e[1] for e in issues], np.int16),
            issue_chunks=np.asarray([e[2] for e in issues], np.int32),
            issue_ks=np.asarray([e[3] for e in issues], np.int16),
            issue_gated=np.asarray([e[4] for e in issues], bool),
            stream_cycles=np.asarray(
                [e[0] for e in self._stream_events], np.int32),
            stream_phases=np.asarray(
                [e[1] for e in self._stream_events], np.int8),
            stream_kinds=np.asarray(
                [e[2] for e in self._stream_events], np.int8),
            z_event_cycles=np.asarray(
                [e[0] for e in self._z_events], np.int32),
            z_event_kinds=np.asarray(
                [e[1] for e in self._z_events], np.int8),
        )
        return ScheduleTrace(key=self.key, zbuf_out=zbuf_out,
                             pending_z_out=pending_z_out, **deltas, **arrays)


# ---------------------------------------------------------------------------
# data-plane replay
# ---------------------------------------------------------------------------


def replay_dataplane(
    x_bits: np.ndarray,
    w_bits: np.ndarray,
    acc_bits: np.ndarray,
    active_mask: np.ndarray,
    fmt: BinaryFormat,
    flags: Optional[ExceptionFlags] = None,
) -> np.ndarray:
    """Run the data plane of a recorded schedule over a batch of tiles.

    ``x_bits`` is ``(T, rows, N)``, ``w_bits`` ``(T, N, cols)`` and
    ``acc_bits`` ``(T, rows, cols)`` pattern arrays (``T`` tiles replayed
    side by side); ``active_mask`` is the recorded per-step lane mask.  The
    chain walks the active steps in recorded order, exactly the order the
    engine's chunk/column schedule consumes the inner dimension, so the
    result is bit-identical to the event-stepped datapath (and to the
    scalar oracle :func:`repro.redmule.functional.matmul_hw_order_exact_fmt`).

    Without ``flags`` this is the ``exact-simd``/``trace`` chain kernel
    (:meth:`repro.redmule.vector_ops.ExactSimdVectorOps.chain`, the one the
    engine runs on every event-stepped tile): the guarded float64 kernel
    per step, lanes at double-rounding risk falling back to the integer
    kernels.  With ``flags`` every step runs the integer kernels outright
    and aggregates the IEEE exception flags -- bit-identical values,
    scalar-oracle flags.
    """
    if flags is None:
        return ExactSimdVectorOps(fmt).chain(x_bits, w_bits, acc_bits,
                                             active_mask)
    dtype = format_dtype(fmt)
    acc = np.array(acc_bits, dtype=dtype)
    x = np.asarray(x_bits, dtype=dtype)
    w = np.asarray(w_bits, dtype=dtype)
    for n in np.flatnonzero(np.asarray(active_mask, dtype=bool)):
        a = np.broadcast_to(x[:, :, n][:, :, None], acc.shape)
        b = np.broadcast_to(w[:, n, :][:, None, :], acc.shape)
        acc = fma_many_fmt(a, b, acc, fmt, flags=flags)
    return acc


# ---------------------------------------------------------------------------
# hybrid execution
# ---------------------------------------------------------------------------


class ReplaySession:
    """Record/replay execution of one job on a trace-backed engine.

    The engine drives the session tile by tile: :meth:`try_replay` serves a
    tile from the store (deferring its data plane into a signature-grouped
    batch and applying the recorded timing immediately), and when a tile
    must be event-stepped the engine first calls :meth:`flush` -- which
    materialises every deferred batch into the TCDM and reconstructs the
    real Z backlog (store queue + Z buffer) to the recorded boundary state
    -- then brackets the event-stepped tile with :meth:`begin_recording` /
    :meth:`commit_recording`.

    While replays are pending, the session tracks the Z backlog as a FIFO
    of line references: each replayed tile retires the recorded number of
    completed stores from the head and appends its own rows at the tail, so
    the backlog contents (not just its length) are exact at every boundary.
    """

    def __init__(self, engine, job, schedule, zbuf, state,
                 store: TraceStore) -> None:
        self.engine = engine
        self.job = job
        self.schedule = schedule
        self.zbuf = zbuf
        self.state = state
        self.store = store
        self.fmt = engine.config.binary_format
        self.supported = self._check_supported()
        self._recorder: Optional[TileRecorder] = None
        self._entry: dict = {}
        # Deferred replay batches, grouped by (rows, cols) signature.
        self._groups: Dict[Tuple[int, int], List[Tuple[object, ScheduleTrace]]] = {}
        # Z backlog while deferred: [addr, valid, bits-or-None, ref-or-None].
        self._backlog: List[list] = []
        self._live = True
        self._q = 0
        self._p = 0

    # -- eligibility --------------------------------------------------------
    def _check_supported(self) -> bool:
        """Replay shortcuts the memory traffic, so operand regions must be
        well-formed: strides element-aligned and the Z region disjoint from
        X and W (an aliasing job would observe the reordered writes)."""
        job = self.job
        eb = job.element_bytes
        for stride in (job.x_stride, job.w_stride, job.z_stride):
            if stride % eb:
                return False
        if job.z_stride < job.k * eb:
            return False  # overlapping Z rows
        z_lo = job.z_addr
        z_hi = job.z_addr + (job.m - 1) * job.z_stride + job.k * eb
        x_hi = job.x_addr + (job.m - 1) * job.x_stride + job.n * eb
        w_hi = job.w_addr + (job.n - 1) * job.w_stride + job.k * eb
        if z_lo < x_hi and job.x_addr < z_hi:
            return False
        if z_lo < w_hi and job.w_addr < z_hi:
            return False
        return True

    # -- keys ---------------------------------------------------------------
    def key_for(self, tile) -> TileKey:
        """Trace key of ``tile`` given the current Z backlog state."""
        if self._live:
            q = self.zbuf.occupancy
            p = self.engine.streamer.pending("z")
        else:
            q, p = self._q, self._p
        n, accumulate, rows, cols = self.schedule.tile_signature(tile)
        return tile_key(n, accumulate, rows, cols, q, p)

    # -- replay -------------------------------------------------------------
    def try_replay(self, tile) -> bool:
        """Serve ``tile`` from the store; returns False on a trace miss."""
        if not self.supported:
            return False
        trace = self.store.lookup(self.key_for(tile))
        if trace is None:
            return False
        if self._live:
            self._seed_backlog()
        # Stores completed during the replayed window retire the oldest
        # backlog entries; the tile's own rows join at the tail (they are
        # pushed after the window's last cycle, so they never complete
        # within it).  Entries carried over from event-stepped tiles hold
        # concrete bits and must land in the TCDM now -- deferred entries
        # are written when their batch is computed at flush time.
        retired = self._backlog[: trace.z_stores]
        del self._backlog[: trace.z_stores]
        eb = self.job.element_bytes
        for addr, valid, bits, _ref in retired:
            if bits is not None:
                self.engine.tcdm.write_element_line(
                    addr, np.asarray(bits)[:valid], eb)
        group_key = (tile.rows, tile.cols)
        group = self._groups.setdefault(group_key, [])
        slot = len(group)
        group.append((tile, trace))
        for row in range(tile.rows):
            self._backlog.append([
                self.job.z_element_addr(tile.m0 + row, tile.k0),
                tile.cols,
                None,
                (group_key, slot, row),
            ])
        self._q, self._p = trace.zbuf_out, trace.pending_z_out
        if len(self._backlog) != self._q + self._p:
            raise RuntimeError(
                f"trace replay desynchronised on tile {tile.index}: backlog "
                f"{len(self._backlog)} != {self._q} queued + {self._p} pending"
            )
        self._apply_timing(tile, trace)
        return True

    def _seed_backlog(self) -> None:
        """Capture the live Z backlog before the first deferred replay."""
        self._backlog = []
        for request in self.engine.streamer.snapshot_queue("z"):
            self._backlog.append([
                request.addr, request.n_elements,
                np.asarray(request.payload_bits), None,
            ])
        for request in self.zbuf.snapshot():
            self._backlog.append([
                request.addr, request.valid_elements,
                np.asarray(request.bits), None,
            ])
        self._live = False

    def _apply_timing(self, tile, trace: ScheduleTrace) -> None:
        """Apply a replayed tile's recorded deltas to the engine counters."""
        state = self.state
        state.total_cycles += trace.cycles
        state.stall_cycles += trace.stall_cycles
        state.active_cycles += trace.active_cycles
        datapath = self.engine.datapath
        datapath.column_issues += trace.column_issues
        datapath.fma_issues += trace.fma_issues
        stats = self.engine.streamer.stats
        stats.cycles += trace.cycles
        stats.w_loads += trace.w_loads
        stats.x_loads += trace.x_loads
        stats.y_loads += trace.y_loads
        stats.z_stores += trace.z_stores
        stats.idle_cycles += trace.idle_cycles
        self.zbuf.pushes += trace.z_pushes
        self.zbuf.drains += trace.z_drains
        if state.total_cycles > state.max_cycles:
            raise RuntimeError(
                f"simulation exceeded {state.max_cycles} cycles "
                f"({self.job.describe()}, tile {tile.index})"
            )

    # -- materialisation ----------------------------------------------------
    def flush(self) -> None:
        """Materialise every deferred batch and restore the live backlog."""
        if self._live:
            return
        job = self.job
        x_all = self._read_matrix(job.x_addr, job.m, job.n, job.x_stride)[1]
        w_all = self._read_matrix(job.w_addr, job.n, job.k, job.w_stride)[1]
        z_image, z_all = self._read_matrix(job.z_addr, job.m, job.k,
                                           job.z_stride)
        outputs = {
            group_key: self._compute_group(group_key, entries, x_all, w_all,
                                           z_all if job.accumulate else None)
            for group_key, entries in self._groups.items()
        }
        # Land every replayed line in one write of the Z extent: completed
        # stores land now, backlog entries are re-written (identically)
        # when the restored queues drain through the streamer.  Z lines of
        # tiles that were not replayed are written back unchanged.
        for group_key, entries in self._groups.items():
            out = outputs[group_key]
            for slot, (tile, _trace) in enumerate(entries):
                z_all[tile.m0: tile.m0 + tile.rows,
                      tile.k0: tile.k0 + tile.cols] = out[slot]
        self.engine.tcdm.load_image(job.z_addr, z_image.tobytes())
        tail = []
        for addr, valid, bits, ref in self._backlog:
            if bits is None:
                group_key, slot, row = ref
                bits = outputs[group_key][slot, row]
            tail.append((addr, valid, np.asarray(bits)[:valid]))
        self.engine.streamer.restore_queue("z", [
            StreamRequest(kind="z", addr=addr, n_elements=valid, write=True,
                          payload_bits=bits)
            for addr, valid, bits in tail[: self._p]
        ])
        self.zbuf.restore([
            ZStoreRequest(addr=addr, bits=bits, valid_elements=valid)
            for addr, valid, bits in tail[self._p:]
        ])
        self._groups.clear()
        self._backlog = []
        self._live = True

    def _compute_group(self, group_key, entries, x_all: np.ndarray,
                       w_all: np.ndarray,
                       z_all: Optional[np.ndarray]) -> np.ndarray:
        """Batched data plane of every deferred tile sharing a signature."""
        rows, cols = group_key
        n = self.job.n
        count = len(entries)
        dtype = format_dtype(self.fmt)
        x = np.empty((count, rows, n), dtype=dtype)
        w = np.empty((count, n, cols), dtype=dtype)
        acc = np.zeros((count, rows, cols), dtype=dtype)
        for slot, (tile, _trace) in enumerate(entries):
            x[slot] = x_all[tile.m0: tile.m0 + rows, :]
            w[slot] = w_all[:, tile.k0: tile.k0 + cols]
            if z_all is not None:
                acc[slot] = z_all[tile.m0: tile.m0 + rows,
                                  tile.k0: tile.k0 + cols]
        # Every trace of the group was recorded for the same (n, rows,
        # cols) signature, so they share one lane mask by construction.
        mask = entries[0][1].active_mask
        return self.engine.ops.chain(x, w, acc, mask)

    def _read_matrix(self, addr: int, n_rows: int, n_cols: int,
                     stride: int) -> Tuple[np.ndarray, np.ndarray]:
        """Bulk-read a (possibly strided) operand matrix.

        Returns the writable pattern array of the whole extent (row gaps
        included) and an ``(n_rows, n_cols)`` view of the matrix into it.
        """
        eb = self.job.element_bytes
        dtype = np.dtype("<u2") if eb == 2 else np.dtype(np.uint8)
        nbytes = (n_rows - 1) * stride + n_cols * eb
        image = np.frombuffer(self.engine.tcdm.dump_image(addr, nbytes),
                              dtype=dtype).copy()
        matrix = np.lib.stride_tricks.as_strided(
            image, shape=(n_rows, n_cols), strides=(stride, dtype.itemsize))
        return image, matrix

    # -- recording ----------------------------------------------------------
    def begin_recording(self, tile) -> Optional[TileRecorder]:
        """Attach recording hooks around an event-stepped tile."""
        if not self.supported:
            return None
        recorder = TileRecorder(self.key_for(tile))
        streamer = self.engine.streamer
        self._entry = dict(
            total_cycles=self.state.total_cycles,
            stall_cycles=self.state.stall_cycles,
            active_cycles=self.state.active_cycles,
            column_issues=self.engine.datapath.column_issues,
            fma_issues=self.engine.datapath.fma_issues,
            w_loads=streamer.stats.w_loads,
            x_loads=streamer.stats.x_loads,
            y_loads=streamer.stats.y_loads,
            z_stores=streamer.stats.z_stores,
            idle_cycles=streamer.stats.idle_cycles,
            stream_stalls=streamer.stats.stall_cycles,
            z_pushes=self.zbuf.pushes,
            z_drains=self.zbuf.drains,
            wide_stalls=self.engine.hci.stats.wide_stalls,
        )
        streamer.observer = recorder
        self.zbuf.observer = recorder
        self._recorder = recorder
        return recorder

    def commit_recording(self, tile, recorder: TileRecorder) -> None:
        """Detach the hooks and store the trace (unless contention hit)."""
        self._detach(recorder)
        streamer = self.engine.streamer
        entry = self._entry
        contended = (
            self.engine.hci.stats.wide_stalls != entry["wide_stalls"]
            or streamer.stats.stall_cycles != entry["stream_stalls"]
        )
        if contended:
            # The schedule absorbed arbitration stalls, so it is neither
            # reusable nor keyed correctly for the idle environment.
            self.store.discard_recording()
            return
        deltas = dict(
            cycles=self.state.total_cycles - entry["total_cycles"],
            stall_cycles=self.state.stall_cycles - entry["stall_cycles"],
            active_cycles=self.state.active_cycles - entry["active_cycles"],
            column_issues=(self.engine.datapath.column_issues
                           - entry["column_issues"]),
            fma_issues=self.engine.datapath.fma_issues - entry["fma_issues"],
            w_loads=streamer.stats.w_loads - entry["w_loads"],
            x_loads=streamer.stats.x_loads - entry["x_loads"],
            y_loads=streamer.stats.y_loads - entry["y_loads"],
            z_stores=streamer.stats.z_stores - entry["z_stores"],
            idle_cycles=streamer.stats.idle_cycles - entry["idle_cycles"],
            z_pushes=self.zbuf.pushes - entry["z_pushes"],
            z_drains=self.zbuf.drains - entry["z_drains"],
        )
        n_steps = self.schedule.n_chunks * self.engine.config.height
        trace = recorder.finish(
            n=self.job.n,
            n_steps=n_steps,
            deltas=deltas,
            zbuf_out=self.zbuf.occupancy,
            pending_z_out=streamer.pending("z"),
        )
        self.store.store(trace)

    def _detach(self, recorder: Optional[TileRecorder]) -> None:
        if self.engine.streamer.observer is recorder:
            self.engine.streamer.observer = None
        if self.zbuf.observer is recorder:
            self.zbuf.observer = None
        self._recorder = None

    # -- teardown -----------------------------------------------------------
    def close(self) -> None:
        """Release the session (both success and abort paths).

        An abort mid-recording invalidates the partial trace simply by
        never committing it; the hooks are detached so a later job cannot
        deliver events into a dead recorder, and deferred batches are
        dropped (their timing was already charged to the failed run's
        counters, which die with the exception).
        """
        self._detach(self._recorder)
        self._groups.clear()
        self._backlog = []
        self._live = True
