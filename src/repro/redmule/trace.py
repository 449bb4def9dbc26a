"""Trace compilation for the cycle-accurate engine: record once, replay fast.

For a fixed architectural configuration the per-cycle control schedule of a
tile is *data-independent*: which cycle each W/X/Y request is issued and
completed, when the datapath issues or stalls, and when Z lines are pushed
and drained depend only on the tile geometry (``job.n``, ``accumulate``,
``tile.rows``, ``tile.cols``), on the Z store backlog carried across the
tile boundary, and on the interconnect contention environment -- never on
operand values or addresses.  The semi-systolic issue order is fixed, so
the order in which the chain consumes the inner dimension (and which of
its steps are gated padding) follows from the geometry as well
(:attr:`repro.redmule.scheduler.TileSchedule.active_mask`).  A tile's
schedule therefore reduces to what it adds to the engine's counters.  This
module exploits that separation the same way schedule-compilation passes
in cycle-level simulators (pymtl3's ``OpenLoopCLPass``) do:

* :class:`ScheduleTrace` -- one tile's counter deltas (cycles, stalls,
  active cycles, wide-port traffic, Z pushes and drains) and the Z backlog
  it leaves at the tile boundary, snapshotted around an ordinary
  event-stepped run of the tile;
* :class:`TraceStore` -- schedule traces keyed by *(tile signature, Z
  backlog, contention environment)*; one store per architectural
  configuration (:func:`shared_trace_store`), so the full key is
  ``(config, tile signature, contention env)``;
* :class:`ReplaySession` -- the hybrid executor used by
  ``RedMulE(backend="trace")``: tiles whose schedule is already recorded are
  replayed in signature-grouped batches at numpy speed, unseen tiles are
  event-stepped (and recorded), and the Z store backlog is reconstructed at
  every replay/event-step boundary so the two execution modes interleave
  without drift.  A replayed batch re-computes only its data plane, with
  the chain kernel the event-stepped engine runs per tile
  (:meth:`repro.redmule.vector_ops.ExactSimdVectorOps.chain`), driven by
  the geometry's lane mask.

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

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.fp.simd_formats import format_dtype
from repro.redmule.buffers import ZStoreRequest
from repro.redmule.config import RedMulEConfig
from repro.redmule.streamer import StreamRequest

#: The only contention environment a trace can be replayed under: no
#: logarithmic-branch traffic contends with the wide port, so the branch
#: rotor never advances and no interconnect state crosses tile boundaries.
CONTENTION_ENV_IDLE = "idle"

#: Schedule trace key within one configuration's store:
#: ``(n, accumulate, rows, cols, zbuf_occupancy, pending_z, env)``.
TileKey = Tuple[int, bool, int, int, int, int, str]


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


@dataclass(frozen=True)
class ScheduleTrace:
    """The recorded control schedule of one tile, as counter deltas.

    The first ten counters are what an event-stepped run of the tile added
    to the engine's counters (job cycle accounting, streamer statistics,
    Z-buffer traffic); a replayed tile adds them again.
    ``zbuf_out``/``pending_z_out`` describe the Z backlog left at the tile
    boundary (the entry state of the next tile's key).
    """

    key: TileKey
    cycles: int
    stall_cycles: int
    active_cycles: int
    w_loads: int
    x_loads: int
    y_loads: int
    z_stores: int
    idle_cycles: int
    z_pushes: int
    z_drains: int
    zbuf_out: int
    pending_z_out: int


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


# -- process-wide shared stores ---------------------------------------------

_SHARED_STORES: Dict[RedMulEConfig, TraceStore] = {}


def shared_trace_store(config: RedMulEConfig) -> TraceStore:
    """Process-wide trace store for an architectural configuration.

    Every ``RedMulE(backend="trace")`` instance of the same configuration
    shares one store (unless constructed with an explicit ``trace_store``),
    so a sweep's later jobs replay the schedules its earlier jobs recorded.
    The store is keyed on the frozen config itself: each of its fields
    changes the cycle schedule, and the arithmetic backend is not one of
    them.  Stores live in their process only and are never persisted.
    """
    store = _SHARED_STORES.get(config)
    if store is None:
        store = _SHARED_STORES[config] = TraceStore()
    return store


def reset_shared_trace_stores() -> None:
    """Drop every shared store (test isolation / benchmark cold starts)."""
    _SHARED_STORES.clear()


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
    :meth:`commit_recording`, which snapshot the engine counters and store
    their difference as the tile's trace.  The engine only opens a session
    for a job whose placement the replay shortcut supports (``supported``).

    While replays are pending, the session tracks the Z backlog as a FIFO
    of entries, each ``[rows, retired, source]``: one entry per replayed
    tile (``source`` is ``(group_key, slot, tile)``, the tile's rows in
    order) and one for the lines carried over from the live queues when
    the first replay deferred (``source`` is their list of concrete
    ``(addr, valid, bits)`` lines).  Each replayed tile retires the recorded
    number of completed stores from the head -- whole entries, then a count
    of rows from the next -- and appends one entry at the tail, so the
    backlog contents (not just its length) are exact at every boundary.
    Z addresses and bits are produced only at :meth:`flush`, for the rows
    still queued.
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
        # (key, counters, contention counters) snapshotted by
        # begin_recording before the tile being event-stepped.
        self._recording: Optional[tuple] = None
        # Deferred replay batches (tiles), grouped by (rows, cols) signature.
        self._groups: Dict[Tuple[int, int], list] = {}
        # Z backlog while deferred (see the class docstring) and its row count.
        self._backlog: Deque[list] = deque()
        self._queued = 0
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
        trace = self.store.lookup(self.key_for(tile))
        if trace is None:
            return False
        if self._live:
            self._seed_backlog()
        # Stores completed during the replayed window retire the oldest
        # backlog rows; the tile's own rows join at the tail (they are
        # pushed after the window's last cycle, so they never complete
        # within it).
        self._retire(tile, trace.z_stores)
        group_key = (tile.rows, tile.cols)
        group = self._groups.setdefault(group_key, [])
        self._backlog.append([tile.rows, 0, (group_key, len(group), tile)])
        group.append(tile)
        self._queued += tile.rows
        self._q, self._p = trace.zbuf_out, trace.pending_z_out
        if self._queued != self._q + self._p:
            raise RuntimeError(
                f"trace replay desynchronised on tile {tile.index}: backlog "
                f"{self._queued} != {self._q} queued + {self._p} pending"
            )
        self._apply_timing(tile, trace)
        return True

    def _retire(self, tile, count: int) -> None:
        """Retire the ``count`` oldest backlog rows (completed stores).

        Carried-over lines hold concrete bits and land in the TCDM now;
        replayed rows are written when their batch is computed at flush.
        """
        if count > self._queued:
            raise RuntimeError(
                f"trace replay desynchronised on tile {tile.index}: "
                f"{count} stores retire from a backlog of {self._queued}"
            )
        self._queued -= count
        backlog = self._backlog
        eb = self.job.element_bytes
        while count:
            entry = backlog[0]
            rows, retired, source = entry
            taken = min(count, rows - retired)
            if isinstance(source, list):
                for addr, valid, bits in source[retired: retired + taken]:
                    self.engine.tcdm.write_element_line(addr, bits, eb)
            if retired + taken == rows:
                backlog.popleft()
            else:
                entry[1] = retired + taken
            count -= taken

    def _seed_backlog(self) -> None:
        """Capture the live Z backlog before the first deferred replay."""
        lines = [
            (request.addr, request.n_elements,
             np.asarray(request.payload_bits)[: request.n_elements])
            for request in self.engine.streamer.snapshot_queue("z")
        ] + [
            (request.addr, request.valid_elements,
             np.asarray(request.bits)[: request.valid_elements])
            for request in self.zbuf.snapshot()
        ]
        self._backlog = deque([[len(lines), 0, lines]] if lines else [])
        self._queued = len(lines)
        self._live = False

    def _apply_timing(self, tile, trace: ScheduleTrace) -> None:
        """Apply a replayed tile's recorded deltas to the engine counters."""
        state = self.state
        state.total_cycles += trace.cycles
        state.stall_cycles += trace.stall_cycles
        state.active_cycles += trace.active_cycles
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
            for slot, tile in enumerate(entries):
                z_all[tile.m0: tile.m0 + tile.rows,
                      tile.k0: tile.k0 + tile.cols] = out[slot]
        self.engine.tcdm.load_image(job.z_addr, z_image.tobytes())
        tail = []
        for rows, retired, source in self._backlog:
            if isinstance(source, list):
                tail.extend(source[retired:])
                continue
            group_key, slot, tile = source
            out = outputs[group_key][slot]
            tail.extend(
                (job.z_element_addr(tile.m0 + row, tile.k0), tile.cols,
                 out[row])
                for row in range(retired, rows))
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
        self._backlog = deque()
        self._queued = 0
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
        for slot, tile in enumerate(entries):
            x[slot] = x_all[tile.m0: tile.m0 + rows, :]
            w[slot] = w_all[:, tile.k0: tile.k0 + cols]
            if z_all is not None:
                acc[slot] = z_all[tile.m0: tile.m0 + rows,
                                  tile.k0: tile.k0 + cols]
        return self.engine.ops.chain(x, w, acc, self.schedule.active_mask)

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
    def _counters(self) -> List[int]:
        """The engine counters a trace records, in :class:`ScheduleTrace`
        field order (``cycles`` through ``z_drains``)."""
        state, stats, zbuf = self.state, self.engine.streamer.stats, self.zbuf
        return [state.total_cycles, state.stall_cycles, state.active_cycles,
                stats.w_loads, stats.x_loads, stats.y_loads, stats.z_stores,
                stats.idle_cycles, zbuf.pushes, zbuf.drains]

    def _contention(self) -> Tuple[int, int]:
        """Wide-port stall counters (HCI arbitration, streamer retries)."""
        return (self.engine.hci.stats.wide_stalls,
                self.engine.streamer.stats.stall_cycles)

    def begin_recording(self, tile) -> None:
        """Snapshot the tile's key and the counters before it event-steps."""
        self._recording = (self.key_for(tile), self._counters(),
                           self._contention())

    def commit_recording(self) -> None:
        """Store the counter deltas as the tile's trace (unless contended)."""
        key, before, contention = self._recording
        self._recording = None
        if self._contention() != contention:
            # The schedule absorbed arbitration stalls, so it is neither
            # reusable nor keyed correctly for the idle environment.
            self.store.discard_recording()
            return
        deltas = [after - start for after, start in zip(self._counters(),
                                                        before)]
        self.store.store(ScheduleTrace(
            key, *deltas, zbuf_out=self.zbuf.occupancy,
            pending_z_out=self.engine.streamer.pending("z")))

    # -- teardown -----------------------------------------------------------
    def close(self) -> None:
        """Release the session (both success and abort paths).

        An abort mid-recording invalidates the partial trace simply by
        never committing it, and deferred batches are dropped (their timing
        was already charged to the failed run's counters, which die with
        the exception).
        """
        self._recording = None
        self._groups.clear()
        self._backlog = deque()
        self._queued = 0
        self._live = True
