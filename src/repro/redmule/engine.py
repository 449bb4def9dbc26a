"""Cycle-accurate RedMulE engine.

This module ties together the datapath, buffers, streamer, scheduler and
controller into a cycle-by-cycle simulation of a complete matmul job:

* operands are read from (and results written to) the simulated TCDM through
  the HCI shallow branch, one wide access per cycle at most;
* the datapath issues at most one vector FMA per column per cycle, following
  the semi-systolic schedule of Section II-C (X operands held for
  ``H*(P+1)`` cycles, W operands broadcast every cycle, feedback after the
  last column);
* the whole array stalls when a W line or an X block is not resident when a
  column crosses a chunk boundary (ready/valid back-pressure);
* computed Z lines are queued in the Z buffer and drained through spare port
  slots.

The cycle loop carries issue tags and timing only.  A tile's arithmetic is
evaluated once, when the tile drains: the operand lines the streamer loaded
go to the backend's chain kernel
(:meth:`repro.redmule.vector_ops.VectorOps.chain`), which walks the inner
dimension in the order the schedule issued it and returns the Z lines.

The engine reports cycle counts, stall breakdowns and utilisation, and -- by
construction -- leaves the bit-exact result of the computation in the TCDM,
so functional and timing verification use the same run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.fp.simd_formats import format_dtype
from repro.interco.hci import Hci, HciConfig
from repro.mem.tcdm import Tcdm, TcdmConfig
from repro.obs import active as _telemetry_active
from repro.redmule.buffers import WLineBuffer, XBlockBuffer, ZStoreBuffer, ZStoreRequest
from repro.redmule.config import RedMulEConfig
from repro.redmule.controller import RedMulEController
from repro.redmule.datapath import Datapath
from repro.redmule.job import MatmulJob
from repro.redmule.scheduler import Tile, TileSchedule
from repro.redmule.streamer import Streamer, StreamRequest, StreamerStats
from repro.redmule.trace import ReplaySession, TraceStore, shared_trace_store
from repro.redmule.vector_ops import DEFAULT_BACKEND, make_vector_ops


@dataclass
class RedMulEResult:
    """Outcome of one simulated job."""

    job: MatmulJob
    #: Total cycles from trigger to the last Z store leaving the streamer.
    cycles: int
    #: Cycles in which the datapath was frozen waiting for operands.
    stall_cycles: int
    #: Cycles in which the datapath issued at least one operation.
    active_cycles: int
    #: Useful multiply-accumulates (M*N*K).
    total_macs: int
    #: FMA slots actually issued by the array (padding included).
    issued_macs: int
    #: Number of tiles processed.
    n_tiles: int
    #: Peak throughput of the instance that ran the job (H * L MAC/cycle).
    #: Required so manually-built results cannot silently desync from
    #: non-reference H/L configurations; the engine fills it from
    #: ``config.ideal_macs_per_cycle``.
    peak_macs_per_cycle: int
    #: Port-level streamer statistics.
    streamer: StreamerStats = field(default_factory=StreamerStats)

    @property
    def macs_per_cycle(self) -> float:
        """Useful MACs per cycle (the paper's throughput metric)."""
        if self.cycles == 0:
            return 0.0
        return self.total_macs / self.cycles

    @property
    def utilisation(self) -> float:
        """Useful MACs per cycle divided by the array's peak (H*L)."""
        if self.cycles == 0 or self.peak_macs_per_cycle == 0:
            return 0.0
        return self.macs_per_cycle / self.peak_macs_per_cycle

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.job.describe()}: {self.cycles} cycles, "
            f"{self.macs_per_cycle:.2f} MAC/cycle, "
            f"{self.stall_cycles} stalls, {self.n_tiles} tiles"
        )


@dataclass
class _JobState:
    """Mutable per-job cycle accounting shared by event-stepping and replay."""

    max_cycles: int
    total_cycles: int = 0
    stall_cycles: int = 0
    active_cycles: int = 0


class RedMulE:
    """Cycle-accurate model of one RedMulE instance attached to an HCI.

    The arithmetic backend is selected by ``backend``, a name from the
    vector-ops registry: ``"exact"``, ``"exact-simd"`` (the default) or
    ``"trace"``.  Every backend leaves the same bits and cycle counts.

    The ``"trace"`` backend record/replays compiled cycle schedules (see
    :mod:`repro.redmule.trace`): traces live in the process-wide store of
    this architectural configuration unless an explicit ``trace_store`` is
    passed.
    """

    def __init__(
        self,
        config: Optional[RedMulEConfig] = None,
        hci: Optional[Hci] = None,
        backend: str = DEFAULT_BACKEND,
        trace_store: Optional[TraceStore] = None,
    ) -> None:
        self.config = config if config is not None else RedMulEConfig.reference()
        if hci is None:
            tcdm = Tcdm(TcdmConfig())
            hci = Hci(tcdm, HciConfig(n_wide_ports=self.config.n_mem_ports))
        self.hci = hci
        self.ops = make_vector_ops(backend, self.config.binary_format)
        #: Name of the arithmetic backend driving the datapath.
        self.backend = self.ops.name
        self.datapath = Datapath(self.config)
        self.controller = RedMulEController()
        self.streamer = Streamer(self.config, hci)
        #: Schedule-trace store driving record/replay (None for plain backends).
        self._trace_store: Optional[TraceStore] = None
        if self.ops.schedule_compiled:
            self._trace_store = (trace_store if trace_store is not None
                                 else shared_trace_store(self.config))
        #: The live :class:`~repro.redmule.trace.ReplaySession`, if any.
        self._session: Optional[ReplaySession] = None
        #: Results of every job run on this instance.
        self.history: List[RedMulEResult] = []

    # ------------------------------------------------------------------
    @property
    def tcdm(self) -> Tcdm:
        """The TCDM this instance reads and writes."""
        return self.hci.tcdm

    def offload(self, job: MatmulJob, max_cycles: Optional[int] = None) -> RedMulEResult:
        """Full software-style offload: program the register file, run, finish.

        If the simulation aborts mid-job (e.g. the ``max_cycles`` watchdog
        fires), the controller context is released before the exception
        propagates, so the instance stays usable -- otherwise every later
        ``offload`` would fail with "RedMulE is busy".
        """
        if self.controller.acquire() != 0:
            raise RuntimeError("RedMulE is busy")
        completed = False
        try:
            self.controller.program_job(job)
            triggered = self.controller.trigger()
            result = self.run_job(triggered, max_cycles=max_cycles)
            self.controller.fsm.tick(result.cycles)
            self.controller.finish()
            completed = True
            return result
        finally:
            if completed:
                self.controller.clear()
            else:
                self.controller.abort()

    # ------------------------------------------------------------------
    def run_job(self, job: MatmulJob, max_cycles: Optional[int] = None) -> RedMulEResult:
        """Simulate one matmul job cycle by cycle.

        The result matrix is written into the TCDM at ``job.z_addr`` and the
        timing statistics are returned.  If the simulation aborts (e.g. the
        ``max_cycles`` watchdog fires), the transient engine state -- queued
        streamer requests and in-flight datapath operations -- is flushed
        before the exception propagates, so the instance can run further
        jobs without the dead job's residue corrupting them.

        Jobs in the mapped engine-hang domain are rejected with a clear
        ``ValueError`` up front: a tile whose live-row count exceeds the Z
        store queue can never drain (the tile-exit condition
        ``occupancy + rows <= depth`` is unsatisfiable), so the engine would
        spin until the watchdog instead of making progress.
        """
        cfg = self.config
        if job.element_bytes != cfg.element_bytes:
            raise ValueError(
                f"job element width ({8 * job.element_bytes} bits) does not "
                f"match the configured {cfg.format} elements "
                f"({cfg.element_bits} bits)"
            )
        live_rows = min(cfg.length, job.m)
        if cfg.z_queue_depth < live_rows:
            raise ValueError(
                f"z_queue_depth={cfg.z_queue_depth} is below the live-row "
                f"requirement of this job (min(L={cfg.length}, M={job.m}) = "
                f"{live_rows}): the engine would deadlock waiting for Z "
                f"queue space that can never exist"
            )
        try:
            return self._run_job(job, max_cycles)
        except BaseException:
            self.streamer.flush()
            self.datapath.flush()
            raise

    def _run_job(self, job: MatmulJob, max_cycles: Optional[int]) -> RedMulEResult:
        cfg = self.config

        schedule = TileSchedule(job, cfg)
        xbuf = XBlockBuffer(cfg, capacity_blocks=2)
        wbuf = WLineBuffer(cfg)
        zbuf = ZStoreBuffer(cfg)
        self.datapath.flush()
        self.streamer.reset_stats()

        issued_macs = schedule.issued_macs()
        if max_cycles is None:
            max_cycles = self._cycle_bound(job, schedule)
        state = _JobState(max_cycles=max_cycles)

        # W lines in the order the datapath will need them.
        w_need_order = sorted(
            (col * cfg.latency + chunk * cfg.block_k, col, chunk)
            for chunk in range(schedule.n_chunks)
            for col in range(cfg.height)
        )
        active_mask = schedule.active_mask

        session: Optional[ReplaySession] = None
        if self._trace_store is not None:
            session = ReplaySession(self, job, schedule, zbuf, state,
                                    self._trace_store)
            if not session.supported:
                session = None
        self._session = session

        # Per-tile spans are stamped in *engine cycles* on a per-job lane.
        # Replay applies a tile's recorded timing in ``try_replay`` (only
        # the data plane is deferred), so the tile boundaries -- and hence
        # the exported timeline -- are identical between the event-stepped
        # and trace-replay backends; only the ``replayed`` attribute tells
        # them apart.  The disabled path costs one check per tile.
        obs = _telemetry_active()
        monitor = obs.enabled
        if monitor:
            obs.declare_track("engine", "cycles")
            lane = f"job{len(self.history)}"

        try:
            for tile in schedule:
                if monitor:
                    tile_start = state.total_cycles
                    stalls_before = state.stall_cycles
                    active_before = state.active_cycles
                replayed = session is not None and session.try_replay(tile)
                if not replayed:
                    if session is not None:
                        # An event-stepped tile needs the real machine
                        # state; materialise any deferred replays first.
                        session.flush()
                        session.begin_recording(tile)
                    self._run_tile(job, schedule, tile, xbuf, wbuf, zbuf,
                                   w_need_order, active_mask, state)
                    if session is not None:
                        session.commit_recording()
                if monitor:
                    obs.complete_span(
                        f"tile{tile.index}", tile_start, state.total_cycles,
                        track="engine", lane=lane, cat="tile",
                        rows=tile.rows, cols=tile.cols,
                        stall_cycles=state.stall_cycles - stalls_before,
                        active_cycles=state.active_cycles - active_before,
                        replayed=replayed)
            if session is not None:
                session.flush()

            # Drain the remaining Z stores.
            if monitor:
                drain_start = state.total_cycles
            while not zbuf.empty or self.streamer.busy:
                state.total_cycles += 1
                if state.total_cycles > state.max_cycles:
                    raise RuntimeError(
                        "simulation exceeded max_cycles during Z drain")
                self._drain_zbuf(zbuf)
                self.streamer.cycle()
            if monitor:
                obs.complete_span("z_drain", drain_start, state.total_cycles,
                                  track="engine", lane=lane, cat="drain")
        finally:
            self._session = None
            if session is not None:
                session.close()

        result = RedMulEResult(
            job=job,
            cycles=state.total_cycles,
            stall_cycles=state.stall_cycles,
            active_cycles=state.active_cycles,
            total_macs=job.total_macs,
            issued_macs=issued_macs,
            n_tiles=schedule.n_tiles,
            peak_macs_per_cycle=cfg.ideal_macs_per_cycle,
            streamer=self.streamer.stats,
        )
        if monitor:
            obs.complete_span(
                f"gemm {job.m}x{job.n}x{job.k}", 0, state.total_cycles,
                track="engine", lane=lane, cat="job", m=job.m, n=job.n,
                k=job.k, backend=self.backend, tiles=schedule.n_tiles,
                stall_cycles=state.stall_cycles,
                active_cycles=state.active_cycles)
            obs.count("engine.jobs")
            obs.observe("engine.job_cycles", state.total_cycles)
            obs.observe("engine.stall_cycles", state.stall_cycles)
        self.history.append(result)
        return result

    def _cycle_bound(self, job: MatmulJob, schedule: TileSchedule) -> int:
        """The default watchdog: no job that terminates runs longer.

        A tile's array advances ``issue_end + P + 1`` cycles until its
        last column drains, and its first cycle may stall before its first
        loads are enqueued.  Every other cycle of the job moves a wide
        access or has one denied by the HCI:

        * any other stall cycle finds a W, Y or X load queued (a stalled
          job with none queued never changes state again);
        * a cycle spent waiting for Z-queue room after the drain, or in
          the final Z drain, has a Z store queued.

        The accesses are closed-form in the tile grid: ``N`` W lines per
        tile and, per row of the ``tiles_k * M`` tile rows, one X line per
        X block, a Y line when accumulating and a Z line.  The branch
        rotation denies the wide port only after ``max_wide_streak``
        contended grants since the last denial, so denials number at most
        ``accesses // max_wide_streak`` plus one for a streak carried in
        from before the job.  An HCI that never grants exceeds the bound.
        """
        cfg = self.config
        n_tiles = schedule.n_tiles
        issue_end = ((cfg.height - 1) * cfg.latency
                     + schedule.n_chunks * cfg.block_k)
        tile_rows = schedule.tiles_k * job.m
        w_loads = n_tiles * job.n
        x_loads = tile_rows * schedule.n_blocks
        y_loads = tile_rows if job.accumulate else 0
        z_stores = tile_rows
        accesses = w_loads + x_loads + y_loads + z_stores
        denials = accesses // self.hci.config.max_wide_streak + 1
        return (n_tiles * (issue_end + cfg.latency + 1)
                + accesses + denials)

    def _run_tile(self, job: MatmulJob, schedule: TileSchedule, tile: Tile,
                  xbuf: XBlockBuffer, wbuf: WLineBuffer, zbuf: ZStoreBuffer,
                  w_need_order, active_mask: np.ndarray,
                  state: _JobState) -> None:
        """Event-step one tile of the job (the engine hot loop).

        The cycle loop tracks issue tags and timing only.  Every operand
        line the streamer delivers is also kept in the tile's operand
        arrays -- X columns, W lines and the Y pre-load, indexed by inner
        step in issue order -- and once the tile drains they go to the
        backend's chain kernel in one call, which returns the Z lines.
        Using the lines as loaded (never re-reading the TCDM at tile end)
        keeps jobs whose Z region aliases X or W computing what the
        hardware computes.
        """
        cfg = self.config
        height, latency, block_k = cfg.height, cfg.latency, cfg.block_k
        epl = cfg.elements_per_line
        n_chunks = schedule.n_chunks
        n_blocks = schedule.n_blocks
        issue_end = (height - 1) * latency + n_chunks * block_k
        rows, cols = tile.rows, tile.cols

        dtype = format_dtype(cfg.binary_format)
        x_cols = np.zeros((rows, n_blocks * epl), dtype)
        w_lines = np.zeros((job.n, cols), dtype)
        y_lines = np.zeros((rows, cols), dtype)
        # Shared read-only zero line for the padding rows and columns.
        zero_line = np.zeros(epl, dtype)

        xbuf.reset()
        wbuf.reset()
        z_done = 0
        x_enqueued_blocks = 0
        w_ptr = 0
        t = 0

        # Accumulation jobs (Z += X . W) pre-load the existing Z lines of
        # this tile into the row accumulators before the first issue.
        y_pending = 0
        if job.accumulate:
            for row in range(rows):
                self.streamer.enqueue(
                    StreamRequest(
                        kind="y",
                        addr=job.z_element_addr(tile.m0 + row, tile.k0),
                        n_elements=cols,
                        meta=("y", row),
                    )
                )
            y_pending = rows

        while True:
            state.total_cycles += 1
            if state.total_cycles > state.max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {state.max_cycles} cycles "
                    f"({job.describe()}, tile {tile.index})"
                )

            # ---- 1. memory: one wide port cycle --------------------------
            self._drain_zbuf(zbuf)
            finished = self.streamer.cycle()
            if finished is not None and not finished.write:
                if finished.kind == "y":
                    y_lines[finished.meta[1]] = finished.data_bits[:cols]
                    y_pending -= 1
                else:
                    self._fill_buffer(finished, xbuf, wbuf, x_cols, w_lines)

            # ---- 2. demand-driven request generation ----------------------
            x_enqueued_blocks = self._enqueue_x(
                job, tile, xbuf, zero_line, x_enqueued_blocks, n_blocks, t,
            )
            w_ptr = self._enqueue_w(
                job, tile, wbuf, zero_line, w_need_order, w_ptr, t,
            )

            # ---- 3. datapath ----------------------------------------------
            # The first issue waits for every Z pre-load line.
            if t < issue_end:
                ready = y_pending == 0 and self._resources_ready(
                    job, xbuf, wbuf, t, n_chunks
                )
            else:
                ready = True

            if ready:
                completions = self.datapath.tick()
                last = completions.get(height - 1)
                if last is not None and last.chunk == n_chunks - 1:
                    z_done += 1
                if t < issue_end:
                    if self._issue_cycle(job, xbuf, wbuf, completions, t,
                                         n_chunks):
                        state.active_cycles += 1
                t += 1
            else:
                state.stall_cycles += 1

            # ---- 4. tile completion ----------------------------------------
            # The tile ends once every result has drained out of the
            # array *and* the Z buffer has room for this tile's lines
            # (otherwise keep cycling so pending stores trickle out).
            if (
                t >= issue_end
                and not self.datapath.busy
                and zbuf.occupancy + rows <= zbuf.depth
            ):
                break

        if z_done != block_k:
            raise RuntimeError(
                f"tile {tile.index}: expected {block_k} output columns, "
                f"got {z_done}"
            )
        z_lines = self.ops.chain(x_cols[None, :, : job.n], w_lines[None],
                                 y_lines[None], active_mask)[0]
        for row in range(rows):
            accepted = zbuf.push(
                ZStoreRequest(
                    addr=job.z_element_addr(tile.m0 + row, tile.k0),
                    bits=z_lines[row],
                    valid_elements=cols,
                )
            )
            if not accepted:
                raise RuntimeError("Z store buffer overflow")

    # -- helpers -----------------------------------------------------------
    def _drain_zbuf(self, zbuf: ZStoreBuffer) -> None:
        """Move pending Z lines into the streamer's store queue (one per cycle)."""
        if not zbuf.empty and self.streamer.pending("z") < 2:
            request = zbuf.pop()
            self.streamer.enqueue(
                StreamRequest(
                    kind="z",
                    addr=request.addr,
                    n_elements=request.valid_elements,
                    write=True,
                    payload_bits=request.bits[: request.valid_elements],
                )
            )

    def _fill_buffer(self, finished: StreamRequest, xbuf: XBlockBuffer,
                     wbuf: WLineBuffer, x_cols: np.ndarray,
                     w_lines: np.ndarray) -> None:
        """Route a completed load into its buffer and the tile's operands."""
        data = finished.data_bits
        if finished.kind == "w":
            _, col, chunk = finished.meta
            wbuf.load_line(col, chunk, data)
            w_lines[chunk * self.config.height + col] = data[: w_lines.shape[1]]
        elif finished.kind == "x":
            _, block, row = finished.meta
            xbuf.load_line(block, row, data)
            epl = self.config.elements_per_line
            x_cols[row, block * epl : (block + 1) * epl] = data
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unexpected load kind {finished.kind!r}")

    def _enqueue_x(self, job: MatmulJob, tile: Tile, xbuf: XBlockBuffer,
                   zero_line: np.ndarray, next_block: int, n_blocks: int,
                   t: int) -> int:
        """Enqueue X block loads one block ahead of consumption."""
        cfg = self.config
        # One block carries elements_per_line inner-dimension operands and
        # is consumed over (elements_per_line / H) chunks of block_k cycles.
        block_cycles = cfg.latency * cfg.block_k * cfg.elements_per_slot
        while (
            next_block < n_blocks
            and t >= (next_block - 1) * block_cycles
            and xbuf.can_accept(next_block)
        ):
            xbuf.reserve(next_block)
            n_start = next_block * cfg.elements_per_line
            n_count = min(cfg.elements_per_line, job.n - n_start)
            for row in range(cfg.length):
                if row < tile.rows and n_count > 0:
                    self.streamer.enqueue(
                        StreamRequest(
                            kind="x",
                            addr=job.x_element_addr(tile.m0 + row, n_start),
                            n_elements=n_count,
                            meta=("x", next_block, row),
                        )
                    )
                else:
                    xbuf.load_line(next_block, row, zero_line)
            next_block += 1
        return next_block

    def _enqueue_w(self, job: MatmulJob, tile: Tile, wbuf: WLineBuffer,
                   zero_line: np.ndarray, w_need_order, w_ptr: int,
                   t: int) -> int:
        """Enqueue W line loads one line-time ahead of their first broadcast."""
        cfg = self.config
        horizon = cfg.block_k * cfg.w_prefetch_lines
        while w_ptr < len(w_need_order) and w_need_order[w_ptr][0] <= t + horizon:
            _, col, chunk = w_need_order[w_ptr]
            n = chunk * cfg.height + col
            if n < job.n:
                self.streamer.enqueue(
                    StreamRequest(
                        kind="w",
                        addr=job.w_element_addr(n, tile.k0),
                        n_elements=tile.cols,
                        meta=("w", col, chunk),
                    )
                )
            else:
                wbuf.load_line(col, chunk, zero_line)
            w_ptr += 1
        return w_ptr

    def _resources_ready(self, job: MatmulJob, xbuf: XBlockBuffer,
                         wbuf: WLineBuffer, t: int, n_chunks: int) -> bool:
        """Check whether the column crossing a chunk boundary has its operands."""
        cfg = self.config
        for col in range(cfg.height):
            slot = t - col * cfg.latency
            if slot < 0:
                continue
            chunk, k = divmod(slot, cfg.block_k)
            if chunk >= n_chunks or k != 0:
                continue
            n = chunk * cfg.height + col
            if n >= job.n:
                continue
            if not wbuf.has_line(col, chunk):
                return False
            if not xbuf.block_ready(n // cfg.elements_per_line):
                return False
        return True

    def _issue_cycle(self, job: MatmulJob, xbuf: XBlockBuffer,
                     wbuf: WLineBuffer, completions: Dict[int, object],
                     t: int, n_chunks: int) -> bool:
        """Issue every active column for tile-time ``t``; returns True if any.

        Column 0 of chunk ``c`` consumes the feedback of the last column's
        chunk ``c - 1`` issue with the same ``k``, which completes in this
        very cycle; every other column must chain on the tag its left
        neighbour completed this cycle.  Inner-dimension padding slots
        (``n >= N``) issue too -- the lane is operand-gated, so the chain
        kernel skips them.
        """
        cfg = self.config
        issued = False
        for col in range(cfg.height):
            slot = t - col * cfg.latency
            if slot < 0:
                continue
            chunk, k = divmod(slot, cfg.block_k)
            if chunk >= n_chunks:
                continue
            if col > 0:
                previous = completions.get(col - 1)
                if previous is None or previous.chunk != chunk or previous.k != k:
                    raise RuntimeError(
                        f"systolic chaining broken at t={t}, column {col}, "
                        f"chunk {chunk}, k {k}"
                    )
            self.datapath.issue(col, chunk, k)
            issued = True

            if k == cfg.block_k - 1:
                if chunk * cfg.height + col < job.n:
                    wbuf.evict(col, chunk)
                if col == cfg.height - 1:
                    xbuf.evict_before(
                        ((chunk + 1) * cfg.height) // cfg.elements_per_line
                    )
        return issued
