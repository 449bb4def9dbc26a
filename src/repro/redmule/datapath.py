"""The semi-systolic FMA array (column-pipeline implementation).

All ``L`` rows of the array execute the same schedule, so the cycle-accurate
model keeps one pipeline per *column* whose entries stand for one issue into
all ``L`` rows.  An entry issued into column ``c`` completes ``P + 1``
datapath cycles later and feeds column ``c + 1`` (or the feedback / output
of the row when ``c`` is the last column), exactly reproducing the wiring of
Fig. 2b.

The datapath carries issue tags and timing only, never values: the engine
evaluates a tile's arithmetic once, when the tile drains (see
:meth:`repro.redmule.vector_ops.VectorOps.chain`).  It does not know about
tiles, memory or stalls either -- the engine decides when to issue what and
when the array advances.  It only enforces structural legality (one issue
per column per cycle, bounded pipeline depth).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List

from repro.redmule.config import RedMulEConfig


@dataclass
class ColumnEntry:
    """An FMA issue (for all L rows at once) in flight in one column."""

    #: Tag identifying the operation: (chunk index, k index within the tile).
    chunk: int
    k: int
    #: Datapath cycle (count of :meth:`Datapath.tick` calls) at which the
    #: entry leaves the column.
    due: int


class Datapath:
    """``H`` column pipelines, each ``L`` FMA rows wide."""

    def __init__(self, config: RedMulEConfig) -> None:
        self.config = config
        self._pipes: List[Deque[ColumnEntry]] = [
            deque() for _ in range(config.height)
        ]
        self._issued_this_cycle = [False] * config.height
        #: Datapath cycles advanced so far (one per :meth:`tick`).
        self._now = 0

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while any column still has operations in flight."""
        return any(self._pipes)

    def occupancy(self, column: int) -> int:
        """Number of in-flight entries in ``column``."""
        return len(self._pipes[column])

    def tick(self) -> Dict[int, ColumnEntry]:
        """Advance the array one cycle.

        Returns a map ``column -> entry`` of the operations that completed
        this cycle (at most one per column).  The engine calls it once per
        cycle in which the array advances -- never on stall cycles, when
        the whole array is frozen -- before any :meth:`issue` of that cycle.
        """
        self._now = now = self._now + 1
        self._issued_this_cycle = [False] * self.config.height
        completed: Dict[int, ColumnEntry] = {}
        for column, pipe in enumerate(self._pipes):
            if pipe and pipe[0].due == now:
                completed[column] = pipe.popleft()
        return completed

    def issue(self, column: int, chunk: int, k: int) -> None:
        """Issue tag ``(chunk, k)`` into ``column``.

        Inner-dimension padding slots issue like any other: the gated lane
        still occupies its pipeline stage (same timing, counted in
        :meth:`repro.redmule.scheduler.TileSchedule.issued_macs`); the
        arithmetic skips it.
        """
        config = self.config
        if not (0 <= column < config.height):
            raise IndexError(f"column {column} out of range")
        if self._issued_this_cycle[column]:
            raise RuntimeError(f"column {column}: second issue in the same cycle")
        pipe = self._pipes[column]
        latency = config.latency
        if len(pipe) >= latency:
            raise RuntimeError(
                f"column {column}: pipeline overflow "
                f"({len(pipe)} entries, latency {latency})"
            )
        pipe.append(ColumnEntry(chunk=chunk, k=k, due=self._now + latency))
        self._issued_this_cycle[column] = True

    def flush(self) -> None:
        """Drop all in-flight operations (between jobs)."""
        for pipe in self._pipes:
            pipe.clear()
        self._issued_this_cycle = [False] * self.config.height
