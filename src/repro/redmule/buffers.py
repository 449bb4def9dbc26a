"""RedMulE's internal operand buffers: X block buffer, W line buffer, Z store queue.

The streamer fills these buffers through the single 288-bit port; the datapath
consumes them.  Their geometry follows Section II-B of the paper:

* **X buffer** -- one ``elements_per_line``-element line per row (``block_k``
  elements for the 16-bit formats, ``2 * block_k`` for FP8); the datapath
  consumes one element per row per ``H*(P+1)``-cycle column slot, so a full
  block of ``L`` lines covers ``elements_per_line / H`` inner-dimension
  chunks.  The model keeps up to two blocks resident (the one being consumed
  and the one being prefetched), which is what the element-wise refill of
  the real buffer achieves.
* **W buffer** -- ``H`` shift registers of one line each; each column
  broadcasts one slot per cycle and needs a fresh line every ``block_k``
  cycles, staggered by ``P+1`` cycles between columns.
* **Z buffer** -- collects one output line per row at the end of a tile and
  drains it to memory through the streamer's spare port slots.

The X and W buffers model residency and back-pressure: the engine stores the
raw pattern lines the streamer delivered (the arithmetic runs once per tile,
on the operand lines the engine keeps alongside), and the buffers treat them
as opaque objects.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.redmule.config import RedMulEConfig


class XBlockBuffer:
    """Per-row X lines, organised in line-wide blocks of the inner dimension.

    A *block* ``b`` holds elements ``n in [b*E, (b+1)*E)`` of the current
    tile's ``L`` rows, where ``E = config.elements_per_line`` (``block_k``
    for the 16-bit formats, ``2 * block_k`` for FP8).  The buffer can hold
    ``capacity_blocks`` blocks at once (2 by default: consume + prefetch).
    """

    def __init__(self, config: RedMulEConfig, capacity_blocks: int = 2) -> None:
        if capacity_blocks < 1:
            raise ValueError("capacity_blocks must be >= 1")
        self.config = config
        self.capacity_blocks = capacity_blocks
        # blocks[b] = list of per-row lines (None until loaded).
        self._blocks: Dict[int, List[Optional[object]]] = {}
        #: Number of line loads accepted.
        self.lines_loaded = 0

    def reset(self) -> None:
        """Drop all blocks (called at the start of every tile)."""
        self._blocks.clear()

    def resident_blocks(self) -> List[int]:
        """Indices of blocks currently reserved or (partially) resident."""
        return sorted(self._blocks)

    def can_accept(self, block: int) -> bool:
        """True if a line of ``block`` could be accepted without eviction."""
        if block in self._blocks:
            return True
        return len(self._blocks) < self.capacity_blocks

    def reserve(self, block: int) -> List[Optional[object]]:
        """Claim a slot for ``block`` and return its per-row lines.

        The engine reserves a block when it queues the block's loads, so a
        block whose lines are still in flight counts against the capacity.
        """
        if not self.can_accept(block):
            raise RuntimeError(
                f"X buffer overflow: block {block} does not fit "
                f"(resident: {self.resident_blocks()})"
            )
        return self._blocks.setdefault(block, [None] * self.config.length)

    def load_line(self, block: int, row: int, line: object) -> None:
        """Store the X line of ``row`` for ``block`` (one wide memory access)."""
        rows = self.reserve(block)
        if rows[row] is not None:
            raise RuntimeError(f"X line (block {block}, row {row}) loaded twice")
        rows[row] = line
        self.lines_loaded += 1

    def block_ready(self, block: int) -> bool:
        """True when every row line of ``block`` has been loaded."""
        rows = self._blocks.get(block)
        return rows is not None and all(line is not None for line in rows)

    def missing_lines(self, block: int) -> List[int]:
        """Rows of ``block`` still waiting for their line."""
        rows = self._blocks.get(block)
        if rows is None:
            return list(range(self.config.length))
        return [row for row, line in enumerate(rows) if line is None]

    def lines(self, block: int) -> List[object]:
        """Return the ``L`` per-row lines of a ready block."""
        if not self.block_ready(block):
            raise RuntimeError(f"X block {block} not fully loaded")
        return list(self._blocks[block])

    def evict_before(self, block: int) -> None:
        """Drop all blocks with an index lower than ``block``."""
        for stale in [b for b in self._blocks if b < block]:
            del self._blocks[stale]


class WLineBuffer:
    """W shift registers: one line (``block_k`` slots) per (column, chunk).

    Lines are keyed by the chunk they serve; a column's line for chunk ``p``
    is consumed over the ``block_k`` cycles the column spends on that chunk
    and can be dropped afterwards.  ``prefetch_lines`` extra lines per column
    may be staged ahead of use.
    """

    def __init__(self, config: RedMulEConfig) -> None:
        self.config = config
        self._lines: Dict[Tuple[int, int], object] = {}
        #: Number of line loads accepted.
        self.lines_loaded = 0

    def reset(self) -> None:
        """Drop all lines (called at the start of every tile)."""
        self._lines.clear()

    def load_line(self, column: int, chunk: int, line: object) -> None:
        """Store the W line broadcast by ``column`` during ``chunk``."""
        key = (column, chunk)
        if key in self._lines:
            raise RuntimeError(f"W line {key} loaded twice")
        self._lines[key] = line
        self.lines_loaded += 1

    def has_line(self, column: int, chunk: int) -> bool:
        """True when the line for ``(column, chunk)`` is resident."""
        return (column, chunk) in self._lines

    def line(self, column: int, chunk: int) -> object:
        """Return the resident line for ``(column, chunk)``."""
        return self._lines[(column, chunk)]

    def resident_count(self, column: Optional[int] = None) -> int:
        """Number of resident lines (optionally for a single column)."""
        if column is None:
            return len(self._lines)
        return sum(1 for (col, _chunk) in self._lines if col == column)

    def evict(self, column: int, chunk: int) -> None:
        """Drop the line once its chunk has been fully issued."""
        self._lines.pop((column, chunk), None)

    def evict_chunks_before(self, column: int, chunk: int) -> None:
        """Drop every line of ``column`` serving a chunk older than ``chunk``."""
        stale = [key for key in self._lines if key[0] == column and key[1] < chunk]
        for key in stale:
            del self._lines[key]


@dataclass
class ZStoreRequest:
    """One pending Z line store."""

    addr: int
    #: Pattern line to store: a ``uint16`` array or 16-bit integer sequence.
    bits: Sequence[int]
    #: Number of leading elements of ``bits`` that are architecturally valid
    #: (edge tiles store fewer than ``block_k`` elements).
    valid_elements: int


class ZStoreBuffer:
    """Queue of computed Z lines waiting for a free port slot to be stored."""

    def __init__(self, config: RedMulEConfig) -> None:
        self.config = config
        self.depth = config.z_queue_depth
        self._queue: Deque[ZStoreRequest] = deque()
        #: Number of stores pushed.
        self.pushes = 0
        #: Number of stores drained to memory.
        self.drains = 0
        #: Peak occupancy observed.
        self.max_occupancy = 0

    @property
    def occupancy(self) -> int:
        """Pending stores."""
        return len(self._queue)

    @property
    def full(self) -> bool:
        """True when no further result line can be accepted."""
        return len(self._queue) >= self.depth

    @property
    def empty(self) -> bool:
        """True when nothing is waiting to be stored."""
        return not self._queue

    def push(self, request: ZStoreRequest) -> bool:
        """Queue a result line; returns ``False`` (caller must stall) when full."""
        if self.full:
            return False
        self._queue.append(request)
        self.pushes += 1
        self.max_occupancy = max(self.max_occupancy, len(self._queue))
        return True

    def peek(self) -> Optional[ZStoreRequest]:
        """Oldest pending store, if any."""
        return self._queue[0] if self._queue else None

    def pop(self) -> Optional[ZStoreRequest]:
        """Remove and return the oldest pending store."""
        if not self._queue:
            return None
        self.drains += 1
        return self._queue.popleft()

    def snapshot(self) -> List[ZStoreRequest]:
        """The queued stores, oldest first (not removed)."""
        return list(self._queue)

    def restore(self, entries: Sequence[ZStoreRequest]) -> None:
        """Replace the queue wholesale (trace-replay boundary)."""
        self._queue.clear()
        self._queue.extend(entries)
