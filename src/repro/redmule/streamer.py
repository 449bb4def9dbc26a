"""RedMulE streamer: the single wide memory port and its scheduling.

The streamer owns the accelerator's 9 x 32-bit (288-bit) connection to the
HCI shallow branch.  One wide access can be performed per cycle, shared
between four traffic classes:

* **W loads** -- one line (``block_k`` slots) every ``P+1`` cycles in steady
  state (highest priority: a missing W line stalls the whole array);
* **Y loads** -- an accumulation job's existing Z lines, pre-loaded at the
  start of each tile;
* **X loads** -- refills of the X block buffer, interleaved between W loads;
* **Z stores** -- draining of computed output lines, using left-over slots.

The engine enqueues :class:`StreamRequest` descriptors as it discovers the
demand; every simulated cycle the streamer picks the highest-priority pending
request, performs it through :meth:`repro.interco.hci.Hci.wide_line_cycle`
(which may stall it when the branch rotation favours the cores), and hands
the completed request back to the engine.  Lines travel as pattern arrays
(``uint16``, or ``uint8`` for FP8) end to end -- one bulk TCDM access per
line, no per-element marshalling at this boundary.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Sequence

import numpy as np

from repro.interco.hci import Hci
from repro.redmule.config import RedMulEConfig

#: Traffic classes in priority order (lower value = higher priority).
PRIORITY_W = 0
PRIORITY_Y = 1
PRIORITY_X = 2
PRIORITY_Z = 3


@dataclass
class StreamRequest:
    """One wide memory access requested by the engine.

    For loads, ``n_elements`` elements are read starting at ``addr`` and
    padded with zeros up to the configured line width; for stores,
    ``payload_bits`` (already truncated to the valid elements; a pattern
    array or any integer sequence) are written.  ``meta`` is an opaque tag
    the engine uses to route the completed data (e.g. ``("w", column,
    chunk)``, ``("x", block, row)`` or ``("y", row)``).
    """

    kind: str  # "w", "y" (Z pre-load of an accumulation job), "x" or "z"
    addr: int
    n_elements: int
    write: bool = False
    payload_bits: Optional[Sequence[int]] = None
    meta: tuple = ()
    #: Filled in by the streamer for completed loads: a pattern array
    #: (``uint16``, or ``uint8`` for FP8) padded to the line width.
    data_bits: Optional[np.ndarray] = None


@dataclass
class StreamerStats:
    """Port-level statistics collected over a job."""

    cycles: int = 0
    w_loads: int = 0
    x_loads: int = 0
    #: Z pre-loads performed for accumulation jobs (``Z += X . W``).
    y_loads: int = 0
    z_stores: int = 0
    stall_cycles: int = 0
    idle_cycles: int = 0

    @property
    def accesses(self) -> int:
        """Total wide accesses performed."""
        return self.w_loads + self.x_loads + self.y_loads + self.z_stores

    @property
    def port_utilisation(self) -> float:
        """Fraction of cycles in which the wide port moved data."""
        if self.cycles == 0:
            return 0.0
        return self.accesses / self.cycles


class Streamer:
    """Priority scheduler for the accelerator's wide memory port."""

    _PRIORITIES: Dict[str, int] = {
        "w": PRIORITY_W, "y": PRIORITY_Y, "x": PRIORITY_X, "z": PRIORITY_Z,
    }

    def __init__(self, config: RedMulEConfig, hci: Hci) -> None:
        self.config = config
        self.hci = hci
        if config.n_mem_ports > hci.config.n_wide_ports:
            raise ValueError(
                f"RedMulE needs {config.n_mem_ports} 32-bit ports but the HCI "
                f"shallow branch only has {hci.config.n_wide_ports}"
            )
        self._queues: Dict[str, Deque[StreamRequest]] = {
            "w": deque(),
            "y": deque(),
            "x": deque(),
            "z": deque(),
        }
        self.stats = StreamerStats()

    # -- queue management -----------------------------------------------------
    def enqueue(self, request: StreamRequest) -> None:
        """Queue a wide access for a future cycle."""
        if request.kind not in self._queues:
            raise ValueError(f"unknown stream kind {request.kind!r}")
        if request.write and request.payload_bits is None:
            raise ValueError("store request without payload")
        self._queues[request.kind].append(request)

    def snapshot_queue(self, kind: str) -> list:
        """The queued requests of ``kind``, oldest first (not removed)."""
        return list(self._queues[kind])

    def restore_queue(self, kind: str, requests: Sequence[StreamRequest]) -> None:
        """Replace the queue of ``kind`` wholesale (trace-replay boundary)."""
        queue = self._queues[kind]
        queue.clear()
        queue.extend(requests)

    def pending(self, kind: Optional[str] = None) -> int:
        """Number of queued requests (optionally of one kind)."""
        if kind is not None:
            return len(self._queues[kind])
        return sum(len(queue) for queue in self._queues.values())

    @property
    def busy(self) -> bool:
        """True while any request is still queued."""
        return self.pending() > 0

    # -- per-cycle operation -----------------------------------------------------
    def _select(self) -> Optional[StreamRequest]:
        for kind in ("w", "y", "x", "z"):
            if self._queues[kind]:
                return self._queues[kind][0]
        return None

    def cycle(self) -> Optional[StreamRequest]:
        """Advance one cycle; return the request completed this cycle, if any.

        Exactly one call per simulated cycle: it also advances the HCI wide
        port (so logarithmic-branch traffic registered for this cycle gets
        arbitrated even when the streamer is idle).
        """
        self.stats.cycles += 1
        request = self._select()
        if request is None:
            self.hci.wide_line_cycle(None)
            self.stats.idle_cycles += 1
            return None

        element_bytes = self.config.element_bytes
        if request.write:
            outcome = self.hci.wide_line_cycle(
                request.addr, write=True, line=request.payload_bits,
                element_bytes=element_bytes,
            )
        else:
            outcome = self.hci.wide_line_cycle(request.addr,
                                               n_elements=request.n_elements,
                                               element_bytes=element_bytes)
        if outcome is None:
            # The branch rotation stalled the wide port this cycle; retry.
            self.stats.stall_cycles += 1
            return None

        self._queues[request.kind].popleft()
        if request.write:
            self.stats.z_stores += 1
        else:
            request.data_bits = pad_line(outcome, self.config.elements_per_line)
            if request.kind == "w":
                self.stats.w_loads += 1
            elif request.kind == "y":
                self.stats.y_loads += 1
            else:
                self.stats.x_loads += 1
        return request

    def reset_stats(self) -> None:
        """Clear the port statistics (queues are left untouched)."""
        self.stats = StreamerStats()

    def flush(self) -> None:
        """Drop every queued request (recovery path after an aborted job).

        A job that dies mid-simulation (e.g. on the ``max_cycles`` watchdog)
        leaves its pending loads and stores queued; completing them into the
        *next* job's buffers would corrupt it, so the engine flushes the
        queues before re-raising.
        """
        for queue in self._queues.values():
            queue.clear()


def pad_line(line: np.ndarray, pad_to: int) -> np.ndarray:
    """Zero-pad a loaded pattern line up to the streamer line width."""
    if len(line) >= pad_to:
        return line
    padded = np.zeros(pad_to, dtype=line.dtype)
    padded[: len(line)] = line
    return padded
