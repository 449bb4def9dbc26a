"""Heterogeneous Cluster Interconnect: top-level model.

The HCI glues together the logarithmic branch (cores / DMA, 32-bit accesses)
and the shallow branch (RedMulE's 288-bit streamer port), multiplexing each
TCDM bank between the two with a starvation-free rotation.

The cycle-accurate RedMulE engine drives :meth:`Hci.wide_cycle` once per cycle
with at most one wide request; a traffic generator (or the core model) can
inject concurrent 32-bit requests through :meth:`Hci.log_cycle` in the same
simulated cycle to study contention.  The paper's headline numbers are
measured with the cores idle while RedMulE runs (they only program the job and
wait), which corresponds to zero logarithmic traffic; the contention ablation
benchmark exercises the other regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.interco.arbiter import BranchRotator
from repro.interco.log_interco import CoreRequest, LogInterconnect
from repro.interco.shallow import ShallowBranch
from repro.mem.tcdm import Tcdm


@dataclass(frozen=True)
class HciConfig:
    """Configuration of the HCI."""

    #: Number of 32-bit initiators on the logarithmic branch (8 cores + DMA).
    n_log_initiators: int = 9
    #: Number of 32-bit lanes of the shallow (HWPE) port.
    n_wide_ports: int = 9
    #: Maximum consecutive contended cycles granted to the wide port.
    max_wide_streak: int = 4


@dataclass
class HciStats:
    """Cycle-level statistics of the HCI."""

    cycles: int = 0
    wide_requests: int = 0
    wide_grants: int = 0
    wide_stalls: int = 0

    @property
    def wide_stall_rate(self) -> float:
        """Fraction of wide requests that were stalled by the rotation."""
        if self.wide_requests == 0:
            return 0.0
        return self.wide_stalls / self.wide_requests


class Hci:
    """Two-branch heterogeneous cluster interconnect."""

    def __init__(self, tcdm: Tcdm, config: HciConfig = HciConfig()) -> None:
        self.tcdm = tcdm
        self.config = config
        self.log_branch = LogInterconnect(tcdm, config.n_log_initiators)
        self.shallow_branch = ShallowBranch(tcdm, config.n_wide_ports)
        self.rotator = BranchRotator(config.max_wide_streak)
        self.stats = HciStats()
        # Log-branch requests registered for the current cycle (consumed by
        # wide_cycle's arbitration and then cleared).
        self._pending_log: List[CoreRequest] = []

    # -- logarithmic branch -------------------------------------------------
    def submit_log_requests(self, requests: Sequence[CoreRequest]) -> None:
        """Register core/DMA requests for the current cycle.

        They are arbitrated against the wide port inside :meth:`wide_cycle`
        (or :meth:`log_cycle` if the accelerator is idle this cycle).
        """
        self._pending_log.extend(requests)

    def log_cycle(self) -> List[CoreRequest]:
        """Advance one cycle with no wide request; serve logarithmic traffic."""
        self.stats.cycles += 1
        granted = self.log_branch.cycle(self._pending_log)
        self._pending_log = []
        return granted

    # -- shallow branch -------------------------------------------------------
    def _grant_wide(self, addr: Optional[int], size: int) -> bool:
        """Run one cycle of branch arbitration for an optional wide request.

        Advances the cycle statistics, serves pending logarithmic traffic on
        the banks the wide port does not own this cycle, and returns whether
        the wide request (if any) was granted.
        """
        self.stats.cycles += 1
        wide_wants = addr is not None
        log_wants = bool(self._pending_log)

        if wide_wants:
            self.stats.wide_requests += 1

        winner = self.rotator.arbitrate(wide_wants, log_wants)
        granted = wide_wants and winner == BranchRotator.WIDE
        if granted:
            self.stats.wide_grants += 1
        elif wide_wants:
            self.stats.wide_stalls += 1

        if log_wants:
            # Logarithmic requests can proceed in parallel on banks the wide
            # port does not own this cycle; if the log branch won the
            # rotation, the wide banks are free anyway.  The bank list is
            # only read here, so a grant without log traffic never builds it.
            blocked = (self.shallow_branch.banks_for(addr, size)
                       if granted else [])
            self.log_branch.cycle(self._pending_log, banks_blocked=blocked)
        self._pending_log = []
        return granted

    def wide_cycle(
        self,
        addr: Optional[int],
        nbytes: int = 0,
        write: bool = False,
        data: Optional[bytes] = None,
    ) -> Optional[bytes]:
        """Advance one cycle with an optional wide request.

        Returns the loaded bytes for a granted wide load, ``b""`` for a
        granted wide store, or ``None`` when the wide request was stalled (or
        absent).  Pending logarithmic requests registered for this cycle are
        arbitrated against the wide access and served if they win or touch
        disjoint banks.
        """
        size = len(data) if (write and data is not None) else nbytes
        if not self._grant_wide(addr, size):
            return None
        if write:
            self.shallow_branch.store(addr, data or b"")
            return b""
        return self.shallow_branch.load(addr, nbytes)

    def wide_line_cycle(
        self,
        addr: Optional[int],
        n_elements: int = 0,
        write: bool = False,
        line=None,
        element_bytes: int = 2,
    ):
        """Advance one cycle with an optional wide *line* request.

        Same arbitration as :meth:`wide_cycle`, but the payload is a line of
        packed elements moved as a pattern array through the TCDM's bulk
        line accessors (``element_bytes`` selects the element width: 16-bit
        halfwords by default, bytes for the FP8 formats).  Returns the loaded
        array for a granted load, ``True`` for a granted store, ``None`` when
        stalled (or absent).
        """
        size = element_bytes * (
            len(line) if (write and line is not None) else n_elements
        )
        if not self._grant_wide(addr, size):
            return None
        if write:
            self.shallow_branch.store_line(addr, line, element_bytes)
            return True
        return self.shallow_branch.load_line(addr, n_elements, element_bytes)

    # -- statistics -----------------------------------------------------------
    def reset_stats(self) -> None:
        """Clear all statistics on both branches and the rotation."""
        self.stats = HciStats()
        self.log_branch.reset_stats()
        self.shallow_branch.reset_stats()
        self.rotator.reset()
