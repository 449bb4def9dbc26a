"""PULP cluster top level.

:class:`PulpCluster` assembles the full system of Fig. 1: TCDM + HCI,
RedMulE as an HWPE, the DMA toward L2, the event unit and the cores.  It is
the object examples and workloads interact with:

* :meth:`PulpCluster.offload_matmul` runs a matmul on the accelerator exactly
  as bare-metal software would (allocate in TCDM, program the register file,
  trigger, wait for the event), returning both the numerical result and the
  cycle accounting including the offload overhead;
* :meth:`PulpCluster.software_matmul` prices the same job on the 8-core
  software baseline;
* :meth:`PulpCluster.offload_matmul_from_l2` adds DMA tiling for operands
  resident in L2 (double-buffered, DMA overlapped with compute).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.core import RiscvCore
from repro.cluster.dma import DmaEngine, DmaTransfer
from repro.cluster.sync import EventUnit
from repro.interco.hci import Hci, HciConfig
from repro.mem.l2 import L2Memory
from repro.mem.layout import MatrixHandle, MemoryAllocator
from repro.mem.tcdm import Tcdm
from repro.redmule.engine import RedMulE, RedMulEResult
from repro.redmule.job import MatmulJob
from repro.redmule.perf_model import RedMulEPerfModel
from repro.redmule.vector_ops import DEFAULT_BACKEND
from repro.sw.baseline import SoftwareBaseline, SoftwareResult


@dataclass(frozen=True)
class OffloadResult:
    """Cycle accounting of one accelerator offload seen from the core."""

    #: Result of the accelerator job itself.
    accelerator: RedMulEResult
    #: Core cycles spent programming the job and waking up afterwards.
    offload_cycles: float
    #: DMA cycles that could not be hidden behind compute (L2 tiling only).
    exposed_dma_cycles: float = 0.0

    @property
    def total_cycles(self) -> float:
        """End-to-end cycles as seen by the calling core."""
        return self.accelerator.cycles + self.offload_cycles + self.exposed_dma_cycles

    @property
    def macs_per_cycle(self) -> float:
        """Useful MAC throughput including the offload overhead."""
        if self.total_cycles == 0:
            return 0.0
        return self.accelerator.total_macs / self.total_cycles


class PulpCluster:
    """The 8-core PULP cluster with RedMulE attached as an HWPE."""

    def __init__(self, config: Optional[ClusterConfig] = None,
                 arithmetic: str = DEFAULT_BACKEND) -> None:
        self.config = config if config is not None else ClusterConfig()
        self.tcdm = Tcdm(self.config.tcdm)
        self.hci = Hci(
            self.tcdm,
            HciConfig(
                n_log_initiators=self.config.n_cores + 1,
                n_wide_ports=self.config.redmule.n_mem_ports,
                max_wide_streak=self.config.hci_max_wide_streak,
            ),
        )
        self.l2 = L2Memory(self.config.l2)
        self.dma = DmaEngine(self.l2, self.tcdm)
        self.event_unit = EventUnit(n_cores=self.config.n_cores)
        self.cores = [RiscvCore(i) for i in range(self.config.n_cores)]
        self.redmule = RedMulE(self.config.redmule, self.hci,
                               backend=arithmetic)
        self.software = SoftwareBaseline(n_cores=self.config.n_cores)
        self.perf_model = RedMulEPerfModel(self.config.redmule)
        self._allocator = MemoryAllocator(self.tcdm.base, self.tcdm.size)
        self._l2_allocator = MemoryAllocator(self.l2.base, self.l2.size)

    # -- memory management -------------------------------------------------
    def tcdm_allocator(self) -> MemoryAllocator:
        """The cluster's TCDM bump allocator (shared by all callers)."""
        return self._allocator

    def l2_allocator(self) -> MemoryAllocator:
        """The L2 bump allocator."""
        return self._l2_allocator

    def reset_tcdm(self) -> None:
        """Release all TCDM allocations (contents are left in place)."""
        self._allocator.reset()

    def place_matrix(self, matrix: np.ndarray, name: str = "matrix",
                     in_l2: bool = False) -> MatrixHandle:
        """Allocate and store a matrix in TCDM (or L2), in the element
        format of the accelerator."""
        rows, cols = matrix.shape
        fmt = self.config.redmule.format
        if in_l2:
            handle = self._l2_allocator.alloc_matrix(rows, cols, name, fmt)
            handle.store(self.l2, matrix)
        else:
            handle = self._allocator.alloc_matrix(rows, cols, name, fmt)
            handle.store(self.tcdm, matrix)
        return handle

    # -- accelerator path --------------------------------------------------
    def offload_matmul(self, x: MatrixHandle, w: MatrixHandle,
                       z: MatrixHandle, core_id: int = 0,
                       accumulate: bool = False) -> OffloadResult:
        """Run ``Z = X . W`` (or ``Z += X . W``) on RedMulE.

        Operands must already be resident in the TCDM; ``accumulate=True``
        pre-loads the existing Z contents into the accumulators, which is how
        tiled GEMMs and bias additions are composed from multiple jobs.
        """
        job = MatmulJob.from_handles(x, w, z, accumulate=accumulate)
        core = self.cores[core_id]
        offload_cycles = core.offload_cycles(
            n_job_registers=10, include_wait=False
        )
        result = self.redmule.offload(job)
        self.event_unit.raise_event("redmule_done")
        offload_cycles += self.event_unit.wait_event("redmule_done")
        return OffloadResult(accelerator=result, offload_cycles=offload_cycles)

    def matmul(self, x: np.ndarray, w: np.ndarray,
               core_id: int = 0) -> Tuple[np.ndarray, OffloadResult]:
        """Convenience wrapper: place operands, run on RedMulE, read back Z."""
        hx = self.place_matrix(x, "X")
        hw = self.place_matrix(w, "W")
        hz = self._allocator.alloc_matrix(x.shape[0], w.shape[1], "Z",
                                          self.config.redmule.format)
        outcome = self.offload_matmul(hx, hw, hz, core_id=core_id)
        return hz.load(self.tcdm), outcome

    def offload_matmul_from_l2(self, x: MatrixHandle, w: MatrixHandle,
                               z: MatrixHandle,
                               core_id: int = 0) -> OffloadResult:
        """Run a matmul whose operands live in L2, tiling through the TCDM.

        The DMA copies X and W into TCDM, the accelerator runs, and Z is
        copied back.  The inbound DMA of a tile is overlapped with the
        accelerator's processing of the previous tile (double buffering), so
        only the first fill and the final write-back are exposed -- unless the
        transfer is bandwidth-bound, in which case the exposed time grows.
        """
        x_matrix = x.load(self.l2)
        w_matrix = w.load(self.l2)

        tcdm_mark = self._allocator.mark()
        hx = self.place_matrix(x_matrix, "X.tile")
        hw = self.place_matrix(w_matrix, "W.tile")
        hz = self._allocator.alloc_matrix(z.rows, z.cols, "Z.tile",
                                          self.config.redmule.format)

        dma_in = self.dma.execute(DmaTransfer(
            src=x.base, dst=hx.base, row_bytes=x.cols * x.element_bytes,
            rows=x.rows, src_stride=x.row_stride,
        ))
        dma_in += self.dma.execute(DmaTransfer(
            src=w.base, dst=hw.base, row_bytes=w.cols * w.element_bytes,
            rows=w.rows, src_stride=w.row_stride,
        ))

        outcome = self.offload_matmul(hx, hw, hz, core_id=core_id)

        z_matrix = hz.load(self.tcdm)
        z.store(self.l2, z_matrix)
        dma_out = self.dma.execute(DmaTransfer(
            src=hz.base, dst=z.base, row_bytes=z.cols * z.element_bytes,
            rows=z.rows, dst_stride=z.row_stride,
        ))

        # Double buffering hides the inbound DMA behind the previous job and
        # the outbound DMA behind the next one; what cannot be hidden is the
        # amount by which DMA exceeds the compute time.
        hidden = min(dma_in + dma_out, outcome.accelerator.cycles)
        exposed = (dma_in + dma_out) - hidden

        # Release the temporary TCDM tile allocations.
        self._allocator.release_to(tcdm_mark)

        return OffloadResult(
            accelerator=outcome.accelerator,
            offload_cycles=outcome.offload_cycles,
            exposed_dma_cycles=exposed,
        )

    # -- software path --------------------------------------------------------
    def software_matmul(self, m: int, n: int, k: int) -> SoftwareResult:
        """Price the same matmul on the 8-core software baseline."""
        return self.software.run_gemm(m, n, k)

    # -- reporting ----------------------------------------------------------------
    def describe(self) -> str:
        """One-line summary of the cluster configuration."""
        return (
            f"PULP cluster: {self.config.n_cores} cores, "
            f"{self.config.tcdm.n_banks}-bank TCDM "
            f"({self.config.tcdm.size // 1024} KiB), "
            f"{self.config.redmule.describe()}"
        )
