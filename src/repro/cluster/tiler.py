"""Tiled execution of GEMMs that do not fit the TCDM.

The TCDM of the cluster is small (128 KiB in the reference configuration), so
any realistically sized layer -- e.g. the batched auto-encoder layers whose
working set lives in L2 -- must be processed as a sequence of accelerator jobs
over tiles of the operands, with the DMA moving tiles between L2 and TCDM and
the accelerator accumulating partial products across inner-dimension tiles
(``Z += X . W`` jobs, see :class:`repro.redmule.job.MatmulJob`).

Two pieces are provided:

* :func:`plan_tiled_matmul` -- choose tile sizes that fit a TCDM budget
  (honouring the accelerator's natural granularities: multiples of ``L`` rows
  and ``block_k`` columns) and predict the job count and DMA traffic;
* :class:`TiledMatmul` -- execute the plan on a :class:`~repro.cluster.cluster.
  PulpCluster`: real DMA transfers, real accelerator jobs, result written back
  to L2, cycle accounting returned.

A tiled GEMM is timed without executing it by lowering its graph with
``tile=True`` and timing the program on the simulation farm
(:meth:`repro.farm.SimulationFarm.time_program`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster.dma import DmaTransfer
from repro.mem.layout import ELEMENT_BYTES, MatrixHandle
from repro.redmule.config import RedMulEConfig


@dataclass(frozen=True)
class TiledMatmulPlan:
    """A tiling plan for ``Z[M,K] = X[M,N] . W[N,K]`` through the TCDM."""

    m: int
    n: int
    k: int
    tile_m: int
    tile_n: int
    tile_k: int
    tcdm_budget_bytes: int
    #: Bytes per matrix element (2 for FP16/BF16, 1 for FP8).
    element_bytes: int = ELEMENT_BYTES

    # ------------------------------------------------------------------
    @property
    def tiles_m(self) -> int:
        """Number of tiles along M."""
        return -(-self.m // self.tile_m)

    @property
    def tiles_n(self) -> int:
        """Number of tiles along the inner dimension (accumulation depth)."""
        return -(-self.n // self.tile_n)

    @property
    def tiles_k(self) -> int:
        """Number of tiles along K."""
        return -(-self.k // self.tile_k)

    @property
    def n_jobs(self) -> int:
        """Total accelerator jobs the plan issues."""
        return self.tiles_m * self.tiles_n * self.tiles_k

    @property
    def tile_footprint_bytes(self) -> int:
        """TCDM bytes needed for one in-flight tile set (X, W and Z tiles)."""
        elements = (self.tile_m * self.tile_n + self.tile_n * self.tile_k
                    + self.tile_m * self.tile_k)
        return elements * self.element_bytes

    @property
    def dma_bytes(self) -> int:
        """Total bytes moved by the DMA over the whole plan.

        Every X tile is loaded once per K tile, every W tile once per M tile,
        and every Z tile is written back once.
        """
        x_bytes = self.m * self.n * self.element_bytes * self.tiles_k
        w_bytes = self.n * self.k * self.element_bytes * self.tiles_m
        z_bytes = self.m * self.k * self.element_bytes
        return x_bytes + w_bytes + z_bytes

    def describe(self) -> str:
        """One-line summary of the plan."""
        return (
            f"{self.m}x{self.n}x{self.k} as "
            f"{self.tiles_m}x{self.tiles_n}x{self.tiles_k} tiles of "
            f"{self.tile_m}x{self.tile_n}x{self.tile_k} "
            f"({self.n_jobs} jobs, {self.tile_footprint_bytes} B/tile-set)"
        )


@dataclass
class TiledMatmulResult:
    """Cycle accounting of an executed tiling plan."""

    plan: TiledMatmulPlan
    #: Sum of the accelerator cycles of every job.
    compute_cycles: float
    #: Total DMA busy cycles.
    dma_cycles: float
    #: DMA cycles that could not be hidden behind accelerator jobs.
    exposed_dma_cycles: float
    #: Core-side offload cycles (register programming, events).
    offload_cycles: float
    #: Jobs executed.
    n_jobs: int

    @property
    def total_cycles(self) -> float:
        """End-to-end cycles with DMA/compute overlap."""
        return self.compute_cycles + self.exposed_dma_cycles + self.offload_cycles


#: Smallest TCDM budget the planner (and graph lowering) accepts.
MIN_TCDM_BUDGET_BYTES = 8 * 1024


def _round_down_multiple(value: int, granule: int, minimum: int) -> int:
    """Round ``value`` down to a multiple of ``granule`` (at least ``minimum``)."""
    rounded = max((value // granule) * granule, minimum)
    return rounded


def plan_tiled_matmul(
    m: int,
    n: int,
    k: int,
    config: Optional[RedMulEConfig] = None,
    tcdm_budget_bytes: int = 96 * 1024,
) -> TiledMatmulPlan:
    """Choose tile sizes for a GEMM so one tile set fits the TCDM budget.

    The heuristic keeps the inner dimension tile as large as possible first
    (deep accumulation minimises Z re-reads), then grows M and K tiles to the
    accelerator's natural granularities (multiples of ``L`` and ``block_k``).
    """
    if m <= 0 or n <= 0 or k <= 0:
        raise ValueError("matrix dimensions must be positive")
    if tcdm_budget_bytes < MIN_TCDM_BUDGET_BYTES:
        raise ValueError("a TCDM budget below 8 KiB is not practical")
    config = config or RedMulEConfig.reference()
    element_bytes = config.element_bytes

    def footprint(tile_m: int, tile_n: int, tile_k: int) -> int:
        elements = tile_m * tile_n + tile_n * tile_k + tile_m * tile_k
        return elements * element_bytes

    tile_m, tile_n, tile_k = m, n, k
    # Shrink the largest dimension (in granule steps) until the tile set fits.
    while footprint(tile_m, tile_n, tile_k) > tcdm_budget_bytes:
        candidates = [
            ("m", tile_m, config.length),
            ("n", tile_n, config.elements_per_line),
            ("k", tile_k, config.elements_per_line),
        ]
        # Prefer shrinking the largest tile dimension; never go below one
        # hardware granule.
        candidates.sort(key=lambda item: item[1], reverse=True)
        shrunk = False
        for name, value, granule in candidates:
            if value <= granule:
                continue
            new_value = _round_down_multiple(value - granule, granule, granule)
            if name == "m":
                tile_m = new_value
            elif name == "n":
                tile_n = new_value
            else:
                tile_k = new_value
            shrunk = True
            break
        if not shrunk:
            raise ValueError(
                f"cannot tile {m}x{n}x{k} into a {tcdm_budget_bytes}-byte budget"
            )
    return TiledMatmulPlan(m=m, n=n, k=k, tile_m=tile_m, tile_n=tile_n,
                           tile_k=tile_k, tcdm_budget_bytes=tcdm_budget_bytes,
                           element_bytes=element_bytes)


class TiledMatmul:
    """Execute a tiling plan on a :class:`~repro.cluster.cluster.PulpCluster`."""

    def __init__(self, cluster, plan: TiledMatmulPlan) -> None:
        self.cluster = cluster
        self.plan = plan

    def run(self, x_l2: MatrixHandle, w_l2: MatrixHandle,
            z_l2: MatrixHandle) -> TiledMatmulResult:
        """Run ``Z = X . W`` with all operands resident in L2.

        The result matrix in L2 is overwritten with the product; cycle
        accounting (compute, DMA, offload, overlap) is returned.
        """
        plan = self.plan
        cluster = self.cluster
        if (x_l2.rows, x_l2.cols) != (plan.m, plan.n):
            raise ValueError("X handle does not match the plan")
        if (w_l2.rows, w_l2.cols) != (plan.n, plan.k):
            raise ValueError("W handle does not match the plan")
        if (z_l2.rows, z_l2.cols) != (plan.m, plan.k):
            raise ValueError("Z handle does not match the plan")

        allocator = cluster.tcdm_allocator()
        mark = allocator.mark()
        x_tile = allocator.alloc_matrix(plan.tile_m, plan.tile_n, "tiler.X")
        w_tile = allocator.alloc_matrix(plan.tile_n, plan.tile_k, "tiler.W")
        z_tile = allocator.alloc_matrix(plan.tile_m, plan.tile_k, "tiler.Z")

        compute_cycles = 0.0
        offload_cycles = 0.0
        dma_cycles = 0.0
        exposed_dma = 0.0
        jobs = 0

        for m0 in range(0, plan.m, plan.tile_m):
            rows = min(plan.tile_m, plan.m - m0)
            for k0 in range(0, plan.k, plan.tile_k):
                cols = min(plan.tile_k, plan.k - k0)
                # Fresh accumulator tile.
                z_view = MatrixHandle(z_tile.base, rows, cols,
                                      row_stride=z_tile.row_stride,
                                      name="tiler.Zv")
                z_view.store(cluster.tcdm, np.zeros((rows, cols),
                                                    dtype=np.float32))
                for n0 in range(0, plan.n, plan.tile_n):
                    inner = min(plan.tile_n, plan.n - n0)
                    dma_in = cluster.dma.execute(DmaTransfer(
                        src=x_l2.address_of(m0, n0), dst=x_tile.base,
                        row_bytes=inner * ELEMENT_BYTES, rows=rows,
                        src_stride=x_l2.row_stride,
                        dst_stride=x_tile.row_stride,
                    ))
                    dma_in += cluster.dma.execute(DmaTransfer(
                        src=w_l2.address_of(n0, k0), dst=w_tile.base,
                        row_bytes=cols * ELEMENT_BYTES, rows=inner,
                        src_stride=w_l2.row_stride,
                        dst_stride=w_tile.row_stride,
                    ))
                    x_view = MatrixHandle(x_tile.base, rows, inner,
                                          row_stride=x_tile.row_stride,
                                          name="tiler.Xv")
                    w_view = MatrixHandle(w_tile.base, inner, cols,
                                          row_stride=w_tile.row_stride,
                                          name="tiler.Wv")
                    outcome = cluster.offload_matmul(x_view, w_view, z_view,
                                                     accumulate=True)
                    jobs += 1
                    compute_cycles += outcome.accelerator.cycles
                    offload_cycles += outcome.offload_cycles
                    dma_cycles += dma_in
                    # Double buffering hides the inbound DMA behind the
                    # previous job; only the excess is exposed.
                    exposed_dma += max(0.0, dma_in - outcome.accelerator.cycles)
                # Write the finished Z tile back to L2.
                dma_out = cluster.dma.execute(DmaTransfer(
                    src=z_tile.base, dst=z_l2.address_of(m0, k0),
                    row_bytes=cols * ELEMENT_BYTES, rows=rows,
                    src_stride=z_tile.row_stride,
                    dst_stride=z_l2.row_stride,
                ))
                dma_cycles += dma_out
                exposed_dma += max(0.0, dma_out - compute_cycles / max(jobs, 1))

        # The very first inbound DMA cannot be hidden behind anything.
        first_tile_fill = cluster.l2.burst_cycles(
            plan.tile_m * plan.tile_n * ELEMENT_BYTES
        )
        exposed_dma += first_tile_fill

        allocator.release_to(mark)
        return TiledMatmulResult(
            plan=plan,
            compute_cycles=compute_cycles,
            dma_cycles=dma_cycles,
            exposed_dma_cycles=exposed_dma,
            offload_cycles=offload_cycles,
            n_jobs=jobs,
        )
