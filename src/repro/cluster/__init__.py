"""PULP cluster substrate.

The cluster is the host system RedMulE plugs into: 8 RISC-V cores, a
multi-banked TCDM behind the HCI, a DMA engine toward the L2 memory, an event
unit for synchronisation, and the peripheral interconnect through which the
cores program HWPEs.  The models here provide the timing context for the
paper's experiments -- offload cost, software baseline execution, DMA-based
tiling from L2 -- without modelling the cores at the instruction level.
"""

from repro.cluster.config import ClusterConfig
from repro.cluster.core import InstructionCosts, RiscvCore
from repro.cluster.dma import DmaEngine, DmaTransfer
from repro.cluster.sync import EventUnit
from repro.cluster.cluster import PulpCluster, OffloadResult
from repro.cluster.tiler import (
    TiledMatmul,
    TiledMatmulPlan,
    TiledMatmulResult,
    plan_tiled_matmul,
)

__all__ = [
    "ClusterConfig",
    "DmaEngine",
    "DmaTransfer",
    "EventUnit",
    "InstructionCosts",
    "OffloadResult",
    "PulpCluster",
    "RiscvCore",
    "TiledMatmul",
    "TiledMatmulPlan",
    "TiledMatmulResult",
    "plan_tiled_matmul",
]
