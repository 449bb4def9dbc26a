"""RedMulE reproduction package.

A cycle-accurate, bit-exact Python model of the RedMulE FP16 matrix
multiplication accelerator and of the PULP cluster it plugs into, plus the
software baseline, power/area/energy models, workloads and experiment drivers
needed to regenerate every table and figure of the DATE 2022 paper
"RedMulE: A Compact FP16 Matrix-Multiplication Accelerator for Adaptive Deep
Learning on RISC-V-Based Ultra-Low-Power SoCs".

Subpackages
-----------
``repro.fp``
    Bit-exact round-to-nearest-even arithmetic for FP16/BF16/FP8
    (parameterised formats, FMA, mixed-precision accumulate).
``repro.mem`` / ``repro.interco``
    TCDM, L2 and the Heterogeneous Cluster Interconnect.
``repro.hwpe``
    Register file, controller FSM and stream primitives of the HWPE wrapper.
``repro.redmule``
    The accelerator itself: datapath, buffers, streamer, scheduler,
    cycle-accurate engine, analytical performance model and golden models.
``repro.cluster``
    PULP cluster top level: cores, DMA, event unit, offload flow.
``repro.sw``
    The 8-core software matmul baseline.
``repro.power``
    Area / power / energy models calibrated to the published silicon numbers.
``repro.workloads``
    GEMM sweeps and the TinyMLPerf AutoEncoder training workload.
``repro.graph``
    GEMM-level dataflow IR: workload graphs, the model zoo (MLP, the
    auto-encoder, transformer encoder, im2col conv, LSTM/GRU) and the
    lowering pass to dependency-annotated job streams.
``repro.serve``
    Multi-tenant serving simulator: streaming request generation and one
    event loop serving a pool of simulated clusters, request by request or
    node by node.
``repro.perf`` / ``repro.experiments``
    Metrics, the Table I comparison and one driver per paper table/figure.

Quickstart
----------
>>> from repro import PulpCluster, random_matrix
>>> cluster = PulpCluster()
>>> x = random_matrix(32, 64, seed=0)
>>> w = random_matrix(64, 32, seed=1)
>>> z, outcome = cluster.matmul(x, w)
>>> outcome.accelerator.macs_per_cycle  # doctest: +SKIP
25.9
"""

from repro.cluster import ClusterConfig, OffloadResult, PulpCluster
from repro.dse import DesignSpace, SweepResult, cross_validate, sweep
from repro.farm import (
    FarmResult,
    SimulationFarm,
    TimingCache,
    TimingRecord,
    default_farm,
)
from repro.fp import (
    FORMATS,
    BinaryFormat,
    fma_mixed,
    get_format,
    quantize,
    random_matrix,
)
from repro.mem import MatrixHandle, MemoryAllocator, Tcdm, TcdmConfig
from repro.redmule import (
    MatmulJob,
    RedMulE,
    RedMulEConfig,
    RedMulEPerfModel,
    RedMulEResult,
)
from repro.graph import (
    ElementwiseNode,
    GemmNode,
    LoweredProgram,
    WorkloadGraph,
    build_model,
)
from repro.power import AreaModel, ClusterAreaModel, EnergyModel
from repro.serve import (
    ContinuousReport,
    ContinuousServer,
    ModelSpec,
    RequestGenerator,
    TenantSpec,
)
from repro.sw import SoftwareBaseline
from repro.workloads import AutoEncoder, GemmShape

__version__ = "1.0.0"

__all__ = [
    "AreaModel",
    "AutoEncoder",
    "BinaryFormat",
    "FORMATS",
    "ClusterAreaModel",
    "ClusterConfig",
    "ContinuousReport",
    "ContinuousServer",
    "DesignSpace",
    "ElementwiseNode",
    "EnergyModel",
    "FarmResult",
    "GemmNode",
    "GemmShape",
    "LoweredProgram",
    "MatmulJob",
    "MatrixHandle",
    "MemoryAllocator",
    "ModelSpec",
    "OffloadResult",
    "PulpCluster",
    "RedMulE",
    "RedMulEConfig",
    "RedMulEPerfModel",
    "RedMulEResult",
    "RequestGenerator",
    "SimulationFarm",
    "SoftwareBaseline",
    "SweepResult",
    "Tcdm",
    "TcdmConfig",
    "TenantSpec",
    "TimingCache",
    "TimingRecord",
    "WorkloadGraph",
    "__version__",
    "build_model",
    "cross_validate",
    "default_farm",
    "sweep",
    "fma_mixed",
    "get_format",
    "quantize",
    "random_matrix",
]
