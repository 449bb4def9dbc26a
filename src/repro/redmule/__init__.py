"""RedMulE: the Reduced-precision matrix Multiplication Engine.

This package is the paper's primary contribution: a parametric, tightly
coupled FP16 matrix-multiplication accelerator.  It contains

* the architectural configuration (:mod:`repro.redmule.config`),
* the job descriptor programmed by software (:mod:`repro.redmule.job`),
* structural models of the datapath building blocks -- the semi-systolic
  array of pipelined FMA rows with feedback, and the X/W/Z buffers
  (:mod:`repro.redmule.datapath`, :mod:`repro.redmule.buffers`),
* the per-tile chain kernels, one per arithmetic backend, that evaluate a
  tile's arithmetic once it drains (:mod:`repro.redmule.vector_ops`),
* the streamer that schedules the single 288-bit memory port
  (:mod:`repro.redmule.streamer`),
* the tiling scheduler (:mod:`repro.redmule.scheduler`),
* the register file + controller (:mod:`repro.redmule.controller`),
* the cycle-accurate engine that ties everything together
  (:mod:`repro.redmule.engine`),
* trace compilation of the engine's cycle schedules -- record once, replay
  the data plane vectorized (:mod:`repro.redmule.trace`),
* a closed-form performance model validated against the engine
  (:mod:`repro.redmule.perf_model`), and
* golden functional references (:mod:`repro.redmule.functional`).
"""

from repro.redmule.config import RedMulEConfig
from repro.redmule.job import MatmulJob
from repro.redmule.datapath import Datapath
from repro.redmule.buffers import WLineBuffer, XBlockBuffer, ZStoreBuffer
from repro.redmule.streamer import Streamer, StreamerStats
from repro.redmule.scheduler import Tile, TileSchedule
from repro.redmule.controller import RedMulEController, REDMULE_REGISTERS
from repro.redmule.engine import RedMulE, RedMulEResult
from repro.redmule.perf_model import (
    PerfEstimate,
    ProgramEstimate,
    RedMulEPerfModel,
)
from repro.redmule.functional import (
    matmul_hw_order_exact_fmt,
    matmul_hw_order_simd_fmt,
    matmul_reference_fp32,
)
from repro.redmule.trace import (
    ScheduleTrace,
    TraceStore,
    reset_shared_trace_stores,
    shared_trace_store,
)
from repro.redmule.vector_ops import (
    VECTOR_OPS_BACKENDS,
    ExactSimdVectorOps,
    ExactVectorOps,
    TraceVectorOps,
    make_vector_ops,
)

__all__ = [
    "Datapath",
    "ExactSimdVectorOps",
    "ExactVectorOps",
    "MatmulJob",
    "PerfEstimate",
    "ProgramEstimate",
    "REDMULE_REGISTERS",
    "RedMulE",
    "RedMulEConfig",
    "RedMulEController",
    "RedMulEPerfModel",
    "RedMulEResult",
    "ScheduleTrace",
    "Streamer",
    "StreamerStats",
    "Tile",
    "TileSchedule",
    "TraceStore",
    "TraceVectorOps",
    "VECTOR_OPS_BACKENDS",
    "WLineBuffer",
    "XBlockBuffer",
    "ZStoreBuffer",
    "make_vector_ops",
    "matmul_hw_order_exact_fmt",
    "matmul_hw_order_simd_fmt",
    "matmul_reference_fp32",
    "reset_shared_trace_stores",
    "shared_trace_store",
]
