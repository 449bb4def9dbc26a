"""Performance metrics shared by the experiments and benchmarks.

Beyond simple unit conversions (MAC/cycle to GFLOPS, speedups), this module
times whole multi-GEMM workloads on both sides of the comparison: the
accelerator (through the validated analytical performance model, optionally
adding the per-job offload cost) and the 8-core software baseline.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.redmule.config import RedMulEConfig
from repro.redmule.perf_model import RedMulEPerfModel
from repro.sw.baseline import SoftwareBaseline
from repro.workloads.gemm import GemmShape, WorkloadTiming


def gmacs(macs_per_cycle: float, frequency_hz: float) -> float:
    """Convert a MAC/cycle throughput into GMAC/s at a clock frequency."""
    return macs_per_cycle * frequency_hz / 1e9


def gflops(macs_per_cycle: float, frequency_hz: float) -> float:
    """Convert a MAC/cycle throughput into GFLOPS (2 ops per MAC)."""
    return 2.0 * gmacs(macs_per_cycle, frequency_hz)


def speedup(baseline_cycles: float, accelerated_cycles: float) -> float:
    """Baseline cycles divided by accelerated cycles."""
    if accelerated_cycles <= 0:
        raise ValueError("accelerated cycle count must be positive")
    return baseline_cycles / accelerated_cycles


def fraction_of_ideal(macs_per_cycle: float, config: RedMulEConfig) -> float:
    """Achieved throughput relative to the array's peak (Fig. 4a metric)."""
    return macs_per_cycle / config.ideal_macs_per_cycle


def time_workload_hw(
    shapes: Iterable[GemmShape],
    config: Optional[RedMulEConfig] = None,
    offload_cycles_per_job: float = 0.0,
) -> WorkloadTiming:
    """Time a workload on RedMulE using the analytical performance model.

    :meth:`repro.farm.SimulationFarm.time_workload` is the batch-level,
    cached front door that produces identical numbers; this direct path is
    kept as the model-only reference implementation.
    """
    config = config or RedMulEConfig.reference()
    model = RedMulEPerfModel(config)
    per_gemm: Dict[str, float] = {}
    total_cycles = 0.0
    total_macs = 0
    for shape in shapes:
        estimate = model.estimate_gemm(shape.m, shape.n, shape.k)
        cycles = estimate.cycles + offload_cycles_per_job
        per_gemm[shape.name] = cycles
        total_cycles += cycles
        total_macs += shape.macs
    return WorkloadTiming(target="redmule", cycles=total_cycles, macs=total_macs,
                          per_gemm=per_gemm)


def time_workload_sw(
    shapes: Iterable[GemmShape],
    baseline: Optional[SoftwareBaseline] = None,
) -> WorkloadTiming:
    """Time a workload on the 8-core software baseline."""
    baseline = baseline or SoftwareBaseline()
    per_gemm: Dict[str, float] = {}
    total_cycles = 0.0
    total_macs = 0
    for shape in shapes:
        result = baseline.run_gemm(shape.m, shape.n, shape.k)
        per_gemm[shape.name] = result.cycles
        total_cycles += result.cycles
        total_macs += shape.macs
    return WorkloadTiming(target="software", cycles=total_cycles, macs=total_macs,
                          per_gemm=per_gemm)
