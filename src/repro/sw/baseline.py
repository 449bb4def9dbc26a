"""Software baseline facade.

:class:`SoftwareBaseline` exposes the same "run a matmul, get cycles"
interface as the RedMulE engine / performance model, so experiments can sweep
both sides symmetrically.  Functionally the software kernel computes exactly
the same FP16 result as the accelerator (same FMA, same accumulation order),
so the facade can optionally return the numerical result as well via the
golden model -- useful for the end-to-end workload examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.fp.formats import FP16
from repro.redmule.functional import matmul_hw_order_simd_fmt
from repro.sw.kernel import KernelCostModel, KernelParameters
from repro.sw.parallel import ParallelizationModel, ParallelParameters


@dataclass(frozen=True)
class SoftwareResult:
    """Outcome of a software matmul execution."""

    m: int
    n: int
    k: int
    #: Estimated cluster cycles.
    cycles: float
    #: Number of cores used.
    n_cores: int

    @property
    def total_macs(self) -> int:
        """Useful MACs of the job."""
        return self.m * self.n * self.k

    @property
    def macs_per_cycle(self) -> float:
        """Cluster-level MAC throughput."""
        if self.cycles == 0:
            return 0.0
        return self.total_macs / self.cycles

    def runtime_s(self, frequency_hz: float) -> float:
        """Wall-clock runtime at a given clock frequency."""
        return self.cycles / frequency_hz

    def throughput_gflops(self, frequency_hz: float) -> float:
        """Throughput in GFLOPS at a given clock frequency."""
        return 2.0 * self.total_macs / self.runtime_s(frequency_hz) / 1e9


class SoftwareBaseline:
    """Parallel software FP16 matmul on the cluster cores."""

    def __init__(
        self,
        n_cores: int = 8,
        kernel_params: Optional[KernelParameters] = None,
        parallel_params: Optional[ParallelParameters] = None,
    ) -> None:
        kernel = KernelCostModel(kernel_params or KernelParameters())
        params = parallel_params or ParallelParameters(n_cores=n_cores)
        if params.n_cores != n_cores:
            params = ParallelParameters(
                n_cores=n_cores,
                fork_cycles=params.fork_cycles,
                barrier_cycles=params.barrier_cycles,
            )
        self.model = ParallelizationModel(kernel, params)
        self.n_cores = n_cores

    def run_gemm(self, m: int, n: int, k: int) -> SoftwareResult:
        """Estimate the cycles of one ``m x n x k`` matmul."""
        cycles = self.model.matmul_cycles(m, n, k)
        return SoftwareResult(m=m, n=n, k=k, cycles=cycles, n_cores=self.n_cores)

    def compute(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Numerical result of the software kernel (bit-identical to the HW result).

        Evaluated with the guarded SIMD kernels, so it reproduces the
        accelerator's single-rounded FP16 accumulation exactly.  Returns
        float32 holding exact binary16 values.
        """
        return matmul_hw_order_simd_fmt(x, w, FP16).astype(np.float32)

    @property
    def peak_macs_per_cycle(self) -> float:
        """Asymptotic cluster throughput of the software kernel."""
        return self.model.peak_macs_per_cycle
