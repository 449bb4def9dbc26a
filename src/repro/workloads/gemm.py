"""GEMM shape descriptors and the cycle accounting of GEMM sequences."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Valid transpose annotations of a GEMM (subsets of "xw"): which logical
#: operands were derived by transposing a stored tensor.  Shared by
#: :meth:`GemmShape.describe` and :class:`repro.graph.ir.GemmNode`.
VALID_TRANSPOSES = ("", "x", "w", "xw")


@dataclass(frozen=True)
class GemmShape:
    """Shape of one matrix multiplication ``Z[m,k] = X[m,n] . W[n,k]``.

    The field names follow the accelerator's register map
    (:class:`repro.redmule.job.MatmulJob`), **not** the BLAS convention:

    * ``m`` -- rows of X and Z;
    * ``n`` -- the *inner* (reduction) dimension: columns of X, rows of W
      (what BLAS would call K);
    * ``k`` -- columns of W and Z (what BLAS would call N).
    """

    m: int
    n: int
    k: int
    name: str = "gemm"

    def __post_init__(self) -> None:
        if self.m <= 0 or self.n <= 0 or self.k <= 0:
            raise ValueError(f"{self.name}: GEMM dimensions must be positive")

    @property
    def macs(self) -> int:
        """Useful multiply-accumulates."""
        return self.m * self.n * self.k

    def describe(self, transpose: str = "") -> str:
        """One-line summary.

        ``transpose`` annotates which logical operands were derived by
        transposing a stored tensor (``""``, ``"x"``, ``"w"`` or ``"xw"``,
        see :class:`repro.graph.ir.GemmNode`); when given, the summary is
        rendered as the full equation with the stored operand shapes, which
        is what the graph lowering diagnostics print.
        """
        if transpose not in VALID_TRANSPOSES:
            raise ValueError(
                f"transpose must be one of {VALID_TRANSPOSES}, "
                f"got {transpose!r}"
            )
        if not transpose:
            return (f"{self.name}: M={self.m} N={self.n} K={self.k} "
                    f"({self.macs} MACs)")
        x = (f"X^T[{self.n}x{self.m}]" if "x" in transpose
             else f"X[{self.m}x{self.n}]")
        w = (f"W^T[{self.k}x{self.n}]" if "w" in transpose
             else f"W[{self.n}x{self.k}]")
        return (f"{self.name}: Z[{self.m}x{self.k}] = {x} . {w} "
                f"({self.macs} MACs)")


@dataclass
class WorkloadTiming:
    """Cycle accounting of a multi-GEMM workload on one execution target."""

    target: str
    #: Total cycles over all GEMMs.
    cycles: float
    #: Total useful MACs over all GEMMs.
    macs: int
    #: Per-GEMM cycles, keyed by the GEMM's name.
    per_gemm: Dict[str, float]

    @property
    def macs_per_cycle(self) -> float:
        """Aggregate throughput of the workload."""
        if self.cycles == 0:
            return 0.0
        return self.macs / self.cycles

    def runtime_s(self, frequency_hz: float) -> float:
        """Wall-clock runtime at a clock frequency."""
        return self.cycles / frequency_hz

