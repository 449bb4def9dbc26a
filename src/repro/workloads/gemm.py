"""GEMM workload descriptors and generators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.fp.vector import random_fp16_matrix

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

    @property
    def flops(self) -> int:
        """Floating-point operations (2 per MAC)."""
        return 2 * self.macs

    @property
    def operand_bytes(self) -> int:
        """FP16 bytes of X, W and Z together."""
        return 2 * (self.m * self.n + self.n * self.k + self.m * self.k)

    def random_operands(self, scale: float = 0.25,
                        seed: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Generate random binary16 operands for this shape."""
        rng = np.random.default_rng(seed)
        x = random_fp16_matrix(self.m, self.n, scale=scale, rng=rng)
        w = random_fp16_matrix(self.n, self.k, scale=scale, rng=rng)
        return x, w

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


class GemmWorkload:
    """An ordered collection of GEMMs executed back to back."""

    def __init__(self, name: str, shapes: Iterable[GemmShape]) -> None:
        self.name = name
        self.shapes: List[GemmShape] = list(shapes)
        if not self.shapes:
            raise ValueError("a workload needs at least one GEMM")

    @property
    def total_macs(self) -> int:
        """Sum of the MACs of every GEMM."""
        return sum(shape.macs for shape in self.shapes)

    @property
    def total_flops(self) -> int:
        """Sum of the FLOPs of every GEMM."""
        return 2 * self.total_macs

    @property
    def operand_bytes(self) -> int:
        """Total operand footprint if every GEMM keeps its own buffers."""
        return sum(shape.operand_bytes for shape in self.shapes)

    def __len__(self) -> int:
        return len(self.shapes)

    def __iter__(self):
        return iter(self.shapes)

    def describe(self) -> str:
        """Multi-line summary of the workload."""
        lines = [f"workload {self.name}: {len(self.shapes)} GEMMs, "
                 f"{self.total_macs} MACs"]
        lines.extend(f"  {shape.describe()}" for shape in self.shapes)
        return "\n".join(lines)


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


def square_sweep(sizes: Iterable[int]) -> List[GemmShape]:
    """Square GEMMs (M = N = K) used by the Fig. 3c / 3d / 4a sweeps."""
    return [GemmShape(size, size, size, name=f"square-{size}") for size in sizes]
