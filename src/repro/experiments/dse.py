"""Design-space exploration scenarios for the experiment runner.

Two registered scenarios expose :mod:`repro.dse` through the CLI:

* ``dse-frontier`` -- the paper's design argument as a sweep: array geometry
  (H, L, P) x W-prefetch depth over the batch-1 auto-encoder, Pareto
  frontier over accelerator area vs. serial cycles, plus the cycle-accurate
  cross-validation of a frontier sample;
* ``dse-memory`` -- the memory-hierarchy axes around the reference
  geometry: TCDM bank count x extra memory latency, frontier over cluster
  area vs. cycles.

With ``export_dir`` set (the runner's ``--dse-export DIR``), both
scenarios write their full point set as ``dse_<scenario>.csv`` / ``.json``
into the directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.dse import (
    DesignSpace,
    DseValidationReport,
    Objective,
    SweepResult,
    cross_validate,
    sweep,
)

@dataclass
class DseScenarioReport:
    """Renderable outcome of one DSE scenario run."""

    result: SweepResult
    objectives: Tuple[Union[str, Objective], ...]
    validation: Optional[DseValidationReport]
    #: Paths written by the export step (empty without ``--dse-export``).
    exported: List[str]
    #: Scenario-specific analysis lines appended to the sweep summary.
    extra_lines: Tuple[str, ...] = ()
    #: Restrict the rendered frontier to provably-exact points.
    trusted_only: bool = False

    def render(self) -> str:
        """Sweep summary + frontier table + scenario analysis."""
        lines = [self.result.render(self.objectives,
                                    trusted_only=self.trusted_only)]
        lines.extend(f"  {line}" for line in self.extra_lines)
        if self.validation is not None:
            lines.append(f"  {self.validation.describe()}")
        for path in self.exported:
            lines.append(f"  exported {path}")
        return "\n".join(lines)


def _export(result: SweepResult,
            objectives: Sequence[Union[str, Objective]],
            export_dir: Optional[str]) -> List[str]:
    if export_dir is None:
        return []
    base = os.path.join(export_dir, f"dse_{result.name}")
    csv_path, json_path = base + ".csv", base + ".json"
    result.to_csv(csv_path)
    result.to_json(json_path, objectives)
    return [csv_path, json_path]


def dse_frontier(
    workload: str = "autoencoder-b1",
    validate_sample: int = 3,
    export_dir: Optional[str] = None,
) -> DseScenarioReport:
    """Area-vs-cycles frontier over the array geometry (paper Fig. 4b axis).

    The grid spans compact to cluster-sized arrays.  The frontier competes
    over *trusted* points only (cycle estimates provably exact): the model
    is optimistic outside its domain, so saturated geometries would
    otherwise win on flattery.  A sampled frontier subset is cross-checked
    through the cycle-accurate engine (small auto-encoder jobs only, see
    :mod:`repro.dse.validate`).
    """
    space = DesignSpace.grid(
        height=(2, 4, 6, 8),
        length=(2, 4, 8, 16, 32),
        pipeline_regs=(1, 2, 3, 4),
        w_prefetch_lines=(1, 2),
    )
    objectives = ("area_mm2", "serial_cycles")
    result = sweep(space, workload, name="frontier")
    validation = cross_validate(result, sample=validate_sample,
                                trusted_only=True)
    return DseScenarioReport(
        result=result,
        objectives=objectives,
        validation=validation,
        exported=_export(result, objectives, export_dir),
        trusted_only=True,
    )


#: Cluster-area budget of the memory-sensitivity study (mm2): the reference
#: 0.5 mm2 cluster plus headroom for a larger array or memory.
DSE_MEMORY_AREA_BUDGET_MM2 = 0.75


def dse_memory(workload: str = "autoencoder-b1",
               export_dir: Optional[str] = None) -> DseScenarioReport:
    """Memory-sensitivity study: how the best geometry shifts as TCDM slows.

    Sweeps array geometry x TCDM banks x extra memory latency, then reports
    -- per latency value -- the fastest configuration whose full-cluster
    area fits :data:`DSE_MEMORY_AREA_BUDGET_MM2`.  Latency is a pure
    penalty, so a min/min frontier over the whole grid would collapse onto
    the latency-0 slice; the per-slice optimum is the question an SoC
    architect actually asks of this axis.  Cross-validation is skipped: the
    latency axis is an analytic extrapolation with no engine counterpart
    (``dse-frontier`` covers the shared base cycle model).
    """
    space = DesignSpace.grid(
        height=(2, 4, 8),
        length=(4, 8, 16),
        pipeline_regs=(2, 3),
        tcdm_banks=(8, 16, 32),
        memory_latency=(0, 4, 16, 64),
    )
    objectives = ("cluster_area_mm2", "serial_cycles")
    result = sweep(space, workload, name="memory")

    lines = [f"fastest point per memory latency "
             f"(cluster area <= {DSE_MEMORY_AREA_BUDGET_MM2} mm2):"]
    baseline_cycles: Optional[float] = None
    for latency in space.axis_values("memory_latency"):
        feasible = [
            point for point in result.points
            if point.memory_latency == latency
            and point.cluster_area_mm2 <= DSE_MEMORY_AREA_BUDGET_MM2
        ]
        best = min(feasible, key=lambda point: point.serial_cycles)
        if baseline_cycles is None:
            baseline_cycles = best.serial_cycles
        lines.append(
            f"  latency {latency:>2}: H={best.height} L={best.length} "
            f"P={best.pipeline_regs} banks={best.tcdm_banks} -> "
            f"{best.serial_cycles:.0f} cycles "
            f"({best.serial_cycles / baseline_cycles:.2f}x vs latency 0, "
            f"{best.cluster_area_mm2:.3f} mm2)"
        )
    return DseScenarioReport(
        result=result,
        objectives=objectives,
        validation=None,
        exported=_export(result, objectives, export_dir),
        extra_lines=tuple(lines),
    )
