"""Cross-validation of analytic sweep points against the cycle-accurate engine.

A sweep is only as trustworthy as its cycle model, so the explorer carries
its own calibration pass: a deterministic sample of (frontier) points is
re-lowered and its jobs are run through a ``backend="engine"``
:class:`~repro.farm.SimulationFarm`; the per-job engine cycles are compared
against the analytic estimates the sweep used.

Caveats the report makes explicit:

* the comparison is on the **base** cycle model -- the ``memory_latency``
  axis is an analytic extrapolation with no engine counterpart, so latency
  is excluded from the checked cycles (it shifts both sides of a frontier
  equally);
* jobs above ``max_macs_per_job`` are skipped (running them through the
  Python engine is exactly the cost the analytic backend exists to avoid)
  and counted in ``jobs_skipped``;
* on the model's provably-exact domain
  (:meth:`~repro.redmule.perf_model.RedMulEPerfModel.is_exact`) the expected
  error is zero; elsewhere the wide port can saturate and the report's
  ``max_rel_error`` quantifies the model optimism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.farm import BACKEND_ENGINE, SimulationFarm
from repro.redmule.perf_model import RedMulEPerfModel

#: Engine jobs above this MAC count are skipped by default (wall clock).
DEFAULT_MAX_MACS_PER_JOB = 1 << 16


class DseValidationError(AssertionError):
    """The sampled frontier disagreed with the engine beyond tolerance."""


@dataclass(frozen=True)
class PointValidation:
    """Engine-vs-analytic comparison of one sampled design point."""

    #: Axis values of the point (``DsePoint.as_row()`` subset).
    height: int
    length: int
    pipeline_regs: int
    jobs_checked: int
    jobs_skipped: int
    max_rel_error: float
    mean_rel_error: float
    #: True when every checked job lies in the model's provably-exact domain.
    exact_expected: bool


@dataclass
class DseValidationReport:
    """Aggregate outcome of one cross-validation pass."""

    samples: List[PointValidation]
    tolerance: float
    points_skipped: int = 0

    @property
    def jobs_checked(self) -> int:
        """Engine jobs compared across all sampled points."""
        return sum(sample.jobs_checked for sample in self.samples)

    @property
    def max_rel_error(self) -> float:
        """Worst per-job relative cycle error over the sample."""
        return max((sample.max_rel_error for sample in self.samples),
                   default=0.0)

    @property
    def mean_rel_error(self) -> float:
        """Job-weighted mean relative cycle error over the sample."""
        total = sum(sample.mean_rel_error * sample.jobs_checked
                    for sample in self.samples)
        checked = self.jobs_checked
        return total / checked if checked else 0.0

    @property
    def ok(self) -> bool:
        """True when jobs were actually checked and stayed within tolerance.

        An empty sample (all points skipped, every job above the MAC cap,
        empty trusted frontier) is *not* ok: a validation gate that passes
        without validating anything would be worse than no gate at all.
        """
        return self.jobs_checked > 0 and self.max_rel_error <= self.tolerance

    def describe(self) -> str:
        """One-line summary for sweep reports."""
        if self.jobs_checked == 0:
            return (
                f"cross-validation: VACUOUS -- 0 engine jobs checked "
                f"({self.points_skipped} points skipped)"
            )
        return (
            f"cross-validation: {self.jobs_checked} engine jobs over "
            f"{len(self.samples)} points, max error "
            f"{100 * self.max_rel_error:.2f}% "
            f"(mean {100 * self.mean_rel_error:.2f}%, tolerance "
            f"{100 * self.tolerance:.0f}%, "
            f"{'ok' if self.ok else 'EXCEEDED'})"
        )


def _sample_indices(count: int, sample: int) -> List[int]:
    """``sample`` indices spread evenly (and deterministically) over a range."""
    if count <= sample:
        return list(range(count))
    if sample == 1:
        return [count // 2]
    step = (count - 1) / (sample - 1)
    return sorted({round(index * step) for index in range(sample)})


def cross_validate(
    result,
    sample: int = 5,
    tolerance: float = 0.05,
    max_macs_per_job: int = DEFAULT_MAX_MACS_PER_JOB,
    points: Optional[Sequence] = None,
    trusted_only: bool = False,
    raise_on_error: bool = False,
) -> DseValidationReport:
    """Re-run a sampled subset of a sweep's frontier on the engine.

    ``result`` is a :class:`~repro.dse.sweep.SweepResult`; ``points``
    overrides the sampled set (default: an even spread over the default
    Pareto frontier, restricted to provably-exact points when
    ``trusted_only``).  Raises :class:`DseValidationError` when
    ``raise_on_error`` is set and the worst relative cycle error exceeds
    ``tolerance``.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    if sample < 1:
        raise ValueError("sample must be >= 1")
    candidates = (list(points) if points is not None
                  else result.pareto(trusted_only=trusted_only))
    chosen = [candidates[i] for i in _sample_indices(len(candidates), sample)]

    samples: List[PointValidation] = []
    points_skipped = 0
    for dse_point in chosen:
        config = dse_point.point.config
        lower_kwargs = {"tile": result.tile}
        if result.tcdm_budget_bytes is not None:
            lower_kwargs["tcdm_budget_bytes"] = result.tcdm_budget_bytes
        program = result.graph.lower(config=config, **lower_kwargs)
        model = RedMulEPerfModel(config)

        jobs = [job for job in program.jobs
                if job.total_macs <= max_macs_per_job]
        skipped = program.n_jobs - len(jobs)
        if not jobs:
            points_skipped += 1
            continue

        farm = SimulationFarm(config=config, backend=BACKEND_ENGINE)
        engine_results = farm.run(jobs)
        errors = []
        exact_expected = True
        for job, engine_result in zip(jobs, engine_results):
            estimate = model.estimate(job)
            errors.append(
                abs(estimate.cycles - engine_result.cycles)
                / engine_result.cycles
            )
            exact_expected = exact_expected and model.is_exact(job)
        samples.append(PointValidation(
            height=config.height,
            length=config.length,
            pipeline_regs=config.pipeline_regs,
            jobs_checked=len(jobs),
            jobs_skipped=skipped,
            max_rel_error=max(errors),
            mean_rel_error=sum(errors) / len(errors),
            exact_expected=exact_expected,
        ))

    report = DseValidationReport(samples=samples, tolerance=tolerance,
                                 points_skipped=points_skipped)
    if raise_on_error and not report.ok:
        raise DseValidationError(report.describe())
    return report
