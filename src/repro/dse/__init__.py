"""Analytic design-space exploration with Pareto frontiers.

The paper's central contribution is a design-space argument: RedMulE's array
shape, pipeline depth and memory interface are chosen to balance cycles
against area and energy.  This package turns that argument into a tool:

* :mod:`repro.dse.space` -- declarative axis grids over the architecture
  (H, L, P, W prefetch, Z queue) and its environment (TCDM banks, memory
  latency);
* :mod:`repro.dse.sweep` -- the driver: thousands of (configuration x
  workload graph) points per second through the farm's ``model`` backend,
  joined with the area/energy models into one record per point;
* :mod:`repro.dse.pareto` -- non-dominated frontier extraction over any
  objective combination;
* :mod:`repro.dse.validate` -- cycle-accurate cross-validation of sampled
  frontier points, reporting the model error the sweep rests on.

Quickstart::

    from repro.dse import DesignSpace, cross_validate, sweep

    space = DesignSpace.grid(height=(2, 4, 8), length=(4, 8, 16),
                             pipeline_regs=(1, 3))
    result = sweep(space, "autoencoder-b1")
    for point in result.pareto(("area_mm2", "serial_cycles")):
        print(point.height, point.length, point.area_mm2, point.serial_cycles)
    print(cross_validate(result, sample=3).describe())
"""

from repro.dse.pareto import Objective, pareto_frontier, resolve_objectives
from repro.dse.space import (
    AXIS_DEFAULTS,
    AXIS_ORDER,
    CONFIG_AXES,
    ENVIRONMENT_AXES,
    DesignAxis,
    DesignPoint,
    DesignSpace,
    DesignSpaceError,
)
from repro.dse.sweep import (
    DEFAULT_OBJECTIVES,
    EXPORT_COLUMNS,
    DsePoint,
    SweepResult,
    sweep,
)
from repro.dse.validate import (
    DEFAULT_MAX_MACS_PER_JOB,
    DseValidationError,
    DseValidationReport,
    PointValidation,
    cross_validate,
)

__all__ = [
    "AXIS_DEFAULTS",
    "AXIS_ORDER",
    "CONFIG_AXES",
    "DEFAULT_MAX_MACS_PER_JOB",
    "DEFAULT_OBJECTIVES",
    "DesignAxis",
    "DesignPoint",
    "DesignSpace",
    "DesignSpaceError",
    "DseValidationError",
    "DseValidationReport",
    "DsePoint",
    "ENVIRONMENT_AXES",
    "EXPORT_COLUMNS",
    "Objective",
    "PointValidation",
    "SweepResult",
    "cross_validate",
    "pareto_frontier",
    "resolve_objectives",
    "sweep",
]
