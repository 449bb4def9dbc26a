"""The analytic design-space sweep driver.

:func:`sweep` walks the configurations of a
:class:`~repro.dse.space.DesignSpace`, lowers the workload graph for each,
times the lowered job stream through a ``backend="model"``
:class:`~repro.farm.SimulationFarm`, and joins the timing with the area and
energy models into one :class:`DsePoint` record per grid point.  Each piece
of work runs once per distinct input it depends on: the lowered program and
its job dependency list once per lowering key (the graph memoises them, see
:meth:`~repro.graph.ir.WorkloadGraph.lower`); the farm batch, the exactness
scan (once per distinct job shape) and the accelerator area once per
configuration; the cycles, critical path, throughput, power and energy once
per (configuration, memory latency); the cluster area once per
(configuration, TCDM bank count).  One
:class:`~repro.farm.TimingCache` serves the whole sweep (pass ``cache=`` to
share it across sweeps and workloads too).

Per point the record carries the three objective families of the paper's
design argument:

* **performance** -- single-cluster serial cycles of the program, the
  dependency-aware makespan floor (critical path), throughput, utilisation;
* **area** -- standalone accelerator and full-cluster mm2 (the latter scaled
  by the ``tcdm_banks`` axis);
* **energy** -- cluster energy per program run and per MAC at the chosen
  operating point.

The result object extracts Pareto frontiers over any objective combination
and exports CSV/JSON for plotting.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Union

from repro.dse.pareto import Objective, pareto_frontier, resolve_objectives
from repro.dse.space import DesignPoint, DesignSpace
from repro.farm import BACKEND_MODEL, SimulationFarm, TimingCache
from repro.graph.ir import WorkloadGraph
from repro.graph.zoo import build_model
from repro.power.area import AreaModel, ClusterAreaModel
from repro.power.energy import EnergyModel
from repro.power.technology import OperatingPoint, TECH_22NM, TechnologyParams
from repro.redmule.perf_model import RedMulEPerfModel, critical_path_cycles
from repro.workloads.gemm import GemmShape

#: Default Pareto objectives: the paper's area-vs-speed trade-off.
DEFAULT_OBJECTIVES = ("area_mm2", "serial_cycles")


@dataclass(frozen=True)
class DsePoint:
    """One evaluated design point: axes, geometry, and objective values."""

    # -- swept axes ----------------------------------------------------------
    height: int
    length: int
    pipeline_regs: int
    w_prefetch_lines: int
    z_queue_depth: int
    precision: str
    tcdm_banks: int
    memory_latency: int
    # -- derived geometry ----------------------------------------------------
    n_fma: int
    n_mem_ports: int
    # -- program timing ------------------------------------------------------
    n_jobs: int
    total_macs: int
    serial_cycles: float
    makespan_cycles: float
    macs_per_cycle: float
    utilisation: float
    parallelism: float
    # -- area ----------------------------------------------------------------
    area_mm2: float
    cluster_area_mm2: float
    # -- energy / throughput at the operating point --------------------------
    gflops: float
    gflops_per_w: float
    energy_uj: float
    energy_per_mac_pj: float
    # -- model fidelity ------------------------------------------------------
    #: True when every job of the program lies in the cycle model's
    #: provably-exact (uncontended wide port) domain; False marks points
    #: whose cycles are an optimistic lower bound.
    model_exact: bool
    # -- provenance (not exported) -------------------------------------------
    point: DesignPoint

    def as_row(self) -> Dict[str, object]:
        """Flat export record (the ``point`` provenance field is dropped)."""
        return {name: getattr(self, name) for name in EXPORT_COLUMNS}


#: Column order of the CSV/JSON exports.
EXPORT_COLUMNS = [field.name for field in fields(DsePoint)
                  if field.name != "point"]


def _graph_from_shapes(name: str, shapes: Sequence[GemmShape]) -> WorkloadGraph:
    """Wrap a flat shape list as a graph of independent GEMMs.

    Every GEMM reads its own graph-input tensors, so the lowered program has
    no dependencies: the serial cycles reproduce a flat-list sweep and the
    makespan floor is the largest single GEMM.
    """
    graph = WorkloadGraph(name)
    for index, shape in enumerate(shapes):
        prefix = f"g{index}"
        graph.add_tensor(f"{prefix}.x", shape.m, shape.n)
        graph.add_tensor(f"{prefix}.w", shape.n, shape.k)
        graph.add_tensor(f"{prefix}.z", shape.m, shape.k)
        graph.add_gemm(f"{prefix}.{shape.name}", shape,
                       x=f"{prefix}.x", w=f"{prefix}.w", z=f"{prefix}.z")
    return graph


def _resolve_workload(workload) -> WorkloadGraph:
    if isinstance(workload, WorkloadGraph):
        return workload
    if isinstance(workload, str):
        return build_model(workload)
    shapes = list(workload)
    if not shapes:
        raise ValueError("the workload shape list is empty")
    return _graph_from_shapes("workload", shapes)


@dataclass
class SweepResult:
    """Outcome of one :func:`sweep` call."""

    name: str
    workload_name: str
    points: List[DsePoint]
    frequency_hz: float
    technology_name: str
    tile: bool
    #: Wall-clock seconds the sweep took (timing + area + energy, per point).
    wall_clock_s: float
    #: Timing-cache traffic of this sweep (distinct shapes simulated once).
    cache_hits: int
    cache_misses: int
    #: Workload graph and lowering options, kept for cross-validation.
    graph: WorkloadGraph
    offload_cycles_per_job: float
    tcdm_budget_bytes: Optional[int]

    def __len__(self) -> int:
        return len(self.points)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of per-job timing lookups served from the cache."""
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return 0.0
        return self.cache_hits / lookups

    @property
    def points_per_second(self) -> float:
        """Sweep rate (design points per wall-clock second)."""
        if self.wall_clock_s <= 0:
            return 0.0
        return len(self.points) / self.wall_clock_s

    @property
    def trusted_points(self) -> List[DsePoint]:
        """The points whose cycle estimates are provably exact."""
        return [point for point in self.points if point.model_exact]

    # -- frontiers -----------------------------------------------------------
    def pareto(
        self,
        objectives: Sequence[Union[str, Objective]] = DEFAULT_OBJECTIVES,
        trusted_only: bool = False,
    ) -> List[DsePoint]:
        """Pareto frontier of the sweep under the given objectives.

        With ``trusted_only`` only provably-exact points compete.  This
        matters more than it sounds: the cycle model is *optimistic* outside
        its exact domain, so saturated geometries gravitate onto unrestricted
        frontiers precisely because their estimates flatter them.
        """
        points = self.trusted_points if trusted_only else self.points
        return pareto_frontier(points, objectives)

    def best(self, objective: Union[str, Objective],
             trusted_only: bool = False) -> DsePoint:
        """The single best point on one objective.

        As with :meth:`pareto`, pass ``trusted_only`` to keep optimistic
        out-of-domain estimates from outbidding provably-exact points.
        """
        (resolved,) = resolve_objectives([objective])
        points = self.trusted_points if trusted_only else self.points
        if not points:
            raise ValueError("no points to choose from "
                             "(trusted_only on an all-saturated sweep?)")
        return min(points, key=resolved.key)

    # -- export --------------------------------------------------------------
    def to_csv(self, path: Union[str, os.PathLike]) -> int:
        """Write every point as CSV; returns the row count."""
        _ensure_parent(path)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=EXPORT_COLUMNS)
            writer.writeheader()
            for point in self.points:
                writer.writerow(point.as_row())
        return len(self.points)

    def to_json(self, path: Union[str, os.PathLike],
                objectives: Sequence[Union[str, Objective]] = DEFAULT_OBJECTIVES,
                ) -> int:
        """Write the sweep (metadata + points + frontier indices) as JSON."""
        _ensure_parent(path)
        index_of = {id(point): index
                    for index, point in enumerate(self.points)}
        payload = {
            "name": self.name,
            "workload": self.workload_name,
            "technology": self.technology_name,
            "frequency_hz": self.frequency_hz,
            "tile": self.tile,
            "n_points": len(self.points),
            "wall_clock_s": self.wall_clock_s,
            "cache_hit_rate": self.cache_hit_rate,
            "objectives": [
                objective.describe()
                for objective in resolve_objectives(objectives)
            ],
            "pareto_indices": sorted(
                index_of[id(point)] for point in self.pareto(objectives)
            ),
            "points": [point.as_row() for point in self.points],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
        return len(self.points)

    # -- reporting -----------------------------------------------------------
    def render(
        self,
        objectives: Sequence[Union[str, Objective]] = DEFAULT_OBJECTIVES,
        top: int = 12,
        trusted_only: bool = False,
    ) -> str:
        """Human-readable summary: sweep stats plus the frontier table."""
        from repro.obs.report import TextTable

        resolved = resolve_objectives(objectives)
        frontier = self.pareto(resolved, trusted_only=trusted_only)
        untrusted = len(self.points) - len(self.trusted_points)
        lines = [
            f"dse sweep {self.name}: {len(self.points)} points of "
            f"workload {self.workload_name} in {self.wall_clock_s:.2f} s "
            f"({self.points_per_second:.0f} points/s, "
            f"{100 * self.cache_hit_rate:.1f}% timing-cache hits"
            + (f", {untrusted} points outside the exact model domain"
               if untrusted else "")
            + ")",
            f"  pareto frontier ({', '.join(o.describe() for o in resolved)}"
            + (", trusted points only" if trusted_only else "")
            + f"): {len(frontier)} points"
            + (f", showing {top}" if len(frontier) > top else ""),
        ]
        table = TextTable([
            "H", "L", "P", "banks", "mem lat", "area mm2", "cycles",
            "makespan", "util %", "GFLOPS/W", "uJ/run",
        ])
        for point in frontier[:top]:
            table.add_row([
                point.height, point.length, point.pipeline_regs,
                point.tcdm_banks, point.memory_latency,
                round(point.area_mm2, 4), point.serial_cycles,
                point.makespan_cycles, round(100 * point.utilisation, 1),
                round(point.gflops_per_w, 0), round(point.energy_uj, 3),
            ])
        lines.extend("  " + line for line in table.render().splitlines())
        return "\n".join(lines)


def _ensure_parent(path: Union[str, os.PathLike]) -> None:
    parent = os.path.dirname(os.path.abspath(os.fspath(path)))
    os.makedirs(parent, exist_ok=True)


def sweep(
    space: DesignSpace,
    workload,
    name: str = "dse",
    technology: TechnologyParams = TECH_22NM,
    operating_point: Optional[OperatingPoint] = None,
    tile: bool = False,
    tcdm_budget_bytes: Optional[int] = None,
    offload_cycles_per_job: float = 0.0,
    cache: Optional[TimingCache] = None,
) -> SweepResult:
    """Evaluate a workload over every point of a design space analytically.

    ``workload`` is a :class:`~repro.graph.ir.WorkloadGraph`, a model-zoo
    name, or a flat sequence of :class:`~repro.workloads.gemm.GemmShape`
    (treated as independent GEMMs).  All timing flows through one shared
    analytic farm cache; the closed form makes thousand-point sweeps a
    matter of seconds where the cycle-accurate engine would need hours
    (``benchmarks/bench_dse_frontier.py`` pins the >= 50x gap).

    The sweep walks :meth:`DesignSpace.configs`: each configuration is
    timed once on the graph's memoised lowering (configurations sharing a
    lowering key share one program), its latency-dependent metrics are
    derived once per ``memory_latency`` value and its cluster area once per
    ``tcdm_banks`` value.  Each record is filled from those per-level field
    dicts (configuration, latency, bank) rather than built field by field
    through the frozen dataclass's ``__init__``; the farm likewise fills
    its per-job results and model-miss records directly (see
    :func:`~repro.farm.workers.model_timing_record`).  The records come out
    in :meth:`DesignSpace.points` order.
    """
    if not 0 <= offload_cycles_per_job < math.inf:
        raise ValueError("offload_cycles_per_job must be finite and >= 0")
    graph = _resolve_workload(workload)
    point_op = operating_point or technology.reference_point
    shared_cache = cache if cache is not None else TimingCache()
    hits0, misses0 = shared_cache.stats.hits, shared_cache.stats.misses

    lower_kwargs: Dict[str, object] = {"tile": tile}
    if tcdm_budget_bytes is not None:
        lower_kwargs["tcdm_budget_bytes"] = tcdm_budget_bytes

    banks_axis = space.axis_values("tcdm_banks")
    latency_axis = space.axis_values("memory_latency")
    new = object.__new__
    started = time.perf_counter()
    records: List[DsePoint] = []
    for config in space.configs():
        # Configuration-level work: shared by every environment point.
        program = graph.lower(config=config, **lower_kwargs)
        farm = SimulationFarm(config=config, backend=BACKEND_MODEL,
                              cache=shared_cache)
        base_timing = [(result.cycles, result.record.n_tiles)
                       for result in farm.run(program.jobs)]
        deps = program.job_deps()
        model = RedMulEPerfModel(config)
        total_macs = program.total_macs
        energy_model = EnergyModel(config, technology)
        # Every record field in declaration order: the latency- and
        # bank-level ones are placeholders until the loops below fill them.
        config_fields = dict.fromkeys(EXPORT_COLUMNS)
        config_fields.update({
            "height": config.height,
            "length": config.length,
            "pipeline_regs": config.pipeline_regs,
            "w_prefetch_lines": config.w_prefetch_lines,
            "z_queue_depth": config.z_queue_depth,
            "precision": config.format,
            "n_fma": config.n_fma,
            "n_mem_ports": config.n_mem_ports,
            "n_jobs": program.n_jobs,
            "total_macs": total_macs,
            "area_mm2": AreaModel(config, technology).total(),
            # is_exact reads only M, N, K and accumulate, so one job per
            # such shape decides for all of its repeats.
            "model_exact": all(model.is_exact(job) for job in {
                (job.m, job.n, job.k, job.accumulate): job
                for job in program.jobs}.values()),
        })

        # Latency-level work: timing, throughput and energy.
        latency_fields = []
        for memory_latency in latency_axis:
            # The memory-latency axis charges the extra access latency once
            # per tile pre-load, exactly like RedMulEPerfModel(
            # memory_latency=...) (the per-record tile counts make the two
            # formulations identical).
            costs = [
                cycles + memory_latency * n_tiles + offload_cycles_per_job
                for cycles, n_tiles in base_timing
            ]
            serial = float(sum(costs))
            makespan = critical_path_cycles(deps, costs)
            macs_per_cycle = total_macs / serial if serial > 0 else 0.0
            utilisation = macs_per_cycle / config.ideal_macs_per_cycle
            power_w = energy_model.cluster_power_accel_w(point_op,
                                                         utilisation)
            runtime_s = serial / point_op.frequency_hz
            energy_j = power_w * runtime_s
            gflops = 2.0 * macs_per_cycle * point_op.frequency_hz / 1e9
            latency_fields.append({
                **config_fields,
                "memory_latency": memory_latency,
                "serial_cycles": serial,
                "makespan_cycles": makespan,
                "macs_per_cycle": macs_per_cycle,
                "utilisation": utilisation,
                "parallelism": serial / makespan if makespan > 0 else 1.0,
                "gflops": gflops,
                "gflops_per_w": gflops / power_w if power_w > 0 else 0.0,
                "energy_uj": energy_j * 1e6,
                "energy_per_mac_pj": (energy_j / total_macs * 1e12
                                      if total_macs else 0.0),
            })

        # Bank-level work: the cluster area; then one record per point.
        # The records skip the frozen dataclasses' __init__, which pays one
        # object.__setattr__ per field, and fill the instance __dict__
        # directly.  That builds the same objects only because neither
        # DsePoint nor DesignPoint defines __post_init__.
        for tcdm_banks in banks_axis:
            cluster_area = ClusterAreaModel(
                config, technology, tcdm_banks=tcdm_banks
            ).total()
            for timing_fields in latency_fields:
                point = new(DesignPoint)
                point_fields = point.__dict__
                point_fields["config"] = config
                point_fields["tcdm_banks"] = tcdm_banks
                point_fields["memory_latency"] = timing_fields["memory_latency"]
                record = new(DsePoint)
                record_fields = record.__dict__
                # In CPython an update() into an empty __dict__ gives the
                # record a private copy of the template's hash table; after
                # a first key it inserts field by field into the key table
                # that DsePoint instances share, which halves a record's
                # memory.
                record_fields["height"] = config.height
                record_fields.update(timing_fields)
                record_fields["tcdm_banks"] = tcdm_banks
                record_fields["cluster_area_mm2"] = cluster_area
                record_fields["point"] = point
                records.append(record)
    elapsed = time.perf_counter() - started

    return SweepResult(
        name=name,
        workload_name=graph.name,
        points=records,
        frequency_hz=point_op.frequency_hz,
        technology_name=technology.name,
        tile=tile,
        wall_clock_s=elapsed,
        cache_hits=shared_cache.stats.hits - hits0,
        cache_misses=shared_cache.stats.misses - misses0,
        graph=graph,
        offload_cycles_per_job=offload_cycles_per_job,
        tcdm_budget_bytes=tcdm_budget_bytes,
    )
