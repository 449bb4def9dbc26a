"""Lowering: workload graphs to dependency-annotated MatmulJob streams.

:func:`lower` walks a :class:`~repro.graph.ir.WorkloadGraph` in its
deterministic topological order and turns every node into a
:class:`LoweredNode`: the accelerator jobs it issues, the names of the nodes
it waits on, and a diagnostic line.  Two modes:

* **whole-GEMM** (default) -- one canonically-placed
  :class:`~repro.redmule.job.MatmulJob` per GEMM node, exactly what
  :meth:`repro.farm.SimulationFarm.run_shapes` builds for a flat shape
  list.
* **tiled** (``tile=True``) -- GEMMs whose operand set exceeds the TCDM
  budget are split through :func:`repro.cluster.tiler.plan_tiled_matmul`
  into per-tile jobs (inner-dimension tiles accumulate, ``Z += X . W``),
  the stream a DMA-fed cluster would actually execute.

Either way the tiling planner is consulted only for GEMMs whose operand set
exceeds the budget, so the diagnostics can report the plan a too-large GEMM
would need (or that none fits).  GEMMs that fit are one job in both modes.

:func:`lower` always lowers afresh; :meth:`WorkloadGraph.lower
<repro.graph.ir.WorkloadGraph.lower>` memoises its result per lowering key
and hands the same frozen :class:`LoweredProgram` to every caller.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.tiler import (
    MIN_TCDM_BUDGET_BYTES,
    TiledMatmulPlan,
    plan_tiled_matmul,
)
from repro.graph.ir import ElementwiseNode, GemmNode, WorkloadGraph
from repro.redmule.config import RedMulEConfig
from repro.redmule.job import MatmulJob
from repro.workloads.gemm import GemmShape

#: Default TCDM budget handed to the tiling planner (matches the planner's
#: own default: leave headroom below the 128 KiB reference TCDM).
DEFAULT_TCDM_BUDGET_BYTES = 96 * 1024

KIND_GEMM = "gemm"
KIND_ELEMENTWISE = "elementwise"


@dataclass(frozen=True)
class LoweredNode:
    """One graph node after lowering: jobs + dependencies + diagnostics."""

    #: Graph node name.
    name: str
    #: ``"gemm"`` or ``"elementwise"``.
    kind: str
    #: Accelerator jobs, in issue order (empty for elementwise nodes).
    jobs: Tuple[MatmulJob, ...]
    #: Names of the lowered nodes that must complete first.
    deps: Tuple[str, ...]
    #: The GEMM shape (None for elementwise nodes).
    shape: Optional[GemmShape]
    #: Useful MACs issued by the node.
    macs: int
    #: Output elements (elementwise core-cost accounting).
    elements: int
    #: Human-readable diagnostic (transpose-aware equation, tiling plan).
    note: str
    #: Effective element format the node's jobs were lowered for: the
    #: node's own override if set, else the program precision.
    precision: str = "fp16"

    @property
    def is_gemm(self) -> bool:
        """True for accelerator GEMM nodes."""
        return self.kind == KIND_GEMM

    @property
    def n_jobs(self) -> int:
        """Number of accelerator jobs the node issues."""
        return len(self.jobs)


@dataclass(frozen=True)
class LoweredProgram:
    """A lowered graph: nodes in deterministic topological order.

    Frozen, with ``nodes`` a tuple: :meth:`WorkloadGraph.lower
    <repro.graph.ir.WorkloadGraph.lower>` hands one instance to every
    caller of the same lowering key, so no caller may change it.
    """

    graph_name: str
    nodes: Tuple[LoweredNode, ...]
    tiled: bool
    tcdm_budget_bytes: int
    #: Default element format the jobs were lowered for.  Nodes carrying a
    #: per-node override (:attr:`LoweredNode.precision`) differ from this;
    #: :attr:`mixed_precision` is True when any does.
    precision: str = "fp16"

    @property
    def mixed_precision(self) -> bool:
        """True when any node's format differs from the program default."""
        return any(node.precision != self.precision for node in self.nodes)

    def node_precisions(self) -> Dict[str, str]:
        """Node name -> effective element format (diagnostics / routing)."""
        return {node.name: node.precision for node in self.nodes}

    def __len__(self) -> int:
        return len(self.nodes)

    # -- flat job stream -----------------------------------------------------
    @property
    def jobs(self) -> List[MatmulJob]:
        """Every accelerator job, flattened in node order."""
        return [job for node in self.nodes for job in node.jobs]

    @property
    def n_jobs(self) -> int:
        """Total accelerator jobs."""
        return sum(node.n_jobs for node in self.nodes)

    @property
    def total_macs(self) -> int:
        """Useful MACs over the whole program."""
        return sum(node.macs for node in self.nodes)

    def job_deps(self) -> Tuple[Tuple[int, ...], ...]:
        """Flat-stream dependency annotation: job index -> prerequisite indices.

        A job waits on the previous job of its own node (a node's jobs run
        back to back on one cluster: inner-dimension tiles accumulate into
        the same Z region) and on the last job of every node dependency.
        Job-less (elementwise) nodes are resolved *transitively*: depending
        on a ReLU means depending on the jobs of the GEMM that fed it, so
        the annotation never loses an ordering constraint just because a
        zero-job node sits on the data path.  Derived once per program.
        """
        return self._job_deps

    @cached_property
    def _job_deps(self) -> Tuple[Tuple[int, ...], ...]:
        # Node name -> the job indices whose completion implies the node's
        # completion (its own last job, or, for job-less nodes, the union
        # of its dependencies' completion jobs).
        completion_jobs: Dict[str, Tuple[int, ...]] = {}
        deps: List[Tuple[int, ...]] = []
        index = 0
        for node in self.nodes:
            node_deps = tuple(sorted({
                job for dep in node.deps for job in completion_jobs[dep]
            }))
            for position in range(node.n_jobs):
                if position == 0:
                    deps.append(node_deps)
                else:
                    deps.append((index - 1,))
                index += 1
            if node.n_jobs:
                completion_jobs[node.name] = (index - 1,)
            else:
                completion_jobs[node.name] = node_deps
        return tuple(deps)

    def critical_path_cycles(self, job_costs: Sequence[float]) -> float:
        """Longest dependent-job chain given per-job cycle costs.

        ``job_costs`` is index-aligned with the flat :attr:`jobs` stream
        (e.g. farm-record cycles or analytic estimates).  The result is the
        makespan floor of the program: no cluster pool can execute it faster.
        """
        from repro.redmule.perf_model import critical_path_cycles

        return critical_path_cycles(self.job_deps(), list(job_costs))

    def gemm_nodes(self) -> List[LoweredNode]:
        """The GEMM nodes, in program order."""
        return [node for node in self.nodes if node.is_gemm]

    def describe(self) -> str:
        """Multi-line summary with per-node diagnostics."""
        mode = "tiled" if self.tiled else "whole-GEMM"
        lines = [
            f"lowered {self.graph_name}: {len(self.nodes)} nodes, "
            f"{self.n_jobs} jobs ({mode}, "
            f"{self.tcdm_budget_bytes // 1024} KiB TCDM budget, "
            f"{self.total_macs} MACs)"
        ]
        for node in self.nodes:
            prefix = f"  [{node.kind}] {node.note}"
            suffix = f"  <- {', '.join(node.deps)}" if node.deps else ""
            lines.append(prefix + suffix)
        return "\n".join(lines)


def _tile_jobs(plan: TiledMatmulPlan, element_bytes: int) -> List[MatmulJob]:
    """Per-tile jobs of a plan, inner-dimension tiles accumulating.

    Addresses are canonical (timing is address-independent, see
    :mod:`repro.farm.cache`); edge tiles get their true, smaller dimensions
    so the stream's MAC count equals the original GEMM's.
    """
    jobs: List[MatmulJob] = []
    for m0 in range(0, plan.m, plan.tile_m):
        rows = min(plan.tile_m, plan.m - m0)
        for k0 in range(0, plan.k, plan.tile_k):
            cols = min(plan.tile_k, plan.k - k0)
            for chunk, n0 in enumerate(range(0, plan.n, plan.tile_n)):
                inner = min(plan.tile_n, plan.n - n0)
                jobs.append(MatmulJob(x_addr=0, w_addr=0, z_addr=0,
                                      m=rows, n=inner, k=cols,
                                      accumulate=chunk > 0,
                                      element_bytes=element_bytes))
    return jobs


def _untiled_plan_note(shape: GemmShape, config: RedMulEConfig,
                       tcdm_budget_bytes: int) -> str:
    """Diagnostic of an over-budget GEMM lowered as one whole job."""
    try:
        plan = plan_tiled_matmul(shape.m, shape.n, shape.k, config,
                                 tcdm_budget_bytes)
    except ValueError:
        # Whole-GEMM mode never issues the plan, so a shape no tiling
        # fits is a diagnostic, not an error.
        return "no tiling fits"
    return f"would tile as {plan.describe()}"


def lower(
    graph: WorkloadGraph,
    config: Optional[RedMulEConfig] = None,
    tile: bool = False,
    tcdm_budget_bytes: int = DEFAULT_TCDM_BUDGET_BYTES,
) -> LoweredProgram:
    """Lower a workload graph to a dependency-annotated job stream.

    The node order is the graph's deterministic topological sort.  A GEMM
    whose operand set exceeds ``tcdm_budget_bytes`` is planned through the
    tiling planner: tiled mode issues the plan's per-tile accumulate stream
    (and raises when no tiling fits), whole-GEMM mode keeps one job and
    notes the plan.  This function never memoises; see
    :meth:`WorkloadGraph.lower <repro.graph.ir.WorkloadGraph.lower>`.
    """
    if tcdm_budget_bytes < MIN_TCDM_BUDGET_BYTES:
        raise ValueError("a TCDM budget below 8 KiB is not practical")
    config = config or RedMulEConfig.reference()
    # An explicit graph precision wins (timing an FP8 model on FP16 line
    # geometry would silently misestimate every job); precision-agnostic
    # graphs (the default) inherit the target configuration's format.
    precision = getattr(graph, "precision", None) or config.format
    if precision != config.format:
        config = replace(config, format=precision)
    # Per-node overrides (set by repro.graph.precision.assign_precisions)
    # lower against a config of *their* format: element width and line
    # geometry both follow the node, so an FP8 KV-cache GEMM gets 1-byte
    # jobs and an FP8 tiling plan inside an otherwise-FP16 program.
    configs: Dict[str, RedMulEConfig] = {precision: config}
    lowered: List[LoweredNode] = []
    for node in graph.topo_sort():
        deps = tuple(graph.dependencies(node))
        if isinstance(node, GemmNode):
            node_precision = node.precision or precision
            node_config = configs.get(node_precision)
            if node_config is None:
                node_config = replace(config, format=node_precision)
                configs[node_precision] = node_config
            element_bytes = node_config.element_bytes
            shape = node.shape
            note = shape.describe(transpose=node.transpose)
            if node_precision != precision:
                note += f" | {node_precision}"
            footprint = element_bytes * (shape.m * shape.n + shape.n * shape.k
                                         + shape.m * shape.k)
            # The planner's own first test: a GEMM over budget is exactly
            # one whose plan has more than one job.
            over_budget = footprint > tcdm_budget_bytes
            if tile and over_budget:
                plan = plan_tiled_matmul(shape.m, shape.n, shape.k,
                                         node_config, tcdm_budget_bytes)
                jobs = tuple(_tile_jobs(plan, element_bytes))
                note += f" | {plan.describe()}"
            else:
                jobs = (MatmulJob(x_addr=0, w_addr=0, z_addr=0,
                                  m=shape.m, n=shape.n, k=shape.k,
                                  element_bytes=element_bytes),)
                if over_budget:
                    note += " | exceeds budget, " + _untiled_plan_note(
                        shape, node_config, tcdm_budget_bytes)
            lowered.append(LoweredNode(
                name=node.name, kind=KIND_GEMM, jobs=jobs, deps=deps,
                shape=shape, macs=shape.macs,
                elements=graph.tensors[node.output].elements, note=note,
                precision=node_precision,
            ))
        elif isinstance(node, ElementwiseNode):
            lowered.append(LoweredNode(
                name=node.name, kind=KIND_ELEMENTWISE, jobs=(), deps=deps,
                shape=None, macs=0,
                elements=graph.tensors[node.output].elements,
                note=node.describe(),
                precision=node.precision or precision,
            ))
        else:  # pragma: no cover - the IR only defines the two kinds
            raise TypeError(f"cannot lower node of type {type(node).__name__}")
    return LoweredProgram(graph_name=graph.name, nodes=tuple(lowered),
                          tiled=tile, tcdm_budget_bytes=tcdm_budget_bytes,
                          precision=precision)
