"""GEMM-level dataflow IR for accelerator workloads.

The paper evaluates RedMulE on a single hand-decomposed model: the
MLPerf-Tiny auto-encoder, written down as a flat, ordered list of GEMMs.
That representation cannot express *why* the GEMMs are ordered the way they
are, which is exactly the information a scheduler needs to overlap
independent work.  This module provides the missing layer: a small dataflow
IR where

* a :class:`WorkloadGraph` owns a set of named 2-D :class:`TensorRef`
  operands and a DAG of compute nodes over them;
* a :class:`GemmNode` is one accelerator-shaped matrix multiplication
  (``Z[m,k] = X[m,n] . W[n,k]``, optionally with logically transposed
  operands -- the transposes are metadata describing how the GEMM was
  derived, the accelerator always sees a plain dense job);
* an :class:`ElementwiseNode` is a cheap non-GEMM step (activation,
  residual add, softmax, loss gradient) that carries dependencies but no
  accelerator work;
* edges are implicit in tensor production/consumption: a node depends on
  the producers of its input tensors (SSA-style -- each tensor has at most
  one producer; producer-less tensors are graph inputs such as weights and
  activations arriving from outside).

The graph validates itself structurally (shapes must agree with the tensors,
every input must be declared, cycles are rejected), provides a
*deterministic* topological sort (Kahn's algorithm breaking ties by node
insertion index, so a graph built in a valid execution order sorts to exactly
that order) and critical-path analysis, and lowers to dependency-annotated
:class:`~repro.redmule.job.MatmulJob` streams via :mod:`repro.graph.lower`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.redmule.config import RedMulEConfig
from repro.workloads.gemm import VALID_TRANSPOSES, GemmShape

#: Bytes per FP16 tensor element.
ELEMENT_BYTES = 2


class GraphValidationError(ValueError):
    """A structural problem in a :class:`WorkloadGraph`."""


@dataclass(frozen=True)
class TensorRef:
    """A named 2-D FP16 tensor flowing between graph nodes."""

    name: str
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphValidationError("a tensor needs a non-empty name")
        if self.rows <= 0 or self.cols <= 0:
            raise GraphValidationError(
                f"tensor {self.name!r}: dimensions must be positive "
                f"(got {self.rows}x{self.cols})"
            )

    @property
    def shape(self) -> Tuple[int, int]:
        """(rows, cols) pair."""
        return (self.rows, self.cols)

    @property
    def elements(self) -> int:
        """Number of scalar elements."""
        return self.rows * self.cols

    @property
    def bytes(self) -> int:
        """FP16 storage footprint in bytes."""
        return self.elements * ELEMENT_BYTES

    def describe(self) -> str:
        """One-line summary."""
        return f"{self.name}[{self.rows}x{self.cols}]"


@dataclass
class GraphNode:
    """Base class: a compute node consuming and producing named tensors."""

    #: Unique node name within the graph (also the lowering/scheduling key).
    name: str
    #: Names of the tensors the node consumes, in positional order.
    inputs: Tuple[str, ...]
    #: Name of the single tensor the node produces (SSA: one producer max).
    output: str
    #: Free-form string metadata (e.g. training role / layer index) that
    #: survives lowering and lets flat-list consumers reconstruct context.
    tags: Dict[str, str] = field(default_factory=dict)
    #: Per-node element-format override (a registered :mod:`repro.fp.formats`
    #: name).  ``None`` -- the default -- inherits the graph's precision (or
    #: the lowering target's format).  Set by the precision-assignment pass
    #: (:mod:`repro.graph.precision`); the canonical use is LLM decode,
    #: where the KV-cache-reading GEMMs run at FP8 (multiplies through the
    #: :func:`repro.fp.formats.fma_mixed` narrow path, FP16 accumulation)
    #: while the rest of the step stays at the graph precision.
    precision: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphValidationError("a node needs a non-empty name")
        self.inputs = tuple(self.inputs)
        if self.precision is not None:
            from repro.fp.formats import get_format

            get_format(self.precision)  # raises on unknown names

    @property
    def is_gemm(self) -> bool:
        """True for accelerator GEMM nodes."""
        return isinstance(self, GemmNode)

    @property
    def macs(self) -> int:
        """Useful multiply-accumulates issued by the node."""
        return 0


@dataclass
class GemmNode(GraphNode):
    """One accelerator GEMM ``Z[m,k] = X[m,n] . W[n,k]``.

    ``inputs`` is the ``(x, w)`` tensor pair, ``output`` the Z tensor.
    ``transpose`` records which *logical* operands arrive transposed relative
    to their stored tensors (e.g. the input-gradient GEMM of a dense layer
    reads the stored ``W[out,in]`` as ``W^T[in,out]``): ``""``, ``"x"``,
    ``"w"`` or ``"xw"``.  The accelerator job itself is always a plain dense
    matmul of ``shape``; the annotation exists for shape validation and
    lowering diagnostics.
    """

    shape: GemmShape = None  # type: ignore[assignment]
    transpose: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shape is None:
            raise GraphValidationError(f"gemm node {self.name!r} needs a shape")
        if self.transpose not in VALID_TRANSPOSES:
            raise GraphValidationError(
                f"gemm node {self.name!r}: transpose must be one of "
                f"{VALID_TRANSPOSES}, got {self.transpose!r}"
            )
        if len(self.inputs) != 2:
            raise GraphValidationError(
                f"gemm node {self.name!r} needs exactly the (x, w) input "
                f"pair, got {len(self.inputs)} inputs"
            )

    @property
    def macs(self) -> int:
        """Useful multiply-accumulates (``m * n * k``)."""
        return self.shape.macs

    def expected_input_shapes(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """Stored (rows, cols) the X and W input tensors must have."""
        x_shape = (self.shape.m, self.shape.n)
        w_shape = (self.shape.n, self.shape.k)
        if "x" in self.transpose:
            x_shape = (x_shape[1], x_shape[0])
        if "w" in self.transpose:
            w_shape = (w_shape[1], w_shape[0])
        return x_shape, w_shape

    def expected_output_shape(self) -> Tuple[int, int]:
        """Stored (rows, cols) of the Z output tensor."""
        return (self.shape.m, self.shape.k)

    def describe(self) -> str:
        """Transpose-aware equation of the node (lowering diagnostics)."""
        return self.shape.describe(transpose=self.transpose)


@dataclass
class ElementwiseNode(GraphNode):
    """A non-GEMM step (activation, residual, softmax, loss gradient, ...).

    Elementwise work is negligible next to the GEMMs on this class of
    hardware (it runs on the cluster cores while the accelerator owns the
    matrix math), so these nodes carry dependencies and an element count but
    no accelerator jobs; the serving scheduler can optionally charge a
    per-element core cost.
    """

    op: str = "elementwise"

    def describe(self) -> str:
        """One-line summary."""
        return f"{self.name}: {self.op}({', '.join(self.inputs)}) -> {self.output}"


@dataclass(frozen=True)
class CriticalPath:
    """Longest weighted dependency chain through a graph."""

    cost: float
    nodes: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.nodes)


class WorkloadGraph:
    """A validated DAG of GEMM / elementwise nodes over named tensors.

    ``precision`` names the element format the graph's tensors default to
    (:mod:`repro.fp.formats`); lowering resolves it into the accelerator
    configuration, so an FP8 model is timed on FP8 line geometry.  The
    default ``None`` means *inherit*: the graph is lowered in whatever
    format the target configuration uses (so e.g. the runner's
    ``--format`` reaches precision-agnostic zoo models).  Mixed-precision
    *deployments* mix graphs of different precisions (e.g. per serving
    tenant); *within* one graph, individual nodes may carry a
    :attr:`GraphNode.precision` override (assigned through
    :func:`repro.graph.precision.assign_precisions`), which lowering and
    the simulation farm honour per node -- the LLM decode workloads use
    this to read their KV-cache GEMMs at FP8 while the projections stay at
    the graph precision.  See ``docs/architecture.md`` for where this
    boundary sits in the stack.
    """

    def __init__(self, name: str, precision: Optional[str] = None) -> None:
        if not name:
            raise GraphValidationError("a workload graph needs a name")
        if precision is not None:
            from repro.fp.formats import get_format

            get_format(precision)  # raises on unknown names
        self.name = name
        self.precision = precision
        self.tensors: Dict[str, TensorRef] = {}
        self.nodes: List[GraphNode] = []
        self._node_index: Dict[str, int] = {}
        #: tensor name -> producing node name (absent = graph input).
        self._producer: Dict[str, str] = {}
        #: Lowering key -> memoised LoweredProgram (see :meth:`lower`).
        self._lowered: Dict[tuple, object] = {}

    # -- construction --------------------------------------------------------
    def add_tensor(self, name: str, rows: int, cols: int) -> str:
        """Declare a tensor; returns its name for chaining."""
        if name in self.tensors:
            raise GraphValidationError(
                f"graph {self.name!r}: tensor {name!r} declared twice"
            )
        self.tensors[name] = TensorRef(name=name, rows=rows, cols=cols)
        return name

    def add(self, node: GraphNode) -> GraphNode:
        """Add a node, checking names, tensor existence and shapes."""
        if node.name in self._node_index:
            raise GraphValidationError(
                f"graph {self.name!r}: node {node.name!r} added twice"
            )
        for tensor in (*node.inputs, node.output):
            if tensor not in self.tensors:
                raise GraphValidationError(
                    f"graph {self.name!r}: node {node.name!r} references "
                    f"undeclared tensor {tensor!r}"
                )
        if node.output in self._producer:
            raise GraphValidationError(
                f"graph {self.name!r}: tensor {node.output!r} produced by "
                f"both {self._producer[node.output]!r} and {node.name!r}"
            )
        if isinstance(node, GemmNode):
            self._check_gemm_shapes(node)
        self._node_index[node.name] = len(self.nodes)
        self.nodes.append(node)
        self._producer[node.output] = node.name
        self.invalidate_lowerings()
        return node

    def invalidate_lowerings(self) -> None:
        """Drop every memoised lowering (see :meth:`lower`).

        :meth:`add` and :func:`repro.graph.precision.assign_precisions`
        call this.  The lowering key reads each node's precision override,
        so code that changes a node's shape or inputs in place must call
        it too.
        """
        self._lowered.clear()

    def add_gemm(self, name: str, shape: GemmShape, x: str, w: str, z: str,
                 transpose: str = "",
                 tags: Optional[Dict[str, str]] = None,
                 precision: Optional[str] = None) -> GemmNode:
        """Convenience wrapper building and adding a :class:`GemmNode`.

        ``precision`` is the optional per-node element-format override (see
        :attr:`GraphNode.precision`); most callers leave it ``None`` and use
        the precision-assignment pass instead.
        """
        node = GemmNode(name=name, inputs=(x, w), output=z, shape=shape,
                        transpose=transpose, tags=dict(tags or {}),
                        precision=precision)
        self.add(node)
        return node

    def add_elementwise(self, name: str, op: str, inputs: Sequence[str],
                        output: str,
                        tags: Optional[Dict[str, str]] = None) -> ElementwiseNode:
        """Convenience wrapper building and adding an :class:`ElementwiseNode`."""
        node = ElementwiseNode(name=name, inputs=tuple(inputs), output=output,
                               op=op, tags=dict(tags or {}))
        self.add(node)
        return node

    def _check_gemm_shapes(self, node: GemmNode) -> None:
        expected_x, expected_w = node.expected_input_shapes()
        x_tensor = self.tensors[node.inputs[0]]
        w_tensor = self.tensors[node.inputs[1]]
        z_tensor = self.tensors[node.output]
        for tensor, expected, role in (
            (x_tensor, expected_x, "X"),
            (w_tensor, expected_w, "W"),
            (z_tensor, node.expected_output_shape(), "Z"),
        ):
            if tensor.shape != expected:
                raise GraphValidationError(
                    f"graph {self.name!r}: node {node.name!r} expects "
                    f"{role} tensor of {expected[0]}x{expected[1]}, but "
                    f"{tensor.describe()} was given "
                    f"({node.describe()})"
                )

    # -- queries -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, name: str) -> GraphNode:
        """Look a node up by name."""
        return self.nodes[self._node_index[name]]

    def producer(self, tensor: str) -> Optional[GraphNode]:
        """The node producing ``tensor`` (None for graph inputs)."""
        producer = self._producer.get(tensor)
        return None if producer is None else self.node(producer)

    def dependencies(self, node: Union[str, GraphNode]) -> List[str]:
        """Names of the nodes that must complete before ``node`` can run."""
        if isinstance(node, str):
            node = self.node(node)
        deps = []
        for tensor in node.inputs:
            producer = self._producer.get(tensor)
            if producer is not None and producer not in deps:
                deps.append(producer)
        return deps

    def graph_inputs(self) -> List[TensorRef]:
        """Tensors no node produces (weights / activations from outside)."""
        return [tensor for name, tensor in self.tensors.items()
                if name not in self._producer]

    def gemm_nodes(self) -> List[GemmNode]:
        """Every GEMM node, in insertion order."""
        return [node for node in self.nodes if isinstance(node, GemmNode)]

    @property
    def total_macs(self) -> int:
        """Useful MACs summed over every node."""
        return sum(node.macs for node in self.nodes)

    # -- analysis ------------------------------------------------------------
    def topo_sort(self) -> List[GraphNode]:
        """Deterministic topological order of the nodes.

        Kahn's algorithm with a min-heap over node *insertion indices*: among
        all ready nodes the earliest-added runs first.  When the insertion
        order is itself a valid execution order (which is how the zoo
        builders construct their graphs), the sort returns exactly that
        order, so a builder's lowered job stream follows the order its
        GEMMs were written in.

        Raises :class:`GraphValidationError` on dependency cycles.
        """
        indegree: Dict[str, int] = {}
        dependents: Dict[str, List[str]] = {node.name: [] for node in self.nodes}
        for node in self.nodes:
            deps = self.dependencies(node)
            indegree[node.name] = len(deps)
            for dep in deps:
                dependents[dep].append(node.name)

        ready = [index for index, node in enumerate(self.nodes)
                 if indegree[node.name] == 0]
        heapq.heapify(ready)
        order: List[GraphNode] = []
        while ready:
            node = self.nodes[heapq.heappop(ready)]
            order.append(node)
            for dependent in dependents[node.name]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    heapq.heappush(ready, self._node_index[dependent])
        if len(order) != len(self.nodes):
            stuck = sorted(name for name, degree in indegree.items()
                           if degree > 0)
            raise GraphValidationError(
                f"graph {self.name!r} has a dependency cycle through "
                f"{', '.join(stuck)}"
            )
        return order

    def validate(self) -> None:
        """Full structural check (construction checks + acyclicity)."""
        self.topo_sort()

    def critical_path(
        self, cost: Optional[Callable[[GraphNode], float]] = None
    ) -> CriticalPath:
        """Longest weighted dependency chain (the serial floor of the graph).

        ``cost`` defaults to the node's MAC count, making the result the
        amount of accelerator work that cannot be parallelised no matter how
        many clusters serve the graph.
        """
        if cost is None:
            cost = lambda node: float(node.macs)  # noqa: E731
        best: Dict[str, float] = {}
        best_pred: Dict[str, Optional[str]] = {}
        for node in self.topo_sort():
            deps = self.dependencies(node)
            pred, base = None, 0.0
            for dep in deps:
                if best[dep] > base or pred is None:
                    pred, base = dep, best[dep]
            best[node.name] = base + cost(node)
            best_pred[node.name] = pred
        if not best:
            return CriticalPath(cost=0.0, nodes=())
        tail = max(best, key=lambda name: (best[name], -self._node_index[name]))
        path: List[str] = []
        cursor: Optional[str] = tail
        while cursor is not None:
            path.append(cursor)
            cursor = best_pred[cursor]
        return CriticalPath(cost=best[tail], nodes=tuple(reversed(path)))

    def wavefronts(self) -> List[List[str]]:
        """Dependency levels: nodes in one wave can run concurrently."""
        level: Dict[str, int] = {}
        waves: Dict[int, List[str]] = {}
        for node in self.topo_sort():
            deps = self.dependencies(node)
            depth = 1 + max((level[dep] for dep in deps), default=-1)
            level[node.name] = depth
            waves.setdefault(depth, []).append(node.name)
        return [waves[depth] for depth in sorted(waves)]

    # -- lowering ------------------------------------------------------------
    def lower(self, config=None, tile: bool = False,
              tcdm_budget_bytes: Optional[int] = None):
        """Lower to a dependency-annotated job stream (see :mod:`repro.graph.lower`).

        ``config`` is the target :class:`~repro.redmule.config.RedMulEConfig`
        (the paper's reference instance when omitted); the graph's precision
        -- and any per-node override -- wins over the config's format, so an
        FP8 model is never silently timed on FP16 line geometry.

        ``tile=False`` (default) emits **one whole-GEMM job per node**: the
        canonical placement the farm's shape-keyed timing cache memoises,
        with the tiling planner consulted only for diagnostics.  ``tile=True``
        splits any GEMM whose operand set exceeds ``tcdm_budget_bytes``
        (default: 96 KiB, headroom below the 128 KiB reference TCDM) into
        the per-tile job stream a DMA-fed cluster would actually execute:
        inner-dimension tiles carry ``accumulate=True`` and add into the
        same Z region, so the stream's MAC count equals the whole GEMM's
        and a job waits on its predecessor within the node.

        The result is memoised on the graph per *lowering key*: every input
        lowering reads -- the graph's name, its precision resolved against
        the config's format and each node's precision override; ``tile``
        and the resolved budget; and, of the config, the ``length`` and
        ``block_k`` the tiling planner reads.  Configurations that agree on
        the key share one frozen
        :class:`~repro.graph.lower.LoweredProgram`.  :meth:`add` and
        :func:`~repro.graph.precision.assign_precisions` drop the memo;
        :func:`repro.graph.lower.lower` always lowers afresh.
        """
        from repro.graph.lower import DEFAULT_TCDM_BUDGET_BYTES
        from repro.graph.lower import lower as lower_graph

        config = config or RedMulEConfig.reference()
        if tcdm_budget_bytes is None:
            tcdm_budget_bytes = DEFAULT_TCDM_BUDGET_BYTES
        key = (self.name, self.precision or config.format,
               tuple(node.precision for node in self.nodes),
               tile, tcdm_budget_bytes, config.length, config.block_k)
        program = self._lowered.get(key)
        if program is None:
            program = self._lowered[key] = lower_graph(
                self, config=config, tile=tile,
                tcdm_budget_bytes=tcdm_budget_bytes)
        return program

    # -- reporting -----------------------------------------------------------
    def describe(self) -> str:
        """Multi-line summary: totals, inputs, and one line per node."""
        gemms = self.gemm_nodes()
        waves = self.wavefronts() if self.nodes else []
        lines = [
            f"graph {self.name}: {len(self.nodes)} nodes "
            f"({len(gemms)} GEMMs, {self.total_macs} MACs, "
            f"{len(waves)} wavefronts)"
        ]
        inputs = self.graph_inputs()
        if inputs:
            lines.append("  inputs: "
                         + ", ".join(t.describe() for t in inputs))
        for node in self.nodes:
            deps = self.dependencies(node)
            suffix = f"  <- {', '.join(deps)}" if deps else ""
            lines.append(f"  {node.describe()}{suffix}")
        return "\n".join(lines)
