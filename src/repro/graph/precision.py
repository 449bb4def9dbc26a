"""Precision assignment: per-node element-format overrides on a graph.

``WorkloadGraph(precision=...)`` fixes one element format for a whole graph;
this pass generalises that to **per node**.  A :class:`PrecisionRule` names
a registered element format (:mod:`repro.fp.formats`) and a predicate --
match by tag key/value or by node-name prefix -- and
:func:`assign_precisions` walks the graph applying the first matching rule
to every node.  Downstream, :func:`repro.graph.lower.lower` gives each
overridden node's jobs the element width of *its* format, and
:meth:`repro.farm.SimulationFarm.time_program` routes those jobs through a
derived farm of that format (sharing the timing cache), so a mixed-precision
program is timed correctly end to end.

The canonical client is the LLM decode generator (:mod:`repro.graph.llm`):
its KV-cache-reading attention GEMMs are tagged ``kv-cache`` and assigned an
FP8 format -- the multiplies ride the packed FP8 line geometry through the
:func:`repro.fp.formats.fma_mixed` narrow-multiply/FP16-accumulate path --
while the weight-stationary projection/MLP GEMMs stay at the graph
precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.graph.ir import GraphNode, GraphValidationError, WorkloadGraph


@dataclass(frozen=True)
class PrecisionRule:
    """One assignment rule: a target format plus a node predicate.

    ``precision`` must be a registered element-format name.  A node matches
    when its tags contain the ``tag`` (key, value) pair, or when its name
    starts with ``prefix``; at least one predicate must be given, and a rule
    with both matches only nodes satisfying both.  Rules are applied
    first-match-wins in sequence order.
    """

    precision: str
    tag: Optional[Tuple[str, str]] = None
    prefix: Optional[str] = None

    def __post_init__(self) -> None:
        from repro.fp.formats import get_format

        get_format(self.precision)  # raises on unknown format names
        if self.tag is None and self.prefix is None:
            raise ValueError(
                "a precision rule needs a predicate: a (key, value) tag "
                "pair and/or a node-name prefix")

    def matches(self, node: GraphNode) -> bool:
        """True when the node satisfies every given predicate."""
        if self.tag is not None:
            key, value = self.tag
            if node.tags.get(key) != value:
                return False
        if self.prefix is not None and not node.name.startswith(self.prefix):
            return False
        return True


def assign_precisions(graph: WorkloadGraph,
                      rules: Sequence[PrecisionRule],
                      require_match: bool = True) -> WorkloadGraph:
    """Apply per-node precision overrides to ``graph`` (in place).

    Every node is tested against the rules in order; the first matching
    rule's format becomes the node's :attr:`~repro.graph.ir.GraphNode.
    precision`.  Nodes no rule matches keep their current override (usually
    ``None`` -- inherit the graph precision).  With ``require_match`` (the
    default) a rule that matched no node at all raises
    :class:`~repro.graph.ir.GraphValidationError`, catching tag typos
    before they silently time a model at the wrong width.  Returns the
    graph for chaining.
    """
    matched = [0] * len(rules)
    for node in graph.nodes:
        for index, rule in enumerate(rules):
            if rule.matches(node):
                node.precision = rule.precision
                matched[index] += 1
                break
    graph.invalidate_lowerings()
    if require_match:
        for rule, count in zip(rules, matched):
            if count == 0:
                raise GraphValidationError(
                    f"graph {graph.name!r}: precision rule "
                    f"{rule.precision!r} (tag={rule.tag}, "
                    f"prefix={rule.prefix!r}) matched no node")
    return graph


def node_precision(graph: WorkloadGraph, node: GraphNode,
                   fallback: str) -> str:
    """Effective element format of one node.

    Resolution order mirrors lowering: the node's own override, then the
    graph precision, then ``fallback`` (the target configuration's format).
    """
    return node.precision or graph.precision or fallback


def precision_summary(graph: WorkloadGraph,
                      fallback: str = "inherit") -> Dict[str, int]:
    """Node counts per effective format (diagnostics / tests)."""
    summary: Dict[str, int] = {}
    for node in graph.nodes:
        effective = node.precision or graph.precision or fallback
        summary[effective] = summary.get(effective, 0) + 1
    return summary
