"""Workload-graph compiler: GEMM-level dataflow IR, model zoo, lowering.

``repro.graph`` writes workloads as a GEMM-level intermediate
representation over the :class:`~repro.workloads.gemm.GemmShape`
vocabulary of :mod:`repro.workloads`:

* :mod:`repro.graph.ir` -- tensors, :class:`GemmNode` /
  :class:`ElementwiseNode`, the validated :class:`WorkloadGraph` DAG with
  deterministic topological sort, critical-path and wavefront analysis;
* :mod:`repro.graph.zoo` -- builders for MLP forward/training steps, the
  paper's auto-encoder, a transformer encoder block, im2col convolutions
  and LSTM/GRU stacks, plus the named ``MODEL_ZOO`` instances;
* :mod:`repro.graph.llm` -- autoregressive decode workloads: per-step
  dynamic graphs whose attention GEMMs grow with the KV-cache position,
  split into batchable (``role=shared``) and per-request
  (``role=attention``) halves for the continuous batcher;
* :mod:`repro.graph.precision` -- the per-node precision-assignment pass
  (tag/prefix rules generalising ``WorkloadGraph(precision=...)``);
* :mod:`repro.graph.lower` -- the pass producing dependency-annotated
  :class:`~repro.redmule.job.MatmulJob` streams (whole-GEMM or tiled via
  :func:`repro.cluster.tiler.plan_tiled_matmul`) that the simulation farm
  and the serving scheduler consume, honouring per-node precision.

See ``docs/architecture.md`` for where this subsystem sits in the stack.
"""

from repro.graph.ir import (
    CriticalPath,
    ElementwiseNode,
    GemmNode,
    GraphNode,
    GraphValidationError,
    TensorRef,
    WorkloadGraph,
)
from repro.graph.llm import (
    DECODE_ZOO,
    DecodeSpec,
    build_decode_spec,
    decode_attention_graph,
    decode_shared_graph,
    decode_specs,
    decode_step_graph,
    session_positions,
)
from repro.graph.lower import (
    DEFAULT_TCDM_BUDGET_BYTES,
    LoweredNode,
    LoweredProgram,
    lower,
)
from repro.graph.precision import (
    PrecisionRule,
    assign_precisions,
    precision_summary,
)
from repro.graph.zoo import (
    MODEL_ZOO,
    autoencoder_training_graph,
    build_model,
    conv2d_im2col_graph,
    gru_cell_graph,
    lstm_cell_graph,
    mlp_forward_graph,
    mlp_training_graph,
    transformer_encoder_graph,
    zoo_models,
)

__all__ = [
    "CriticalPath",
    "DECODE_ZOO",
    "DEFAULT_TCDM_BUDGET_BYTES",
    "DecodeSpec",
    "ElementwiseNode",
    "GemmNode",
    "GraphNode",
    "GraphValidationError",
    "LoweredNode",
    "LoweredProgram",
    "MODEL_ZOO",
    "PrecisionRule",
    "TensorRef",
    "WorkloadGraph",
    "assign_precisions",
    "autoencoder_training_graph",
    "build_decode_spec",
    "build_model",
    "conv2d_im2col_graph",
    "decode_attention_graph",
    "decode_shared_graph",
    "decode_specs",
    "decode_step_graph",
    "gru_cell_graph",
    "lower",
    "lstm_cell_graph",
    "mlp_forward_graph",
    "mlp_training_graph",
    "precision_summary",
    "session_positions",
    "transformer_encoder_graph",
    "zoo_models",
]
