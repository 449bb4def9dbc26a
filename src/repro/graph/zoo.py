"""Model zoo: builders turning common network topologies into workload graphs.

The paper hand-decomposes exactly one model (the MLPerf-Tiny auto-encoder)
into a flat GEMM list; every builder here writes such a decomposition as a
:class:`~repro.graph.ir.WorkloadGraph` with explicit tensor dependencies, so
the serving scheduler can overlap whatever is actually independent:

* :func:`mlp_forward_graph` / :func:`mlp_training_graph` -- dense MLP
  inference and SGD training step (forward + weight/input gradients), the
  only place in the package where a training step becomes GEMMs;
* :func:`autoencoder_training_graph` -- the paper's use case (Figs. 4c/4d);
* :func:`transformer_encoder_graph` -- one encoder block with per-head
  attention (QKV projections, scores, context, output projection) and the
  two FFN projections as GEMMs;
* :func:`conv2d_im2col_graph` -- a convolution lowered to one patch-matrix
  GEMM via im2col;
* :func:`lstm_cell_graph` / :func:`gru_cell_graph` -- recurrent gate stacks
  unrolled over time, with the sequential dependency through the hidden
  state made explicit.

Every builder constructs its graph in a valid execution order, so the
deterministic topological sort returns the nodes exactly as written:
:func:`mlp_training_graph` issues the forward GEMMs layer by layer, then per
layer from last to first the weight gradient followed by the input gradient.

``MODEL_ZOO`` maps names to small parameterless instances used by the
serving scenarios and the scaling benchmark.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.graph.ir import WorkloadGraph
from repro.workloads.autoencoder import AUTOENCODER_LAYER_SIZES
from repro.workloads.gemm import GemmShape

#: Tag keys the MLP builders attach to their GEMM nodes: each GEMM's role in
#: the training step (one of the ``ROLE_*`` values) and its layer index.
TAG_ROLE = "role"
TAG_LAYER = "layer"

ROLE_FORWARD = "forward"
ROLE_WEIGHT_GRADIENT = "weight-gradient"
ROLE_INPUT_GRADIENT = "input-gradient"


def _check_mlp_args(layer_sizes: Sequence[int], batch: int) -> None:
    if len(layer_sizes) < 2:
        raise ValueError("an MLP needs at least an input and an output size")
    if any(size <= 0 for size in layer_sizes):
        raise ValueError("layer sizes must be positive")
    if batch <= 0:
        raise ValueError("batch size must be positive")


def _mlp_forward_nodes(graph: WorkloadGraph, layer_sizes: Sequence[int],
                       batch: int) -> None:
    """Add the forward pass: GEMM + ReLU per layer, linear output layer."""
    n_layers = len(layer_sizes) - 1
    graph.add_tensor("a0", layer_sizes[0], batch)
    for layer, (n_in, n_out) in enumerate(zip(layer_sizes[:-1],
                                              layer_sizes[1:])):
        graph.add_tensor(f"w{layer}", n_out, n_in)
        graph.add_tensor(f"y{layer}", n_out, batch)
        graph.add_gemm(
            f"fc{layer}-fwd",
            GemmShape(m=n_out, n=n_in, k=batch, name=f"fc{layer}-fwd"),
            x=f"w{layer}", w=f"a{layer}", z=f"y{layer}",
            tags={TAG_ROLE: ROLE_FORWARD, TAG_LAYER: str(layer)},
        )
        if layer < n_layers - 1:
            graph.add_tensor(f"a{layer + 1}", n_out, batch)
            graph.add_elementwise(f"relu{layer}", "relu",
                                  inputs=(f"y{layer}",),
                                  output=f"a{layer + 1}",
                                  tags={TAG_LAYER: str(layer)})


def mlp_forward_graph(layer_sizes: Sequence[int], batch: int,
                      name: str = "mlp-forward") -> WorkloadGraph:
    """Inference pass of a dense MLP (``Y = W . A`` per layer, ReLU between).

    The GEMM mapping follows the paper: the accelerator's inner dimension is
    the layer's input features and its output width is the batch, so batch-1
    inference leaves the 16-wide output rows almost empty (Fig. 4d's point).
    """
    _check_mlp_args(layer_sizes, batch)
    graph = WorkloadGraph(name)
    _mlp_forward_nodes(graph, layer_sizes, batch)
    return graph


def mlp_training_graph(
    layer_sizes: Sequence[int],
    batch: int,
    name: str = "mlp-training",
) -> WorkloadGraph:
    """One SGD training step of a dense MLP as a dataflow graph.

    Forward GEMMs chain through the activations; the MSE loss gradient seeds
    the backward pass; per layer (last to first) the weight-gradient GEMM
    reads the forward activation (``dW = dY . A^T``, transpose-annotated) and
    the input-gradient GEMM reads the stored weights transposed
    (``dA = W^T . dY``).  The first layer's input gradient is skipped:
    there is no earlier layer to propagate it to, so an on-device training
    library never computes it.

    The mapping onto RedMulE's ``Z = X . W`` follows Section III-B of the
    paper: the forward and input-gradient GEMMs have ``K`` equal to the
    batch, so at batch 1 the array's 16-element output rows are almost
    empty; the weight-gradient GEMM has ``K`` equal to the layer's input
    features and keeps the array busy at any batch (Fig. 4d).
    """
    _check_mlp_args(layer_sizes, batch)
    graph = WorkloadGraph(name)
    _mlp_forward_nodes(graph, layer_sizes, batch)

    n_layers = len(layer_sizes) - 1
    last = n_layers - 1
    graph.add_tensor("target", layer_sizes[-1], batch)
    graph.add_tensor(f"delta{last}", layer_sizes[-1], batch)
    graph.add_elementwise("loss-grad", "mse-grad",
                          inputs=(f"y{last}", "target"),
                          output=f"delta{last}")

    for layer in reversed(range(n_layers)):
        n_in, n_out = layer_sizes[layer], layer_sizes[layer + 1]
        graph.add_tensor(f"dw{layer}", n_out, n_in)
        graph.add_gemm(
            f"fc{layer}-dw",
            GemmShape(m=n_out, n=batch, k=n_in, name=f"fc{layer}-dw"),
            x=f"delta{layer}", w=f"a{layer}", z=f"dw{layer}",
            transpose="w",
            tags={TAG_ROLE: ROLE_WEIGHT_GRADIENT, TAG_LAYER: str(layer)},
        )
        if layer > 0:
            graph.add_tensor(f"prop{layer}", n_in, batch)
            graph.add_gemm(
                f"fc{layer}-dx",
                GemmShape(m=n_in, n=n_out, k=batch, name=f"fc{layer}-dx"),
                x=f"w{layer}", w=f"delta{layer}", z=f"prop{layer}",
                transpose="x",
                tags={TAG_ROLE: ROLE_INPUT_GRADIENT, TAG_LAYER: str(layer)},
            )
            graph.add_tensor(f"delta{layer - 1}", n_in, batch)
            graph.add_elementwise(
                f"relu{layer - 1}-bwd", "relu-grad",
                inputs=(f"prop{layer}", f"y{layer - 1}"),
                output=f"delta{layer - 1}",
                tags={TAG_LAYER: str(layer - 1)},
            )
    return graph


def autoencoder_training_graph(batch: int) -> WorkloadGraph:
    """The MLPerf-Tiny anomaly-detection auto-encoder training step.

    Graph form of the paper's Section III-B use case, the GEMMs Figs. 4c and
    4d time: ten forward GEMMs, ten weight gradients and nine input
    gradients.
    """
    return mlp_training_graph(AUTOENCODER_LAYER_SIZES, batch,
                              name=f"autoencoder-b{batch}")


def transformer_encoder_graph(
    seq: int,
    d_model: int,
    n_heads: int,
    d_ff: int,
    name: str = "transformer-encoder",
) -> WorkloadGraph:
    """One transformer encoder block with per-head attention GEMMs.

    Activations are stored feature-major (``[d_model, seq]``) like the MLP
    builders, so the projections are ``W[d,d] . X[d,S]`` GEMMs.  Per head:
    ``scores[S,S] = Q_h^T . K_h`` (transpose-annotated) and
    ``ctx[d_h,S] = V_h . P_h`` after the softmax; the per-head nodes only
    depend on their own slices, which is where a multi-cluster scheduler
    finds its intra-request parallelism.
    """
    if seq <= 0 or d_model <= 0 or n_heads <= 0 or d_ff <= 0:
        raise ValueError("transformer dimensions must be positive")
    if d_model % n_heads:
        raise ValueError(
            f"d_model ({d_model}) must be divisible by n_heads ({n_heads})"
        )
    d_head = d_model // n_heads
    graph = WorkloadGraph(name)
    graph.add_tensor("x", d_model, seq)
    for proj in ("q", "k", "v"):
        graph.add_tensor(f"w{proj}", d_model, d_model)
        graph.add_tensor(proj, d_model, seq)
        graph.add_gemm(
            f"attn-{proj}",
            GemmShape(m=d_model, n=d_model, k=seq, name=f"attn-{proj}"),
            x=f"w{proj}", w="x", z=proj,
        )
    for head in range(n_heads):
        for proj in ("q", "k", "v"):
            graph.add_tensor(f"{proj}{head}", d_head, seq)
            graph.add_elementwise(f"slice-{proj}{head}", "slice",
                                  inputs=(proj,), output=f"{proj}{head}",
                                  tags={"head": str(head)})
        graph.add_tensor(f"s{head}", seq, seq)
        graph.add_gemm(
            f"attn-scores{head}",
            GemmShape(m=seq, n=d_head, k=seq, name=f"attn-scores{head}"),
            x=f"q{head}", w=f"k{head}", z=f"s{head}",
            transpose="x", tags={"head": str(head)},
        )
        graph.add_tensor(f"p{head}", seq, seq)
        graph.add_elementwise(f"softmax{head}", "softmax",
                              inputs=(f"s{head}",), output=f"p{head}",
                              tags={"head": str(head)})
        graph.add_tensor(f"c{head}", d_head, seq)
        graph.add_gemm(
            f"attn-ctx{head}",
            GemmShape(m=d_head, n=seq, k=seq, name=f"attn-ctx{head}"),
            x=f"v{head}", w=f"p{head}", z=f"c{head}",
            tags={"head": str(head)},
        )
    graph.add_tensor("ctx", d_model, seq)
    graph.add_elementwise("concat", "concat",
                          inputs=tuple(f"c{h}" for h in range(n_heads)),
                          output="ctx")
    graph.add_tensor("wo", d_model, d_model)
    graph.add_tensor("attn", d_model, seq)
    graph.add_gemm("attn-out",
                   GemmShape(m=d_model, n=d_model, k=seq, name="attn-out"),
                   x="wo", w="ctx", z="attn")
    graph.add_tensor("h1", d_model, seq)
    graph.add_elementwise("ln1", "residual-layernorm",
                          inputs=("attn", "x"), output="h1")
    graph.add_tensor("w1", d_ff, d_model)
    graph.add_tensor("f1", d_ff, seq)
    graph.add_gemm("ffn-up", GemmShape(m=d_ff, n=d_model, k=seq, name="ffn-up"),
                   x="w1", w="h1", z="f1")
    graph.add_tensor("f2", d_ff, seq)
    graph.add_elementwise("ffn-act", "gelu", inputs=("f1",), output="f2")
    graph.add_tensor("w2", d_model, d_ff)
    graph.add_tensor("f3", d_model, seq)
    graph.add_gemm("ffn-down",
                   GemmShape(m=d_model, n=d_ff, k=seq, name="ffn-down"),
                   x="w2", w="f2", z="f3")
    graph.add_tensor("out", d_model, seq)
    graph.add_elementwise("ln2", "residual-layernorm",
                          inputs=("f3", "h1"), output="out")
    return graph


def conv2d_im2col_graph(
    in_channels: int,
    out_channels: int,
    kernel: int,
    height: int,
    width: int,
    batch: int = 1,
    stride: int = 1,
    name: str = "conv2d-im2col",
) -> WorkloadGraph:
    """A 2-D convolution lowered to a single GEMM via im2col.

    The im2col step (an :class:`~repro.graph.ir.ElementwiseNode` -- pure
    data movement on the cores/DMA) unfolds the input into a patch matrix
    ``[in_channels * kernel^2, out_positions]``; the convolution itself is
    then one ``W[out_ch, in_ch*k*k] . patches`` GEMM, which is exactly how
    a PULP software stack feeds convolutions to a matmul accelerator.
    """
    if min(in_channels, out_channels, kernel, height, width, batch,
           stride) <= 0:
        raise ValueError("convolution parameters must be positive")
    if kernel > height or kernel > width:
        raise ValueError(
            f"{kernel}x{kernel} kernel does not fit a {height}x{width} image"
        )
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    patch_rows = in_channels * kernel * kernel
    positions = out_h * out_w * batch

    graph = WorkloadGraph(name)
    graph.add_tensor("image", in_channels, height * width * batch)
    graph.add_tensor("patches", patch_rows, positions)
    graph.add_elementwise("im2col", "im2col", inputs=("image",),
                          output="patches")
    graph.add_tensor("wconv", out_channels, patch_rows)
    graph.add_tensor("fmap", out_channels, positions)
    graph.add_gemm(
        "conv",
        GemmShape(m=out_channels, n=patch_rows, k=positions, name="conv"),
        x="wconv", w="patches", z="fmap",
    )
    graph.add_tensor("act", out_channels, positions)
    graph.add_elementwise("conv-relu", "relu", inputs=("fmap",), output="act")
    return graph


def _recurrent_graph(kind: str, gates: int, input_size: int, hidden_size: int,
                     batch: int, steps: int, name: str) -> WorkloadGraph:
    if min(input_size, hidden_size, batch, steps) <= 0:
        raise ValueError(f"{kind} parameters must be positive")
    stack = gates * hidden_size
    graph = WorkloadGraph(name)
    graph.add_tensor("wx", stack, input_size)
    graph.add_tensor("wh", stack, hidden_size)
    graph.add_tensor("h0", hidden_size, batch)
    for step in range(steps):
        graph.add_tensor(f"x{step}", input_size, batch)
        graph.add_tensor(f"gx{step}", stack, batch)
        graph.add_gemm(
            f"{kind}{step}-xgates",
            GemmShape(m=stack, n=input_size, k=batch,
                      name=f"{kind}{step}-xgates"),
            x="wx", w=f"x{step}", z=f"gx{step}", tags={"step": str(step)},
        )
        graph.add_tensor(f"gh{step}", stack, batch)
        graph.add_gemm(
            f"{kind}{step}-hgates",
            GemmShape(m=stack, n=hidden_size, k=batch,
                      name=f"{kind}{step}-hgates"),
            x="wh", w=f"h{step}", z=f"gh{step}", tags={"step": str(step)},
        )
        graph.add_tensor(f"h{step + 1}", hidden_size, batch)
        graph.add_elementwise(
            f"{kind}{step}-cell", f"{kind}-cell",
            inputs=(f"gx{step}", f"gh{step}"), output=f"h{step + 1}",
            tags={"step": str(step)},
        )
    return graph


def lstm_cell_graph(input_size: int, hidden_size: int, batch: int,
                    steps: int = 1, name: str = "lstm") -> WorkloadGraph:
    """An LSTM unrolled over ``steps``: two gate-stack GEMMs per step.

    Each step issues ``Wx[4H,I] . x_t`` and ``Wh[4H,H] . h_{t-1}`` (the four
    gates stacked row-wise, the standard fused layout) followed by the
    elementwise cell update.  The hidden-state chain makes the steps
    sequential, while the two gate GEMMs *within* a step are independent.
    """
    return _recurrent_graph("lstm", 4, input_size, hidden_size, batch, steps,
                            name)


def gru_cell_graph(input_size: int, hidden_size: int, batch: int,
                   steps: int = 1, name: str = "gru") -> WorkloadGraph:
    """A GRU unrolled over ``steps``: 3-gate stacks instead of the LSTM's 4."""
    return _recurrent_graph("gru", 3, input_size, hidden_size, batch, steps,
                            name)


def precision_variant(base: str, precision: str,
                      name: str = None) -> WorkloadGraph:
    """Build a zoo model at a non-default element precision.

    The topology and shapes are identical to the base model; only the
    element format -- and therefore the accelerator's line geometry, cycle
    counts and memory footprint -- changes.  This is how mixed-precision
    deployments are expressed: different graphs (per tenant, per model) at
    different precisions sharing one serving pool.
    """
    from repro.fp.formats import get_format

    get_format(precision)
    graph = build_model(base)
    graph.precision = precision
    graph.name = name or f"{graph.name}-{precision}"
    return graph


#: Named small model instances used by the serving scenarios, the scaling
#: benchmark and the examples.  Every entry is a zero-argument builder
#: returning a fresh graph.  The ``*-fp8*`` / ``*-bf16`` entries are
#: reduced-precision variants of the base models (same topology, narrower
#: elements): FP8 models run on doubled elements-per-line geometry.
MODEL_ZOO: Dict[str, Callable[[], WorkloadGraph]] = {
    "autoencoder-b1": lambda: autoencoder_training_graph(1),
    "autoencoder-b16": lambda: autoencoder_training_graph(16),
    "mlp-tiny": lambda: mlp_training_graph((64, 32, 16, 8), batch=8,
                                           name="mlp-tiny"),
    "transformer-tiny": lambda: transformer_encoder_graph(
        seq=16, d_model=32, n_heads=2, d_ff=64, name="transformer-tiny"),
    "conv-tiny": lambda: conv2d_im2col_graph(
        in_channels=8, out_channels=16, kernel=3, height=12, width=12,
        name="conv-tiny"),
    "lstm-tiny": lambda: lstm_cell_graph(32, 32, batch=4, steps=4,
                                         name="lstm-tiny"),
    "gru-tiny": lambda: gru_cell_graph(32, 32, batch=4, steps=4,
                                       name="gru-tiny"),
}

MODEL_ZOO.update({
    "autoencoder-b1-fp8": lambda: precision_variant("autoencoder-b1",
                                                    "fp8-e4m3"),
    "autoencoder-b16-fp8": lambda: precision_variant("autoencoder-b16",
                                                     "fp8-e4m3"),
    "mlp-tiny-bf16": lambda: precision_variant("mlp-tiny", "bf16"),
    "transformer-tiny-fp8": lambda: precision_variant("transformer-tiny",
                                                      "fp8-e5m2"),
})


def _decode_step(spec_name: str, position: int) -> WorkloadGraph:
    # Lazy import: repro.graph.llm imports GemmShape/ir like this module
    # does, but keeping the zoo importable without it costs nothing.
    from repro.graph.llm import build_decode_spec, decode_step_graph

    return decode_step_graph(build_decode_spec(spec_name), position=position)


# Representative mid-stream decode steps as ordinary zoo models (fixed KV
# position), so DSE sweeps and flat serve scenarios can time the skinny-GEMM
# regime without the session machinery; sessions proper go through
# ``repro.serve`` decode arrivals, which build per-position graphs.
MODEL_ZOO.update({
    "llm-decode-tiny-step8": lambda: _decode_step("llm-decode-tiny", 8),
    "llm-decode-tiny-kv8-step8": lambda: _decode_step("llm-decode-tiny-kv8",
                                                      8),
})


def build_model(name: str) -> WorkloadGraph:
    """Build a fresh graph for a zoo model by name."""
    try:
        builder = MODEL_ZOO[name]
    except KeyError:
        raise KeyError(
            f"unknown zoo model {name!r}; available: {zoo_models()}"
        ) from None
    return builder()


def zoo_models() -> List[str]:
    """Sorted zoo model names."""
    return sorted(MODEL_ZOO)
