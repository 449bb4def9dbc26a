"""Tests of the model-zoo graph builders."""

import pytest

from repro.graph.ir import ElementwiseNode, GemmNode
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
from repro.workloads.autoencoder import AUTOENCODER_LAYER_SIZES

LAYERS = (10, 6, 4)


def _layers_table(batch):
    """(name, M, N, K, role, layer) of every GEMM of the ``LAYERS`` training
    step, in issue order: forward layer by layer, then per layer from last
    to first the weight gradient and (except for layer 0) the input
    gradient."""
    return [
        ("fc0-fwd", 6, 10, batch, "forward", 0),
        ("fc1-fwd", 4, 6, batch, "forward", 1),
        ("fc1-dw", 4, batch, 6, "weight-gradient", 1),
        ("fc1-dx", 6, 4, batch, "input-gradient", 1),
        ("fc0-dw", 6, batch, 10, "weight-gradient", 0),
    ]


def _gemm_rows(graph):
    gemms = [n for n in graph.topo_sort() if isinstance(n, GemmNode)]
    return [(g.shape.name, g.shape.m, g.shape.n, g.shape.k, g.tags["role"],
             int(g.tags["layer"])) for g in gemms]


class TestMlpBuilders:
    def test_forward_graph_matches_the_written_table(self):
        graph = mlp_forward_graph(LAYERS, batch=3)
        assert _gemm_rows(graph) == _layers_table(3)[:2]

    def test_training_graph_matches_the_written_table(self):
        """The graph's deterministic GEMM order is the written order."""
        graph = mlp_training_graph(LAYERS, batch=3)
        assert [row[:4] for row in _gemm_rows(graph)] == \
            [row[:4] for row in _layers_table(3)]

    def test_training_graph_tags_roles_and_layers(self):
        graph = mlp_training_graph(LAYERS, batch=2)
        assert [row[4:] for row in _gemm_rows(graph)] == \
            [row[4:] for row in _layers_table(2)]

    def test_transposes_annotate_gradient_gemms(self):
        graph = mlp_training_graph(LAYERS, batch=2)
        assert graph.node("fc1-dw").transpose == "w"
        assert graph.node("fc1-dx").transpose == "x"
        assert graph.node("fc1-fwd").transpose == ""

    def test_backward_depends_on_forward_activations(self):
        graph = mlp_training_graph(LAYERS, batch=2)
        # dW of the last layer reads the last hidden activation and the
        # loss gradient.
        deps = set(graph.dependencies("fc1-dw"))
        assert deps == {"loss-grad", "relu0"}

    def test_validation(self):
        with pytest.raises(ValueError):
            mlp_training_graph((8,), 2)
        with pytest.raises(ValueError):
            mlp_training_graph(LAYERS, 0)
        with pytest.raises(ValueError):
            mlp_forward_graph((8, -1), 2)


class TestTrainingStepMapping:
    """Section III-B's mapping of a training step onto ``Z = X . W``."""

    AE_LIKE = (640, 128, 8, 640)

    @staticmethod
    def _by_role(graph, role):
        return [n for n in graph.gemm_nodes() if n.tags["role"] == role]

    @staticmethod
    def _macs(gemms):
        return sum(n.shape.macs for n in gemms)

    def test_forward_shapes_follow_the_paper_mapping(self):
        """Forward: M = out features, N = in features, K = batch."""
        gemms = mlp_forward_graph(self.AE_LIKE, batch=1).gemm_nodes()
        assert len(gemms) == 3
        first = gemms[0].shape
        assert (first.m, first.n, first.k) == (128, 640, 1)
        assert all(g.tags["role"] == "forward" for g in gemms)
        assert [g.tags["layer"] for g in gemms] == ["0", "1", "2"]

    def test_batch_size_is_the_k_dimension(self):
        gemms = mlp_forward_graph(self.AE_LIKE, batch=16).gemm_nodes()
        assert all(g.shape.k == 16 for g in gemms)

    def test_validation(self):
        with pytest.raises(ValueError):
            mlp_forward_graph((640,), batch=1)
        with pytest.raises(ValueError):
            mlp_forward_graph(self.AE_LIKE, batch=0)
        with pytest.raises(ValueError):
            mlp_forward_graph((640, 0, 8), batch=1)

    def test_weight_gradient_shapes(self):
        """dW: M = out, N = batch, K = in -- the GEMM that stays efficient
        at batch 1 because its K dimension is the layer width."""
        graph = mlp_training_graph(self.AE_LIKE, batch=1)
        dw = self._by_role(graph, "weight-gradient")
        assert len(dw) == 3
        last_layer_dw = dw[0].shape  # backward walks layers in reverse
        assert (last_layer_dw.m, last_layer_dw.n, last_layer_dw.k) == (640, 1, 8)

    def test_input_gradient_skips_first_layer(self):
        graph = mlp_training_graph(self.AE_LIKE, batch=1)
        dx = self._by_role(graph, "input-gradient")
        assert len(dx) == 2  # layers 1 and 2, not layer 0
        assert all(int(g.tags["layer"]) > 0 for g in dx)

    def test_backward_has_more_macs_than_forward(self):
        gemms = mlp_training_graph(self.AE_LIKE, batch=1).gemm_nodes()
        forward = self._macs(g for g in gemms if g.tags["role"] == "forward")
        backward = self._macs(g for g in gemms if g.tags["role"] != "forward")
        assert backward > forward

    def test_composition(self):
        gemms = mlp_training_graph(self.AE_LIKE, batch=4).gemm_nodes()
        n_layers = len(self.AE_LIKE) - 1
        assert len(gemms) == n_layers + n_layers + (n_layers - 1)
        assert gemms[0].tags["role"] == "forward"
        assert gemms[-1].tags["role"] != "forward"

    def test_macs_scale_linearly_with_batch(self):
        macs_b1 = self._macs(mlp_training_graph(self.AE_LIKE, 1).gemm_nodes())
        macs_b16 = self._macs(mlp_training_graph(self.AE_LIKE, 16).gemm_nodes())
        assert macs_b16 == 16 * macs_b1


class TestAutoencoder:
    def test_graph_name_and_sizes(self):
        graph = autoencoder_training_graph(16)
        assert graph.name == "autoencoder-b16"
        n_layers = len(AUTOENCODER_LAYER_SIZES) - 1
        # fwd per layer, dw per layer, dx for all but the first layer.
        assert len(graph.gemm_nodes()) == 3 * n_layers - 1

    @pytest.mark.parametrize("batch", [1, 16])
    def test_macs_per_role(self, batch):
        """Sum of in x out over the ten layers is 264,192; the skipped
        first-layer input gradient is its 640 x 128."""
        graph = autoencoder_training_graph(batch)
        macs = {}
        for node in graph.gemm_nodes():
            macs[node.tags["role"]] = macs.get(node.tags["role"], 0) + node.macs
        assert macs == {"forward": 264_192 * batch,
                        "weight-gradient": 264_192 * batch,
                        "input-gradient": 182_272 * batch}
        assert graph.total_macs == 710_656 * batch


class TestTransformer:
    def test_structure(self):
        graph = transformer_encoder_graph(seq=8, d_model=16, n_heads=4,
                                          d_ff=32)
        graph.validate()
        gemms = [n.name for n in graph.gemm_nodes()]
        # QKV + per-head (scores, ctx) + out + 2 FFN projections.
        assert len(gemms) == 3 + 2 * 4 + 1 + 2
        assert "attn-scores0" in gemms and "ffn-down" in gemms

    def test_heads_are_parallel(self):
        graph = transformer_encoder_graph(seq=8, d_model=16, n_heads=4,
                                          d_ff=32)
        waves = graph.wavefronts()
        scores_wave = next(w for w in waves if "attn-scores0" in w)
        assert {f"attn-scores{h}" for h in range(4)} <= set(scores_wave)

    def test_scores_gemm_is_transpose_annotated(self):
        graph = transformer_encoder_graph(seq=8, d_model=16, n_heads=2,
                                          d_ff=32)
        assert graph.node("attn-scores0").transpose == "x"

    def test_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            transformer_encoder_graph(seq=8, d_model=10, n_heads=4, d_ff=16)
        with pytest.raises(ValueError):
            transformer_encoder_graph(seq=0, d_model=8, n_heads=2, d_ff=16)


class TestConv:
    def test_im2col_shapes(self):
        graph = conv2d_im2col_graph(in_channels=3, out_channels=8, kernel=3,
                                    height=10, width=10)
        graph.validate()
        conv = graph.node("conv")
        assert conv.shape.m == 8
        assert conv.shape.n == 3 * 3 * 3
        assert conv.shape.k == 8 * 8  # valid conv: (10-3)+1 squared
        assert graph.dependencies("conv") == ["im2col"]

    def test_stride_and_batch(self):
        graph = conv2d_im2col_graph(in_channels=1, out_channels=4, kernel=3,
                                    height=9, width=9, batch=2, stride=2)
        conv = graph.node("conv")
        assert conv.shape.k == 4 * 4 * 2

    def test_validation(self):
        with pytest.raises(ValueError, match="fit"):
            conv2d_im2col_graph(1, 1, kernel=5, height=4, width=8)
        with pytest.raises(ValueError):
            conv2d_im2col_graph(0, 1, 1, 4, 4)


class TestRecurrent:
    def test_lstm_gate_stack_shapes(self):
        graph = lstm_cell_graph(input_size=12, hidden_size=8, batch=2,
                                steps=3)
        graph.validate()
        assert graph.node("lstm0-xgates").shape.m == 4 * 8
        assert graph.node("lstm0-hgates").shape.n == 8
        assert len(graph.gemm_nodes()) == 2 * 3

    def test_gru_uses_three_gates(self):
        graph = gru_cell_graph(input_size=12, hidden_size=8, batch=2)
        assert graph.node("gru0-xgates").shape.m == 3 * 8

    def test_steps_are_sequential_but_gates_parallel(self):
        graph = lstm_cell_graph(4, 4, 1, steps=2)
        waves = graph.wavefronts()
        assert {"lstm0-xgates", "lstm1-xgates"} not in map(set, waves)
        first = next(w for w in waves if "lstm0-xgates" in w)
        assert "lstm0-hgates" in first
        # Step 1's hidden-state GEMM waits on step 0's cell update.
        assert "lstm0-cell" in graph.dependencies("lstm1-hgates")

    def test_validation(self):
        with pytest.raises(ValueError):
            lstm_cell_graph(0, 4, 1)


class TestZooRegistry:
    def test_every_model_builds_validates_and_lowers(self):
        for name in zoo_models():
            graph = build_model(name)
            graph.validate()
            program = graph.lower()
            assert program.n_jobs >= 1
            assert program.total_macs == graph.total_macs

    def test_builders_return_fresh_graphs(self):
        assert build_model("mlp-tiny") is not build_model("mlp-tiny")

    def test_unknown_model(self):
        with pytest.raises(KeyError, match="unknown zoo model"):
            build_model("resnet-152")

    def test_zoo_models_sorted(self):
        assert zoo_models() == sorted(MODEL_ZOO)

    def test_elementwise_nodes_present(self):
        graph = build_model("transformer-tiny")
        ops = {n.op for n in graph.nodes if isinstance(n, ElementwiseNode)}
        assert "softmax" in ops and "concat" in ops
