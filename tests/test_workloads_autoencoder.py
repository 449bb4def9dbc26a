"""Tests for the TinyMLPerf auto-encoder workload model."""

import hashlib

import numpy as np
import pytest

from repro.fp.vector import quantize
from repro.graph.zoo import ROLE_FORWARD, TAG_ROLE, autoencoder_training_graph
from repro.workloads.autoencoder import AUTOENCODER_LAYER_SIZES, AutoEncoder


class TestTopology:
    def test_mlperf_tiny_layer_sizes(self):
        """640-in/out deep auto-encoder with an 8-unit bottleneck."""
        assert AUTOENCODER_LAYER_SIZES[0] == 640
        assert AUTOENCODER_LAYER_SIZES[-1] == 640
        assert min(AUTOENCODER_LAYER_SIZES) == 8
        assert len(AUTOENCODER_LAYER_SIZES) == 11  # ten dense layers

    def test_parameter_count(self):
        model = AutoEncoder()
        assert sum(weight.size for weight in model.weights) == 264_192
        assert model.n_layers == 10

    def test_training_gemms(self):
        gemms = autoencoder_training_graph(1).gemm_nodes()
        forward = [g for g in gemms if g.tags[TAG_ROLE] == ROLE_FORWARD]
        assert len(forward) == 10
        # Forward GEMMs all have K = batch = 1 (the Fig. 4c bottleneck).
        assert all(g.shape.k == 1 for g in forward)


class TestFunctionalModel:
    def _batch(self, model, batch, seed=0):
        rng = np.random.default_rng(seed)
        return quantize(rng.standard_normal((model.layer_sizes[0], batch)) * 0.1)

    def test_forward_shapes(self):
        model = AutoEncoder(layer_sizes=(32, 16, 4, 16, 32), seed=1)
        data = self._batch(model, batch=3)
        output, activations = model.forward(data)
        assert output.shape == (32, 3)
        assert len(activations) == model.n_layers + 1
        assert activations[0].shape == (32, 3)

    def test_forward_rejects_wrong_input_size(self):
        model = AutoEncoder(layer_sizes=(32, 16, 32), seed=1)
        with pytest.raises(ValueError):
            model.forward(np.zeros((16, 1)))

    def test_values_are_fp16_representable(self):
        model = AutoEncoder(layer_sizes=(32, 16, 32), seed=2)
        output, _ = model.forward(self._batch(model, 2, seed=3))
        assert np.array_equal(output, quantize(output))
        assert all(np.array_equal(w, quantize(w)) for w in model.weights)

    def test_backward_gradient_shapes(self):
        model = AutoEncoder(layer_sizes=(24, 12, 4, 12, 24), seed=4)
        data = self._batch(model, batch=2, seed=5)
        _, activations = model.forward(data)
        gradients = model.backward(activations, data)
        assert len(gradients) == model.n_layers
        for gradient, weight in zip(gradients, model.weights):
            assert gradient.shape == weight.shape

    def test_training_reduces_reconstruction_loss(self):
        """A few SGD steps on a fixed batch must reduce the MSE loss, which
        demonstrates that FP16 training of the auto-encoder works end to end
        (the paper's 'adaptive deep learning' use case).

        Inputs, weights and learning rate are scaled so gradients stay above
        the FP16 resolution of the weights -- the same loss-scaling concern
        mixed-precision training has on the real system.
        """
        model = AutoEncoder(layer_sizes=(32, 16, 8, 16, 32), seed=6,
                            weight_scale=0.2)
        rng = np.random.default_rng(7)
        data = quantize(rng.standard_normal((32, 8)))
        losses = [model.training_step(data, learning_rate=0.05)["loss"]
                  for _ in range(20)]
        assert losses[-1] < losses[0] * 0.7

    def test_training_and_forward_bits_are_pinned(self):
        """Three SGD steps and one forward pass at fixed seeds hash to one
        digest over the losses, the weights, the output and their dtypes,
        so a change to any quantisation step or dtype shows up here."""
        model = AutoEncoder(layer_sizes=(64, 32, 8, 32, 64), seed=11,
                            weight_scale=0.2)
        data = np.random.default_rng(12).standard_normal((64, 4))
        losses = [model.training_step(data, learning_rate=0.05)["loss"]
                  for _ in range(3)]
        output, _ = model.forward(data)
        digest = hashlib.sha256()
        for loss in losses:
            digest.update(np.float64(loss).tobytes())
        for array in (*model.weights, output):
            digest.update(array.dtype.str.encode())
            digest.update(array.tobytes())
        assert digest.hexdigest() == (
            "85086478e1fe811629c8f7a272466b95"
            "67a556d374a12f4a7338096cfdd7a579")

    def test_validation(self):
        with pytest.raises(ValueError):
            AutoEncoder(layer_sizes=(64,))
