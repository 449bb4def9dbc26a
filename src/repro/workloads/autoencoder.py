"""TinyMLPerf anomaly-detection AutoEncoder.

The use case of Section III-B is the MLPerf-Tiny "Deep AutoEncoder" used for
machine anomaly detection: a fully-connected auto-encoder over 640-dimensional
spectrogram feature vectors with four 128-unit hidden layers on each side of
an 8-unit bottleneck.  The paper fine-tunes it on device (forward + backward)
with batch sizes 1 and 16.

This module provides the topology, a functional FP16 implementation of the
forward and backward pass (computing with the same FP16 FMA semantics as the
accelerator), and the training-step GEMM decomposition consumed by the
Fig. 4c / 4d experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fp.formats import FP16
from repro.fp.vector import quantize_fp16, random_fp16_matrix
from repro.redmule.functional import matmul_hw_order_simd_fmt
from repro.workloads.gemm import GemmWorkload
from repro.workloads.training import TrainingGemm, as_workload, training_step_gemms

#: MLPerf-Tiny anomaly-detection auto-encoder layer sizes
#: (input, 4 x 128 hidden, 8-unit bottleneck, 4 x 128 hidden, output).
AUTOENCODER_LAYER_SIZES: Tuple[int, ...] = (
    640, 128, 128, 128, 128, 8, 128, 128, 128, 128, 640
)


def autoencoder_training_gemms(batch: int) -> List[TrainingGemm]:
    """Training-step GEMMs of the auto-encoder for a given batch size."""
    return training_step_gemms(AUTOENCODER_LAYER_SIZES, batch)


def autoencoder_workload(batch: int) -> GemmWorkload:
    """The same GEMMs wrapped as a plain workload."""
    return as_workload(f"autoencoder-b{batch}", autoencoder_training_gemms(batch))


@dataclass
class AutoEncoder:
    """Functional FP16 auto-encoder (dense layers + ReLU).

    Weights are stored as binary16-representable float32 arrays; every matrix
    product is evaluated with the hardware's FP16 accumulation semantics so
    the numerical behaviour matches what RedMulE (or the software kernel,
    which uses the same FMA) would produce on the real system.
    """

    layer_sizes: Sequence[int] = AUTOENCODER_LAYER_SIZES
    seed: Optional[int] = 0
    weight_scale: float = 0.05
    weights: List[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.layer_sizes) < 2:
            raise ValueError("the auto-encoder needs at least two layer sizes")
        if not self.weights:
            rng = np.random.default_rng(self.seed)
            self.weights = [
                random_fp16_matrix(n_out, n_in, scale=self.weight_scale, rng=rng)
                for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:])
            ]

    # ------------------------------------------------------------------
    @property
    def n_layers(self) -> int:
        """Number of dense layers."""
        return len(self.layer_sizes) - 1

    @property
    def n_parameters(self) -> int:
        """Number of weight parameters."""
        return sum(w.size for w in self.weights)

    def footprint_bytes(self, batch: int, include_weights: bool = True) -> int:
        """FP16 bytes of activations (+ optionally weights) for one step."""
        activations = sum(self.layer_sizes) * batch * 2
        gradients = activations
        weights = 2 * self.n_parameters if include_weights else 0
        return activations + gradients + weights

    # -- functional forward / backward ------------------------------------
    def forward(self, batch_input: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Forward pass.

        ``batch_input`` has shape ``(input_size, batch)``.  Returns the
        reconstruction and the list of post-activation values per layer
        (needed by the backward pass).
        """
        activation = quantize_fp16(batch_input)
        if activation.shape[0] != self.layer_sizes[0]:
            raise ValueError(
                f"input has {activation.shape[0]} features, expected "
                f"{self.layer_sizes[0]}"
            )
        activations = [activation]
        for layer, weight in enumerate(self.weights):
            pre = matmul_hw_order_simd_fmt(weight, activation,
                                           FP16).astype(np.float32)
            if layer < self.n_layers - 1:
                activation = quantize_fp16(np.maximum(pre, 0.0))
            else:
                activation = pre  # linear output layer
            activations.append(activation)
        return activations[-1], activations

    def backward(self, activations: List[np.ndarray],
                 target: np.ndarray) -> List[np.ndarray]:
        """Backward pass of the mean-squared-error reconstruction loss.

        Returns the list of weight gradients (one per layer, same shapes as
        :attr:`weights`).  Matrix products follow the FP16 hardware
        semantics; element-wise steps are quantised to FP16 after each
        operation.
        """
        target = quantize_fp16(target)
        output = activations[-1]
        batch = output.shape[1]
        # dL/dY for the MSE loss (scaled by 2/batch, quantised like the
        # on-device implementation would).
        delta = quantize_fp16((output - target) * (2.0 / batch))
        gradients: List[Optional[np.ndarray]] = [None] * self.n_layers
        for layer in reversed(range(self.n_layers)):
            input_activation = activations[layer]
            gradients[layer] = matmul_hw_order_simd_fmt(
                delta, input_activation.T, FP16).astype(np.float32)
            if layer > 0:
                propagated = matmul_hw_order_simd_fmt(
                    self.weights[layer].T, delta, FP16).astype(np.float32)
                relu_mask = (activations[layer] > 0).astype(np.float32)
                delta = quantize_fp16(propagated * relu_mask)
        return gradients  # type: ignore[return-value]

    def training_step(self, batch_input: np.ndarray,
                      learning_rate: float = 1e-3) -> Dict[str, float]:
        """One SGD step on a batch (auto-encoder target = input).

        Returns a small metrics dictionary (reconstruction loss before the
        update).  Weights are updated in place, quantised back to FP16.
        """
        output, activations = self.forward(batch_input)
        loss = float(np.mean((output - quantize_fp16(batch_input)) ** 2))
        gradients = self.backward(activations, batch_input)
        for layer, gradient in enumerate(gradients):
            updated = self.weights[layer] - learning_rate * gradient
            self.weights[layer] = quantize_fp16(updated)
        return {"loss": loss}

    # -- GEMM decomposition --------------------------------------------------
    def training_gemms(self, batch: int) -> List[TrainingGemm]:
        """The GEMMs one training step issues to the accelerator."""
        return training_step_gemms(self.layer_sizes, batch)
