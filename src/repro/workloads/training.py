"""Decomposition of MLP training steps into GEMMs.

On-device training of a fully-connected network is dominated by three GEMMs
per layer and per step (Section III-B of the paper):

* **forward**:          ``Y[out, B]  = W[out, in]  . A[in, B]``
* **weight gradient**:  ``dW[out, in] = dY[out, B] . A^T[B, in]``
* **input gradient**:   ``dA[in, B]  = W^T[in, out] . dY[out, B]``

where ``B`` is the batch size.  The mapping onto RedMulE's ``Z = X . W``
follows the paper's observation: in the forward (and input-gradient) GEMMs the
accelerator's K dimension equals the batch size, so at ``B = 1`` the array's
16-element output rows are almost empty and the speedup over software
collapses; the weight-gradient GEMM has ``K = in_features`` and keeps the
array busy regardless of the batch.  Increasing ``B`` to 16 fills the output
rows and restores the full speedup (Fig. 4d).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence

from repro.workloads.gemm import GemmShape, GemmWorkload


class GemmRole(enum.Enum):
    """Which part of the training step a GEMM implements."""

    FORWARD = "forward"
    WEIGHT_GRADIENT = "weight-gradient"
    INPUT_GRADIENT = "input-gradient"


@dataclass(frozen=True)
class TrainingGemm:
    """A GEMM annotated with its position in the training step."""

    shape: GemmShape
    role: GemmRole
    layer: int

    @property
    def is_forward(self) -> bool:
        """True for forward-pass GEMMs."""
        return self.role is GemmRole.FORWARD

    @property
    def is_backward(self) -> bool:
        """True for backward-pass GEMMs (weight or input gradient)."""
        return not self.is_forward


def _check_layers(layer_sizes: Sequence[int]) -> None:
    if len(layer_sizes) < 2:
        raise ValueError("an MLP needs at least an input and an output size")
    if any(size <= 0 for size in layer_sizes):
        raise ValueError("layer sizes must be positive")


def forward_gemms(layer_sizes: Sequence[int], batch: int) -> List[TrainingGemm]:
    """Forward-pass GEMMs of an MLP described by its layer sizes."""
    _check_layers(layer_sizes)
    if batch <= 0:
        raise ValueError("batch size must be positive")
    gemms = []
    for layer, (n_in, n_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
        gemms.append(
            TrainingGemm(
                shape=GemmShape(m=n_out, n=n_in, k=batch,
                                name=f"fc{layer}-fwd"),
                role=GemmRole.FORWARD,
                layer=layer,
            )
        )
    return gemms


def backward_gemms(layer_sizes: Sequence[int], batch: int,
                   include_input_gradient_for_first_layer: bool = False
                   ) -> List[TrainingGemm]:
    """Backward-pass GEMMs (weight gradients + input gradients).

    The input gradient of the very first layer is not needed for plain
    training (there is no previous layer to propagate to) and is skipped by
    default, matching what an on-device training library computes.
    """
    _check_layers(layer_sizes)
    if batch <= 0:
        raise ValueError("batch size must be positive")
    gemms = []
    n_layers = len(layer_sizes) - 1
    for layer in reversed(range(n_layers)):
        n_in, n_out = layer_sizes[layer], layer_sizes[layer + 1]
        gemms.append(
            TrainingGemm(
                shape=GemmShape(m=n_out, n=batch, k=n_in,
                                name=f"fc{layer}-dw"),
                role=GemmRole.WEIGHT_GRADIENT,
                layer=layer,
            )
        )
        if layer > 0 or include_input_gradient_for_first_layer:
            gemms.append(
                TrainingGemm(
                    shape=GemmShape(m=n_in, n=n_out, k=batch,
                                    name=f"fc{layer}-dx"),
                    role=GemmRole.INPUT_GRADIENT,
                    layer=layer,
                )
            )
    return gemms


def training_step_gemms(layer_sizes: Sequence[int], batch: int) -> List[TrainingGemm]:
    """Full training step: forward pass followed by backward pass."""
    return forward_gemms(layer_sizes, batch) + backward_gemms(layer_sizes, batch)


def as_workload(name: str, gemms: Sequence[TrainingGemm]) -> GemmWorkload:
    """Wrap annotated training GEMMs into a plain :class:`GemmWorkload`."""
    return GemmWorkload(name, [gemm.shape for gemm in gemms])
