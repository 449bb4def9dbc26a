"""Workload models.

The paper evaluates RedMulE on generic square matrix multiplications
(Figs. 3c, 3d, 4a) and on the TinyMLPerf anomaly-detection AutoEncoder
trained on-device (Figs. 4c, 4d).  This package holds the vocabulary those
workloads are written in and the functional model of the AutoEncoder:

* :mod:`repro.workloads.gemm` -- the :class:`GemmShape` descriptor and the
  :class:`WorkloadTiming` cycle accounting of a GEMM sequence;
* :mod:`repro.workloads.autoencoder` -- the MLPerf-Tiny deep auto-encoder
  topology and a functional FP16 implementation of its training step.

The training step's GEMM decomposition lives in :mod:`repro.graph.zoo`
(:func:`~repro.graph.zoo.mlp_training_graph`,
:func:`~repro.graph.zoo.autoencoder_training_graph`).
"""

from repro.workloads.gemm import GemmShape
from repro.workloads.autoencoder import AUTOENCODER_LAYER_SIZES, AutoEncoder

__all__ = [
    "AUTOENCODER_LAYER_SIZES",
    "AutoEncoder",
    "GemmShape",
]
