"""Experiment drivers: one function per table / figure of the paper.

Each driver returns a plain data structure (dict / list of dicts) so it can be
consumed by the pytest-benchmark harness, by the tests that check the paper's
qualitative claims, and by the examples that print the reproduced
tables/series.  The mapping to the paper is:

=============  =======================================================
driver         paper result
=============  =======================================================
``table1``     Table I (state-of-the-art comparison, "Our work" rows)
``fig3a``      RedMulE area breakdown
``fig3b``      RedMulE / cluster power breakdown
``fig3c``      cluster energy per MAC vs. matrix size
``fig3d``      throughput at maximum frequency vs. matrix size
``fig4a``      HW vs. SW performance vs. the 32 MAC/cycle ideal
``fig4b``      area sweep over (H, L) at P = 3
``fig4c``      TinyMLPerf AutoEncoder training, batch = 1
``fig4d``      effect of batching (B = 1 vs. B = 16)
=============  =======================================================

Beyond the paper, the ``serve-mlp`` / ``serve-mix`` scenarios run
multi-tenant request traffic through node-granular dispatch on the serving
loop (:mod:`repro.experiments.serve`), parameterised from the CLI via
``--clusters`` and ``--rps``.
"""

from repro.experiments.table1 import build_table1, render_table1
from repro.experiments.fig3 import (
    area_breakdown,
    cluster_power_breakdown,
    energy_per_mac_sweep,
    power_breakdown,
    throughput_sweep,
)
from repro.experiments.fig4 import (
    area_sweep,
    autoencoder_batching,
    autoencoder_training,
    hw_vs_sw_sweep,
)
from repro.experiments.serve import serve_mix, serve_mlp, set_serve_defaults

__all__ = [
    "area_breakdown",
    "area_sweep",
    "autoencoder_batching",
    "autoencoder_training",
    "build_table1",
    "cluster_power_breakdown",
    "energy_per_mac_sweep",
    "hw_vs_sw_sweep",
    "power_breakdown",
    "render_table1",
    "serve_mix",
    "serve_mlp",
    "set_serve_defaults",
    "throughput_sweep",
]
