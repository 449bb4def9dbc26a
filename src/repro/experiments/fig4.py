"""Fig. 4 reproductions: HW vs. SW, area sweep, AutoEncoder use case, batching.

* **Fig. 4a** -- RedMulE and the 8-core software baseline against the ideal
  32 MAC/cycle machine, over a sweep of square GEMMs (RedMulE approaches
  ~99 % of ideal for large problems; the peak speedup approaches ~22x);
* **Fig. 4b** -- accelerator area as a function of (H, L) at P = 3, including
  the memory-port growth when H increases;
* **Fig. 4c** -- TinyMLPerf AutoEncoder training step at batch size 1,
  layer-by-layer forward and backward cycles on both targets;
* **Fig. 4d** -- the same workload at batch sizes 1 and 16, showing that the
  software baseline does not benefit from batching while RedMulE's throughput
  improves ~16x, reaching ~24x speedup.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import ClusterConfig
from repro.farm import SimulationFarm, farm_for_config
from repro.graph.zoo import ROLE_FORWARD, TAG_ROLE, autoencoder_training_graph
from repro.perf.metrics import time_workload_sw
from repro.power.area import AreaModel
from repro.redmule.config import RedMulEConfig
from repro.sw.baseline import SoftwareBaseline
from repro.workloads.autoencoder import AUTOENCODER_LAYER_SIZES

#: Default square sizes of the Fig. 4a sweep.
DEFAULT_HW_SW_SIZES = (8, 16, 32, 48, 64, 96, 128, 192, 256, 384, 512)

#: Default (H, L) shapes of the Fig. 4b area sweep.  The paper sweeps from the
#: reference 32-FMA instance up to 512 FMAs (H=16, L=32).
DEFAULT_AREA_SWEEP_SHAPES = (
    (4, 4), (4, 8), (8, 8), (4, 16), (8, 16), (4, 32), (8, 32), (16, 32),
)


def hw_vs_sw_sweep(
    sizes: Sequence[int] = DEFAULT_HW_SW_SIZES,
    config: Optional[RedMulEConfig] = None,
    n_cores: int = 8,
    farm: Optional[SimulationFarm] = None,
) -> List[Dict[str, float]]:
    """Fig. 4a: HW and SW throughput vs. the ideal machine, plus speedup.

    The hardware side runs through the simulation farm (analytical backend),
    sharing its timing cache with the Fig. 3c/3d sweeps over the same shapes.
    """
    config = config or RedMulEConfig.reference()
    farm = farm_for_config(config, farm)
    software = SoftwareBaseline(n_cores=n_cores)
    records = []
    for size in sizes:
        hw = farm.estimate_gemm(size, size, size)
        sw = software.run_gemm(size, size, size)
        records.append(
            {
                "size": size,
                "macs": hw.total_macs,
                "ideal_cycles": hw.ideal_cycles,
                "hw_cycles": hw.cycles,
                "sw_cycles": sw.cycles,
                "hw_macs_per_cycle": hw.macs_per_cycle,
                "sw_macs_per_cycle": sw.macs_per_cycle,
                "hw_fraction_of_ideal": hw.fraction_of_ideal,
                "sw_fraction_of_ideal": sw.macs_per_cycle
                / config.ideal_macs_per_cycle,
                "speedup": sw.cycles / hw.cycles,
            }
        )
    return records


def area_sweep(
    shapes: Sequence[Tuple[int, int]] = DEFAULT_AREA_SWEEP_SHAPES,
    pipeline_regs: int = 3,
) -> List[Dict[str, float]]:
    """Fig. 4b: RedMulE area vs. (H, L) at fixed P."""
    return AreaModel.sweep(list(shapes), pipeline_regs=pipeline_regs)


def _split_by_pass(batch: int):
    """The AE training step's GEMM shapes: forward pass, backward pass."""
    nodes = autoencoder_training_graph(batch).gemm_nodes()
    forward = [n.shape for n in nodes if n.tags[TAG_ROLE] == ROLE_FORWARD]
    backward = [n.shape for n in nodes if n.tags[TAG_ROLE] != ROLE_FORWARD]
    return forward, backward


def autoencoder_training(
    batch: int = 1,
    config: Optional[RedMulEConfig] = None,
    cluster_config: Optional[ClusterConfig] = None,
    farm: Optional[SimulationFarm] = None,
) -> Dict[str, object]:
    """Fig. 4c: one AutoEncoder training step on RedMulE vs. software.

    Returns aggregate and per-pass (forward / backward) cycle counts and
    speedups, plus the per-GEMM breakdown for detailed inspection.  The
    hardware side is timed through the simulation farm, so layer shapes that
    repeat across passes and batch sizes are simulated once.
    """
    config = config or RedMulEConfig.reference()
    cluster_config = cluster_config or ClusterConfig(redmule=config)
    farm = farm_for_config(config, farm)
    forward_shapes, backward_shapes = _split_by_pass(batch)

    offload = cluster_config.offload_cycles
    hw_forward = farm.time_workload(forward_shapes, offload)
    hw_backward = farm.time_workload(backward_shapes, offload)
    sw_forward = time_workload_sw(forward_shapes)
    sw_backward = time_workload_sw(backward_shapes)

    hw_total = hw_forward.cycles + hw_backward.cycles
    sw_total = sw_forward.cycles + sw_backward.cycles
    total_macs = hw_forward.macs + hw_backward.macs
    return {
        "batch": batch,
        "layer_sizes": list(AUTOENCODER_LAYER_SIZES),
        "total_macs": total_macs,
        "hw_cycles": hw_total,
        "sw_cycles": sw_total,
        "speedup": sw_total / hw_total,
        "forward": {
            "hw_cycles": hw_forward.cycles,
            "sw_cycles": sw_forward.cycles,
            "speedup": sw_forward.cycles / hw_forward.cycles,
            "macs": hw_forward.macs,
        },
        "backward": {
            "hw_cycles": hw_backward.cycles,
            "sw_cycles": sw_backward.cycles,
            "speedup": sw_backward.cycles / hw_backward.cycles,
            "macs": hw_backward.macs,
        },
        "per_gemm_hw": {**hw_forward.per_gemm, **hw_backward.per_gemm},
        "per_gemm_sw": {**sw_forward.per_gemm, **sw_backward.per_gemm},
    }


def autoencoder_batching(
    batches: Sequence[int] = (1, 16),
    config: Optional[RedMulEConfig] = None,
    farm: Optional[SimulationFarm] = None,
) -> List[Dict[str, float]]:
    """Fig. 4d: effect of the batch size on HW and SW training throughput."""
    config = config or RedMulEConfig.reference()
    farm = farm_for_config(config, farm)
    records = []
    reference_hw_throughput = None
    for batch in batches:
        outcome = autoencoder_training(batch, config, farm=farm)
        hw_throughput = outcome["total_macs"] / outcome["hw_cycles"]
        sw_throughput = outcome["total_macs"] / outcome["sw_cycles"]
        if reference_hw_throughput is None:
            reference_hw_throughput = hw_throughput
        # Footprint: activations + gradients + weights for the whole step.
        n_params = sum(
            a * b for a, b in zip(AUTOENCODER_LAYER_SIZES[:-1],
                                  AUTOENCODER_LAYER_SIZES[1:])
        )
        activations = sum(AUTOENCODER_LAYER_SIZES) * batch * 2 * 2
        records.append(
            {
                "batch": batch,
                "total_macs": outcome["total_macs"],
                "hw_cycles": outcome["hw_cycles"],
                "sw_cycles": outcome["sw_cycles"],
                "speedup": outcome["speedup"],
                "hw_macs_per_cycle": hw_throughput,
                "sw_macs_per_cycle": sw_throughput,
                "hw_throughput_vs_b1": hw_throughput / reference_hw_throughput,
                "activation_footprint_kb": activations / 1024.0,
                "weight_footprint_kb": 2 * n_params / 1024.0,
            }
        )
    return records
