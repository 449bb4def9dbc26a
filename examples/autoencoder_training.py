#!/usr/bin/env python3
"""On-device training of the TinyMLPerf AutoEncoder (the paper's use case).

The example mirrors Section III-B of the paper:

* build the MLPerf-Tiny anomaly-detection auto-encoder (640-128-...-8-...-640);
* fine-tune it for a few steps in pure FP16 (same FMA semantics as the
  accelerator) and show the reconstruction loss going down;
* decompose one training step into the GEMMs RedMulE executes and compare the
  accelerator against the 8-core software baseline for batch sizes 1 and 16
  (Fig. 4c / 4d), including memory footprints and wall-clock estimates.

Run with:  python examples/autoencoder_training.py
"""

import numpy as np

from repro import AutoEncoder
from repro.experiments.fig4 import autoencoder_batching, autoencoder_training
from repro.fp.vector import quantize_fp16
from repro.obs.report import TextTable
from repro.power.technology import OP_22NM_PERFORMANCE


def train_small_model() -> None:
    """Functional FP16 fine-tuning on a reduced auto-encoder (fast to run)."""
    print("=== FP16 fine-tuning (functional, reduced model) ===")
    model = AutoEncoder(layer_sizes=(64, 32, 16, 8, 16, 32, 64), seed=0,
                        weight_scale=0.2)
    rng = np.random.default_rng(1)
    batch = quantize_fp16(rng.standard_normal((64, 16)))
    for step in range(8):
        metrics = model.training_step(batch, learning_rate=0.05)
        print(f"  step {step}: reconstruction loss = {metrics['loss']:.4f}")
    print()


def training_step_on_redmule() -> None:
    """Cycle/energy analysis of the full-size model's training step."""
    print("=== TinyMLPerf AutoEncoder training step: RedMulE vs software ===")
    outcome = autoencoder_training(batch=1)
    table = TextTable(["pass", "HW cycles", "SW cycles", "speedup"])
    table.add_row(["forward", outcome["forward"]["hw_cycles"],
                   outcome["forward"]["sw_cycles"],
                   outcome["forward"]["speedup"]])
    table.add_row(["backward", outcome["backward"]["hw_cycles"],
                   outcome["backward"]["sw_cycles"],
                   outcome["backward"]["speedup"]])
    table.add_row(["total", outcome["hw_cycles"], outcome["sw_cycles"],
                   outcome["speedup"]])
    print(table.render())
    print(f"  (paper, Fig. 4c: overall speedup ~2.6x at batch 1)")
    print()

    print("=== Effect of batching (Fig. 4d) ===")
    records = autoencoder_batching((1, 4, 16))
    table = TextTable(["batch", "HW cycles", "SW cycles", "speedup",
                       "HW MAC/cycle", "activations kB"])
    for record in records:
        table.add_row([record["batch"], record["hw_cycles"],
                       record["sw_cycles"], record["speedup"],
                       record["hw_macs_per_cycle"],
                       record["activation_footprint_kb"]])
    print(table.render())
    print("  (paper: batching to 16 lifts the speedup to ~24x; the software "
          "baseline does not scale)")
    print()

    frequency = OP_22NM_PERFORMANCE.frequency_hz
    b16 = records[-1]
    steps_per_second = frequency / b16["hw_cycles"]
    print(f"At {frequency / 1e6:.0f} MHz the accelerator sustains "
          f"{steps_per_second:.0f} batch-16 training steps per second "
          f"({steps_per_second * 16:.0f} samples/s).")


def main() -> None:
    train_small_model()
    training_step_on_redmule()


if __name__ == "__main__":
    main()
