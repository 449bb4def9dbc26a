#!/usr/bin/env python3
"""Quickstart: run an FP16 matrix multiplication on the simulated cluster.

This example shows the shortest path through the public API:

1. build a PULP cluster with the reference RedMulE instance (H=4, L=8, P=3);
2. place two FP16 matrices in the TCDM;
3. offload ``Z = X . W`` to the accelerator (register-file programming, cycle
   accurate execution through the HCI, result written back to the TCDM);
4. compare the result with a float32 reference and print the performance
   counters the paper reports (MAC/cycle, utilisation, speedup vs. the 8-core
   software baseline, energy estimate).

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    EnergyModel,
    PulpCluster,
    RedMulEConfig,
    SoftwareBaseline,
    random_matrix,
)
from repro.power.technology import OP_22NM_EFFICIENCY, TECH_22NM
from repro.redmule.functional import matmul_reference_fp32


def main() -> None:
    # -- 1. the system -----------------------------------------------------
    cluster = PulpCluster()
    print(cluster.describe())
    print()

    # -- 2. operands --------------------------------------------------------
    m, n, k = 32, 96, 48
    x = random_matrix(m, n, scale=0.25, seed=0)
    w = random_matrix(n, k, scale=0.25, seed=1)

    # -- 3. offload to RedMulE ----------------------------------------------
    z, outcome = cluster.matmul(x, w)
    result = outcome.accelerator

    # -- 4. check and report --------------------------------------------------
    reference = matmul_reference_fp32(x, w)
    max_error = float(np.max(np.abs(z - reference)))
    print(f"GEMM {m}x{n}x{k}: {result.total_macs} MACs")
    print(f"  cycles (accelerator)   : {result.cycles}")
    print(f"  cycles (incl. offload) : {outcome.total_cycles:.0f}")
    print(f"  throughput             : {result.macs_per_cycle:.2f} MAC/cycle "
          f"({100 * result.utilisation:.1f}% of the 32 MAC/cycle peak)")
    print(f"  datapath stalls        : {result.stall_cycles}")
    print(f"  wide-port accesses     : {result.streamer.accesses} "
          f"({result.streamer.w_loads} W, {result.streamer.x_loads} X, "
          f"{result.streamer.z_stores} Z)")
    print(f"  max |FP16 - FP32| error: {max_error:.4g}")
    print()

    # Software baseline comparison (the paper's up-to-22x headline).
    software = SoftwareBaseline(n_cores=8).run_gemm(m, n, k)
    print(f"  8-core software baseline: {software.cycles:.0f} cycles "
          f"({software.macs_per_cycle:.2f} MAC/cycle)")
    print(f"  speedup                 : "
          f"{software.cycles / outcome.total_cycles:.1f}x")
    print()

    # Energy estimate at the 0.65 V / 476 MHz efficiency point.
    energy = EnergyModel(RedMulEConfig.reference(), TECH_22NM)
    power_w = energy.cluster_power_accel_w(OP_22NM_EFFICIENCY,
                                           result.utilisation)
    runtime_s = result.cycles / OP_22NM_EFFICIENCY.frequency_hz
    print(f"  estimated cluster power : {1e3 * power_w:.1f} mW @ 0.65 V")
    print(f"  estimated runtime       : {1e6 * runtime_s:.1f} us")
    print(f"  estimated energy        : {1e6 * power_w * runtime_s:.2f} uJ "
          f"({energy.energy_per_mac_pj(result.utilisation):.2f} pJ/MAC)")


if __name__ == "__main__":
    main()
