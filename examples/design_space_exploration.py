#!/usr/bin/env python3
"""Design-space exploration of the RedMulE array geometry.

RedMulE is parametric in (H, L, P).  This example sweeps the design space the
way an architect sizing the accelerator for a new SoC would: for every
candidate geometry it reports area, memory ports, peak and sustained
throughput, power and energy efficiency, and then picks the best instance
under an area budget.  The reference instance of the paper (H=4, L=8, P=3)
falls out of this exploration as the sweet spot for a ~0.1 mm2 budget.

Run with:  python examples/design_space_exploration.py
"""

from repro import AreaModel, EnergyModel, RedMulEConfig
from repro.farm import default_farm
from repro.graph import autoencoder_training_graph
from repro.obs.report import TextTable
from repro.power.technology import OP_22NM_EFFICIENCY, TECH_22NM

#: Candidate geometries: (H, L, P).
CANDIDATES = [
    (2, 4, 1), (2, 8, 1), (4, 4, 3), (4, 8, 3), (4, 16, 3),
    (8, 8, 3), (8, 16, 3), (8, 32, 3), (16, 32, 3),
]

#: Square GEMM used to measure sustained throughput.
SUSTAINED_GEMM = (256, 256, 256)

#: Area budget for the final recommendation (mm2).
AREA_BUDGET_MM2 = 0.10


def explore():
    """Return one record per candidate geometry.

    Per-candidate timing goes through that geometry's shared simulation
    farm (the same front door the figure drivers use), so the sustained
    GEMM and the auto-encoder layer shapes are memoised per configuration
    and re-running the exploration is nearly free.
    """
    records = []
    autoencoder = [n.shape for n in autoencoder_training_graph(16).gemm_nodes()]
    for height, length, pipeline in CANDIDATES:
        config = RedMulEConfig(height=height, length=length,
                               pipeline_regs=pipeline)
        farm = default_farm(config)
        area = AreaModel(config, TECH_22NM).total()
        perf = farm.estimate_gemm(*SUSTAINED_GEMM)
        energy = EnergyModel(config, TECH_22NM)
        workload = farm.time_workload(autoencoder)
        records.append(
            {
                "config": config,
                "area_mm2": area,
                "ports": config.n_mem_ports,
                "peak_macs": config.ideal_macs_per_cycle,
                "sustained_macs": perf.macs_per_cycle,
                "utilisation": perf.utilisation,
                "gflops_per_w": energy.efficiency_gflops_per_w(
                    perf.utilisation, OP_22NM_EFFICIENCY),
                "autoencoder_cycles": workload.cycles,
            }
        )
    return records


def main() -> None:
    records = explore()

    table = TextTable([
        "H", "L", "P", "FMAs", "ports", "area mm2", "peak MAC/c",
        "sustained MAC/c", "util %", "GFLOPS/W", "AE step cycles",
    ])
    for record in records:
        config = record["config"]
        table.add_row([
            config.height, config.length, config.pipeline_regs, config.n_fma,
            record["ports"], record["area_mm2"], record["peak_macs"],
            record["sustained_macs"], 100 * record["utilisation"],
            record["gflops_per_w"], record["autoencoder_cycles"],
        ])
    print("=== RedMulE design-space exploration (22 nm, 0.65 V) ===")
    print(table.render())
    print()

    # Pick the fastest sustained configuration under the area budget.
    feasible = [r for r in records if r["area_mm2"] <= AREA_BUDGET_MM2]
    best = max(feasible, key=lambda r: r["sustained_macs"])
    config = best["config"]
    print(f"Best instance under {AREA_BUDGET_MM2} mm2: "
          f"H={config.height} L={config.length} P={config.pipeline_regs} "
          f"({config.n_fma} FMAs, {best['area_mm2']:.3f} mm2, "
          f"{best['sustained_macs']:.1f} MAC/cycle sustained, "
          f"{best['gflops_per_w']:.0f} GFLOPS/W)")
    print("The paper's reference instance (H=4, L=8, P=3) is exactly this "
          "sweet spot: it saturates the 9-port TCDM interface while staying "
          "at 14% of the cluster area.")


if __name__ == "__main__":
    main()
