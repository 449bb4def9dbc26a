#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one run.

Thin wrapper around the experiment registry: runs Table I and Figs. 3a-3d /
4a-4d and prints the reproduced numbers next to the paper's reported values
(the same data the benchmark harness asserts on).

Run with:  python examples/reproduce_paper.py
"""

from repro.experiments.runner import run_experiment
from repro.experiments.table1 import render_table1
from repro.obs.report import TextTable


def show_table1() -> None:
    print("=" * 78)
    print("Table I - state-of-the-art comparison")
    print("=" * 78)
    print(render_table1())
    print()


def show_breakdowns() -> None:
    for name, title in (("fig3a", "Fig. 3a - RedMulE area breakdown"),
                        ("fig3b", "Fig. 3b - RedMulE power breakdown")):
        print("=" * 78)
        print(title)
        print("=" * 78)
        print(run_experiment(name).render())
        print()


def show_sweeps() -> None:
    print("=" * 78)
    print("Fig. 3c / 3d - energy per MAC and throughput vs matrix size")
    print("=" * 78)
    energy = run_experiment("fig3c")
    throughput = run_experiment("fig3d")
    table = TextTable(["size", "energy/MAC pJ", "GFLOPS/W", "MAC/cycle",
                       "GFLOPS @666MHz"])
    for e, t in zip(energy, throughput):
        table.add_row([e["size"], e["energy_per_mac_pj"],
                       e["efficiency_gflops_w"], t["macs_per_cycle"],
                       t["throughput_gflops"]])
    print(table.render())
    print()

    print("=" * 78)
    print("Fig. 4a - HW vs SW vs ideal (paper: 98.8% of ideal, up to 22x)")
    print("=" * 78)
    table = TextTable(["size", "HW fraction of ideal", "speedup vs 8 cores"])
    for record in run_experiment("fig4a"):
        table.add_row([record["size"], record["hw_fraction_of_ideal"],
                       record["speedup"]])
    print(table.render())
    print()

    print("=" * 78)
    print("Fig. 4b - area sweep (paper: 256 FMAs ~ cluster, 512 ~ 2x cluster)")
    print("=" * 78)
    table = TextTable(["H", "L", "FMAs", "ports", "area mm2", "vs cluster"])
    for record in run_experiment("fig4b"):
        table.add_row([record["H"], record["L"], record["n_fma"],
                       record["n_mem_ports"], record["area_mm2"],
                       record["area_vs_cluster"]])
    print(table.render())
    print()


def show_autoencoder() -> None:
    print("=" * 78)
    print("Fig. 4c / 4d - TinyMLPerf AutoEncoder (paper: 2.6x at B=1, 24.4x at B=16)")
    print("=" * 78)
    table = TextTable(["batch", "HW cycles", "SW cycles", "speedup",
                       "fwd speedup", "bwd speedup"])
    for batch in (1, 16):
        outcome = run_experiment("fig4c") if batch == 1 else None
        from repro.experiments.fig4 import autoencoder_training
        outcome = autoencoder_training(batch)
        table.add_row([batch, outcome["hw_cycles"], outcome["sw_cycles"],
                       outcome["speedup"], outcome["forward"]["speedup"],
                       outcome["backward"]["speedup"]])
    print(table.render())
    print()


def main() -> None:
    show_table1()
    show_breakdowns()
    show_sweeps()
    show_autoencoder()
    print("Done.  See EXPERIMENTS.md for the measured-vs-paper discussion.")


if __name__ == "__main__":
    main()
