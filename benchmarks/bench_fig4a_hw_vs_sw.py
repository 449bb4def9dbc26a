"""Fig. 4a -- HW vs. SW computational performance vs. the ideal machine.

Paper reference: RedMulE reaches 98.8 % of the ideal 32 MAC/cycle for large
workloads and introduces up to 22x speedup over the software baseline running
on the 8 RISC-V cores; the software baseline sits at a flat few percent of
the ideal.
"""

from benchmarks.conftest import print_series, record_info
from repro.experiments.fig4 import hw_vs_sw_sweep


def test_fig4a_hw_vs_sw_vs_ideal(benchmark):
    records = benchmark(hw_vs_sw_sweep)

    print_series(
        "Fig. 4a - HW and SW performance relative to the 32 MAC/cycle ideal",
        ["size", "HW cycles", "SW cycles", "HW frac of ideal",
         "SW frac of ideal", "speedup"],
        [
            (r["size"], r["hw_cycles"], r["sw_cycles"],
             r["hw_fraction_of_ideal"], r["sw_fraction_of_ideal"], r["speedup"])
            for r in records
        ],
    )

    peak_fraction = max(r["hw_fraction_of_ideal"] for r in records)
    peak_speedup = max(r["speedup"] for r in records)
    record_info(benchmark, {
        "peak_fraction_of_ideal": peak_fraction,
        "peak_speedup": peak_speedup,
        "paper_peak_fraction_of_ideal": 0.988,
        "paper_peak_speedup": 22.0,
    })

    assert peak_fraction > 0.97
    assert abs(peak_speedup - 22.0) / 22.0 < 0.05
    # Speedup grows monotonically with the problem size (larger matrices
    # amortise the accelerator's fixed overheads).
    speedups = [r["speedup"] for r in records]
    assert speedups == sorted(speedups)


def test_fig4a_cycle_accurate_spot_check(benchmark):
    """Cross-check one sweep point with the cycle-accurate engine instead of
    the analytical model (slower, so only one size is simulated here)."""
    from repro.cluster import PulpCluster
    from repro.fp.vector import random_matrix

    size = 64
    x = random_matrix(size, size, scale=0.25, seed=0)
    w = random_matrix(size, size, scale=0.25, seed=1)

    def run():
        cluster = PulpCluster()
        _, outcome = cluster.matmul(x, w)
        sw = cluster.software_matmul(size, size, size)
        return outcome.accelerator.cycles, sw.cycles

    hw_cycles, sw_cycles = benchmark(run)
    record_info(benchmark, {
        "size": size,
        "hw_cycles_cycle_accurate": hw_cycles,
        "sw_cycles": sw_cycles,
        "speedup": sw_cycles / hw_cycles,
    })
    assert sw_cycles / hw_cycles > 15
