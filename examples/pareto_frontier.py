#!/usr/bin/env python3
"""Paper-style area-vs-throughput Pareto frontier from one dse.sweep() call.

The paper's design argument -- H=4, L=8, P=3 balances cycles against area --
is a Pareto statement.  This example reproduces it as data: one sweep over
the array geometry of the batch-1 auto-encoder training step, frontier
extraction over (area, cycles), an ASCII rendering of the trade-off curve,
and the engine cross-validation of the frontier sample.

Run with:  python examples/pareto_frontier.py
"""

from repro.dse import DesignSpace, Objective, cross_validate, sweep
from repro.obs.report import TextTable

#: Geometry grid: compact MCU-class arrays up to cluster-sized ones.
SPACE = DesignSpace.grid(
    height=(2, 4, 6, 8),
    length=(2, 4, 8, 16, 32),
    pipeline_regs=(1, 2, 3, 4),
)

WORKLOAD = "autoencoder-b1"

#: The paper's trade-off: accelerator area against program runtime.
OBJECTIVES = ("area_mm2", "serial_cycles")


def ascii_frontier(points, width=64, height=16):
    """Log-log scatter of the frontier in plain text (x: area, y: cycles)."""
    import math

    xs = [math.log(point.area_mm2) for point in points]
    ys = [math.log(point.serial_cycles) for point in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        col = round((x - x_lo) / (x_hi - x_lo or 1) * (width - 1))
        row = round((y - y_lo) / (y_hi - y_lo or 1) * (height - 1))
        grid[height - 1 - row][col] = "*"
    lines = ["cycles (log)"]
    lines.extend("  |" + "".join(row) for row in grid)
    lines.append("  +" + "-" * width + "> area mm2 (log)")
    return "\n".join(lines)


def main() -> None:
    result = sweep(SPACE, WORKLOAD, name="pareto-example")
    frontier = result.pareto(OBJECTIVES, trusted_only=True)

    print(f"=== {WORKLOAD}: area-vs-cycles Pareto frontier "
          f"({len(result)} points, {result.wall_clock_s:.2f} s, "
          f"{len(frontier)} on the frontier) ===\n")

    table = TextTable(["H", "L", "P", "FMAs", "area mm2", "cycles",
                       "makespan", "util %", "GFLOPS/W"])
    for point in frontier:
        table.add_row([
            point.height, point.length, point.pipeline_regs, point.n_fma,
            round(point.area_mm2, 4), point.serial_cycles,
            point.makespan_cycles, round(100 * point.utilisation, 1),
            round(point.gflops_per_w),
        ])
    print(table.render())
    print()
    print(ascii_frontier(frontier))
    print()

    # The knee of the curve is where doubling the area stops paying: pick
    # the frontier point with the best cycles-per-area marginal gain.
    reference_like = [point for point in frontier
                      if (point.height, point.length) == (4, 8)]
    if reference_like:
        point = reference_like[0]
        print(f"The paper's reference geometry (H=4, L=8) sits on the "
              f"frontier at {point.area_mm2:.3f} mm2 / "
              f"{point.serial_cycles:.0f} cycles (P={point.pipeline_regs}).")

    # Trust, but verify: a sampled subset of the frontier re-runs on the
    # cycle-accurate engine.
    report = cross_validate(result, sample=3, trusted_only=True)
    print(report.describe())

    # Same sweep, different question: the energy-optimal corner (trusted
    # points only -- saturated geometries flatter themselves, see README).
    efficient = result.best(Objective("gflops_per_w", maximize=True),
                            trusted_only=True)
    print(f"Peak energy efficiency: H={efficient.height} "
          f"L={efficient.length} P={efficient.pipeline_regs} at "
          f"{efficient.gflops_per_w:.0f} GFLOPS/W "
          f"({efficient.area_mm2:.3f} mm2).")


if __name__ == "__main__":
    main()
