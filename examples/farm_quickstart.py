#!/usr/bin/env python3
"""Quickstart for the simulation farm: batched, cached timing.

This example shows the batch-level API the experiment drivers run on:

1. build a :class:`~repro.farm.SimulationFarm` for the reference instance;
2. submit a repeated-shape batch of matmul jobs in one call -- the farm
   simulates each distinct shape once on the cycle-accurate engine and
   serves every repeat from the shape-keyed timing cache;
3. let the auto-selection policy route a large job to the analytical model
   instead of the (much slower) cycle-accurate engine;
4. time the same shapes on both backends and compare the engine's cycle
   counts with the analytical model's.

Run with:  python examples/farm_quickstart.py
"""

from repro import MatmulJob, SimulationFarm

#: A sweep-like batch: four distinct shapes, each repeated six times.
SWEEP_SHAPES = [(8, 16, 16), (16, 16, 16), (13, 7, 5), (8, 64, 16)]
REPEATS = 6


def main() -> None:
    # -- 1. the farm ---------------------------------------------------------
    farm = SimulationFarm()
    print(farm.config.describe())
    print()

    # -- 2. a repeated-shape batch ------------------------------------------
    jobs = [
        MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=m, n=n, k=k)
        for _ in range(REPEATS)
        for (m, n, k) in SWEEP_SHAPES
    ]
    results = farm.run(jobs)
    print(f"batch of {len(jobs)} jobs "
          f"({len(SWEEP_SHAPES)} distinct shapes x {REPEATS} repeats):")
    for result in results[: len(SWEEP_SHAPES) + 2]:
        print(f"  {result.summary()}")
    print(f"  ... {len(results) - len(SWEEP_SHAPES) - 2} more")
    hits = sum(result.cache_hit for result in results)
    print(f"  engine simulations : {farm.stats.engine_runs}")
    print(f"  served from cache  : {hits}")
    print()

    # -- 3. backend auto-selection ------------------------------------------
    large = farm.run_gemm(512, 512, 512)
    print("auto-selected backend by job size:")
    print(f"  {results[0].job.m}x{results[0].job.n}x{results[0].job.k}"
          f" -> {results[0].backend} (cycle-accurate)")
    print(f"  512x512x512 -> {large.backend} "
          f"({large.cycles} cycles, {100 * large.utilisation:.1f}% "
          f"utilisation, closed form)")
    print()

    # -- 4. engine vs. model --------------------------------------------------
    print("engine vs. analytical model on the sweep shapes:")
    for m, n, k in SWEEP_SHAPES:
        engine = farm.run_gemm(m, n, k, backend="engine")
        model = farm.run_gemm(m, n, k, backend="model")
        error = abs(model.cycles - engine.cycles) / engine.cycles
        print(f"  {m}x{n}x{k}: engine {engine.cycles} vs model "
              f"{model.cycles} cycles ({100 * error:.2f}% error)")
    print()

    print(farm.describe())


if __name__ == "__main__":
    main()
