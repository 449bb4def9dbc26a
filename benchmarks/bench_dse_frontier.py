"""DSE acceptance benchmark: analytic sweep speed and frontier fidelity.

Sweeps a >= 1000-point design space (array geometry x W prefetch x memory
latency x TCDM banks) over the ``mlp-tiny`` training graph through the
``model`` farm backend and asserts the two properties the subsystem
exists for:

* **speed** -- the sweep completes >= 50x faster than the cycle-accurate
  engine path would.  The engine cost is projected from a deterministic
  sample of design points timed end to end (fresh cache, farm whose engine
  misses run on trace replay).  The farm times misses serially; the
  asserted ratio is still divided by an assumed ideal 8-wide pool, a
  conservative discount that would cover even a parallel engine path;
* **fidelity** -- the axes are chosen inside the cycle model's provably
  exact (uncontended wide port) domain, so every point is trusted and the
  engine cross-validation of the sampled Pareto frontier measures <= 5 %
  cycle error (0 % expected).

Wall-clock speed of the sweep itself is tracked by ``pytest-benchmark``.
"""

import time

from benchmarks.conftest import print_series, record_info
from repro.dse import DesignSpace, cross_validate, sweep
from repro.farm import BACKEND_ENGINE, SimulationFarm
from repro.graph import build_model

#: Axes of the benchmark space: 3 * 3 * 3 * 2 * 5 * 4 = 1080 points, all
#: inside the exact-model domain for the mlp-tiny job mix (worst case
#: H=4, P=2, L=8: per-window demand H + L = 12 <= block_k = 12).
AXES = dict(
    height=(4, 6, 8),
    length=(2, 4, 8),
    pipeline_regs=(2, 3, 4),
    w_prefetch_lines=(1, 2),
    memory_latency=(0, 1, 2, 4, 8),
    tcdm_banks=(8, 16, 32, 64),
)

WORKLOAD = "mlp-tiny"

#: Design points timed on the engine to project the full-sweep engine cost.
ENGINE_SAMPLE_POINTS = 3

#: Pool width assumed when discounting the serial engine measurement.
ASSUMED_POOL_WIDTH = 8

MIN_POINTS = 1000
MIN_SPEEDUP = 50.0
MAX_CYCLE_ERROR = 0.05


def _engine_seconds_per_point(result) -> float:
    """Mean wall seconds to time one design point's program on the engine.

    Samples distinct configurations spread across the sweep, each timed the
    way an engine-backed sweep would run it: the point's lowered program
    through a fresh serial farm (within-point shape reuse still cached,
    and a miss replays the tile schedules earlier misses recorded).
    """
    distinct = []
    seen = set()
    for point in result.points:
        if point.point.config not in seen:
            seen.add(point.point.config)
            distinct.append(point)
    stride = max(1, len(distinct) // ENGINE_SAMPLE_POINTS)
    sampled = distinct[::stride][:ENGINE_SAMPLE_POINTS]

    total = 0.0
    for dse_point in sampled:
        config = dse_point.point.config
        program = result.graph.lower(config=config, tile=result.tile)
        farm = SimulationFarm(config=config, backend=BACKEND_ENGINE)
        started = time.perf_counter()
        farm.run(program.jobs)
        total += time.perf_counter() - started
    return total / len(sampled)


def test_dse_frontier_speedup_and_fidelity(benchmark):
    space = DesignSpace.grid(**AXES)
    graph = build_model(WORKLOAD)

    result = benchmark.pedantic(
        lambda: sweep(space, graph, name="bench-frontier"),
        rounds=1, iterations=1,
    )

    assert len(result) >= MIN_POINTS, f"only {len(result)} points swept"
    untrusted = len(result.points) - len(result.trusted_points)
    assert untrusted == 0, (
        f"{untrusted} points fell outside the exact model domain; the "
        "benchmark axes are meant to stay inside it"
    )

    # Speed: project the engine path from sampled points and discount by an
    # ideal 8-wide pool before asserting the 50x bound.
    engine_per_point = _engine_seconds_per_point(result)
    projected_engine_s = engine_per_point * len(result)
    speedup_serial = projected_engine_s / result.wall_clock_s
    speedup_pooled = speedup_serial / ASSUMED_POOL_WIDTH
    assert speedup_pooled >= MIN_SPEEDUP, (
        f"analytic sweep only {speedup_pooled:.0f}x faster than an "
        f"{ASSUMED_POOL_WIDTH}-wide engine pool would be "
        f"({speedup_serial:.0f}x vs serial engine)"
    )

    # Fidelity: engine cross-validation of the sampled trusted frontier.
    report = cross_validate(result, sample=3, tolerance=MAX_CYCLE_ERROR,
                            trusted_only=True)
    assert report.jobs_checked > 0
    assert report.max_rel_error <= MAX_CYCLE_ERROR, report.describe()

    frontier = result.pareto(trusted_only=True)
    print_series(
        "DSE sweep: analytic backend vs projected engine path",
        ["points", "sweep s", "engine s/point", "projected engine s",
         "speedup (serial)", f"speedup (/{ASSUMED_POOL_WIDTH} pool)",
         "frontier", "max err %"],
        [[
            len(result), round(result.wall_clock_s, 3),
            round(engine_per_point, 3), round(projected_engine_s, 1),
            round(speedup_serial, 0), round(speedup_pooled, 0),
            len(frontier), round(100 * report.max_rel_error, 3),
        ]],
    )

    record_info(benchmark, {
        "n_points": len(result),
        "sweep_wall_s": result.wall_clock_s,
        "points_per_second": result.points_per_second,
        "engine_wall_s_per_point": engine_per_point,
        "analytic_speedup_serial": speedup_serial,
        "analytic_speedup_pooled": speedup_pooled,
        "frontier_size": len(frontier),
        "max_cycle_error": report.max_rel_error,
        "validated_jobs": report.jobs_checked,
        "cache_hit_rate": result.cache_hit_rate,
    }, name="dse_frontier")
