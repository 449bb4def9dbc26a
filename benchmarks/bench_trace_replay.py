"""Benchmark -- trace-compiled engine: record once, replay vectorized.

The acceptance bar of the trace-compilation refactor: on fig3/fig4-class
multi-tile jobs whose schedules are already recorded, the ``trace`` backend
must be at least 20x faster in wall-clock than the event-stepped
``exact-simd`` engine while staying **bit-identical** -- same TCDM result
image and same cycle counts.

The job data changes every repetition (fresh random seeds) while the traces
are reused, demonstrating the core property the refactor rests on: the cycle
schedule is data-independent, only the data plane needs to run.
"""

import time

from benchmarks.conftest import print_series, record_info
from repro.farm import config_key, run_functional_job
from repro.redmule.config import RedMulEConfig
from repro.redmule.trace import reset_shared_trace_stores

#: Fig. 3c/3d & Fig. 4a-class square multi-tile job (within the farm's
#: engine-eligibility threshold) measured for the headline speedup.
SHAPE = (64, 64, 64)

#: Warm repetitions per backend; every repetition uses fresh operand data.
REPEATS = 4

#: Required warm-replay wall-clock advantage over the event-stepped engine.
MIN_SPEEDUP = 20.0

FORMATS = ["fp16", "bf16", "fp8-e4m3", "fp8-e5m2"]


def _run(arithmetic, seed, fmt="fp16"):
    key = config_key(RedMulEConfig(format=fmt))
    start = time.perf_counter()
    cycles, z_image = run_functional_job(key, *SHAPE, False, arithmetic,
                                         seed=seed)
    return time.perf_counter() - start, cycles, z_image


def test_trace_replay(benchmark):
    def run_all():
        reset_shared_trace_stores()
        _run("trace", seed=99)  # cold run records the schedules
        rows = []
        for rep in range(REPEATS):
            simd_s, simd_cycles, simd_bits = _run("exact-simd", seed=rep)
            trace_s, trace_cycles, trace_bits = _run("trace", seed=rep)
            assert trace_bits == simd_bits, f"bit mismatch at seed {rep}"
            assert trace_cycles == simd_cycles
            rows.append((rep, simd_cycles, simd_s, trace_s,
                         simd_s / trace_s))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print_series(
        f"Trace replay vs event-stepped engine -- {SHAPE} fp16, fresh data "
        "per repetition",
        ["rep", "cycles", "exact-simd [s]", "trace [s]", "speedup"],
        [(rep, cycles, f"{simd_s:.3f}", f"{trace_s:.4f}", f"{speedup:.1f}x")
         for rep, cycles, simd_s, trace_s, speedup in rows],
    )

    total_simd = sum(row[2] for row in rows)
    total_trace = sum(row[3] for row in rows)
    overall = total_simd / total_trace
    record_info(benchmark, {
        "replay_speedup": overall,
        "engine_cycles": rows[0][1],
        "bit_mismatches": 0,
    })
    assert overall >= MIN_SPEEDUP, (
        f"trace replay speedup {overall:.2f}x below the required "
        f"{MIN_SPEEDUP:.1f}x"
    )


def test_trace_replay_bit_match_all_formats(benchmark):
    """Warm trace replay leaves bit-identical TCDM images and cycle counts
    in every supported element format."""
    shape = (16, 40, 24)

    def run_all():
        reset_shared_trace_stores()
        mismatches = 0
        rows = []
        for fmt in FORMATS:
            key = config_key(RedMulEConfig(format=fmt))
            simd_cycles, simd_bits = run_functional_job(
                key, *shape, False, "exact-simd", seed=7)
            run_functional_job(key, *shape, False, "trace", seed=3)  # record
            trace_cycles, trace_bits = run_functional_job(
                key, *shape, False, "trace", seed=7)  # warm replay
            match = trace_bits == simd_bits and trace_cycles == simd_cycles
            mismatches += 0 if match else 1
            rows.append((fmt, simd_cycles, trace_cycles, match))
        return mismatches, rows

    mismatches, rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print_series(
        f"Trace replay bit match per element format -- {shape}",
        ["format", "exact-simd cycles", "trace cycles", "bit-identical"],
        [(fmt, sc, tc, "yes" if ok else "NO")
         for fmt, sc, tc, ok in rows],
    )
    record_info(benchmark, {"format_bit_mismatches": mismatches,
                            "formats_checked": len(rows)})
    assert mismatches == 0
