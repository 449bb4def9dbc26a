"""Benchmark -- bit-exact engine throughput: scalar oracle vs SIMD backend.

Not a paper figure, but the acceptance bar of the array-oriented arithmetic
refactor: cycle-accurate *bit-exact* runs must get at least 5x cheaper in
wall-clock when the engine evaluates whole row-vectors through the guarded
SIMD kernels (`exact-simd`) instead of one pure-Python `fma_bits` per
element (`exact`).  The comparison runs the engine-eligible Fig. 4a sweep
shapes on both backends, asserts the speedup, and re-checks that the two
backends left bit-identical result images in the TCDM (the speed must never
cost a bit).
"""

import time

from benchmarks.conftest import print_series, record_info
from repro.experiments.fig4 import DEFAULT_HW_SW_SIZES
from repro.farm import DEFAULT_ENGINE_MACS_THRESHOLD, config_key, run_functional_job
from repro.redmule.config import RedMulEConfig

#: Engine-eligible subset of the Fig. 4a square sweep.
SHAPES = [
    (size, size, size)
    for size in DEFAULT_HW_SW_SIZES
    if size ** 3 <= DEFAULT_ENGINE_MACS_THRESHOLD
]

#: Required wall-clock advantage of exact-simd over the scalar exact oracle.
MIN_SPEEDUP = 5.0


def _run(backend, shape):
    key = config_key(RedMulEConfig.reference())
    start = time.perf_counter()
    cycles, z_image = run_functional_job(key, *shape, False, backend,
                                         seed=shape[0])
    elapsed = time.perf_counter() - start
    return elapsed, cycles, z_image


def test_exact_simd_speedup(benchmark):
    def run_all():
        rows = []
        for shape in SHAPES:
            exact_s, exact_cycles, exact_bits = _run("exact", shape)
            simd_s, simd_cycles, simd_bits = _run("exact-simd", shape)
            assert simd_bits == exact_bits, f"bit mismatch on {shape}"
            assert simd_cycles == exact_cycles
            rows.append((shape, exact_cycles, exact_s, simd_s,
                         exact_s / simd_s))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print_series(
        "Bit-exact engine wall-clock - scalar oracle vs SIMD backend",
        ["shape (M,N,K)", "cycles", "exact [s]", "exact-simd [s]", "speedup"],
        [(str(shape), cycles, f"{exact_s:.3f}", f"{simd_s:.3f}",
          f"{speedup:.2f}x")
         for shape, cycles, exact_s, simd_s, speedup in rows],
    )

    total_exact = sum(row[2] for row in rows)
    total_simd = sum(row[3] for row in rows)
    overall = total_exact / total_simd
    record_info(benchmark, {
        "overall_speedup": overall,
        "per_shape_speedup": {str(r[0]): r[4] for r in rows},
    })
    assert overall >= MIN_SPEEDUP, (
        f"exact-simd speedup {overall:.2f}x below the required "
        f"{MIN_SPEEDUP:.1f}x"
    )
