"""Validation benchmark -- cycle-accurate engine vs. analytical model.

Not a paper figure, but the foundation every figure rests on: the analytical
performance model used for the large sweeps must track the cycle-accurate
engine.  This benchmark simulates a set of GEMM shapes on the engine, compares
both cycle counts, and reports the worst relative error.  It also measures the
simulation speed of the engine itself (simulated MACs per host second), which
is the practical limit on how large a workload can be run cycle by cycle.
"""

from benchmarks.conftest import print_series, record_info
from repro.farm import config_key, run_functional_job
from repro.fp.vector import random_matrix
from repro.interco.hci import Hci, HciConfig
from repro.mem.layout import MemoryAllocator
from repro.mem.tcdm import Tcdm
from repro.redmule.config import RedMulEConfig
from repro.redmule.engine import RedMulE
from repro.redmule.job import MatmulJob
from repro.redmule.perf_model import RedMulEPerfModel

SHAPES = [(8, 16, 16), (16, 16, 16), (8, 64, 16), (13, 7, 5), (24, 100, 40),
          (32, 32, 32), (8, 256, 16)]


def _simulate(shape):
    m, n, k = shape
    tcdm = Tcdm()
    hci = Hci(tcdm, HciConfig())
    engine = RedMulE(RedMulEConfig.reference(), hci)
    allocator = MemoryAllocator(tcdm.base, tcdm.size)
    hx = allocator.alloc_matrix(m, n, "X")
    hw = allocator.alloc_matrix(n, k, "W")
    hz = allocator.alloc_matrix(m, k, "Z")
    hx.store(tcdm, random_matrix(m, n, scale=0.25, seed=m))
    hw.store(tcdm, random_matrix(n, k, scale=0.25, seed=k))
    return engine.run_job(MatmulJob.from_handles(hx, hw, hz))


def test_perf_model_tracks_cycle_accurate_engine(benchmark):
    model = RedMulEPerfModel(RedMulEConfig.reference())

    def run_all():
        rows = []
        for shape in SHAPES:
            measured = _simulate(shape)
            estimate = model.estimate_gemm(*shape)
            error = (estimate.cycles - measured.cycles) / measured.cycles
            rows.append((shape, measured.cycles, estimate.cycles, error))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print_series(
        "Engine validation - cycle-accurate vs analytical model",
        ["shape (M,N,K)", "engine cycles", "model cycles", "relative error"],
        [(str(shape), cycles, estimate, error)
         for shape, cycles, estimate, error in rows],
    )

    worst = max(abs(error) for *_, error in rows)
    record_info(benchmark, {"worst_relative_error": worst})
    assert worst < 0.05


def test_engine_simulation_speed(benchmark):
    """Host-side cost of cycle-accurate simulation (simulated MAC per call)."""
    result = benchmark(_simulate, (32, 32, 32))
    record_info(benchmark, {
        "simulated_cycles": result.cycles,
        "simulated_macs": result.total_macs,
    })
    assert result.total_macs == 32 ** 3


def test_arithmetic_backends_bit_match(benchmark):
    """Quick-bench smoke: on a small shape, `exact-simd` must leave the same
    cycle count and TCDM image as the scalar `exact` oracle.  Fails loudly on
    any bit mismatch (CI runs this as the backend smoke step)."""
    shape = (13, 20, 17)
    key = config_key(RedMulEConfig.reference())

    def run_all():
        return {
            backend: run_functional_job(key, *shape, False, backend, seed=5)
            for backend in ("exact", "exact-simd")
        }

    outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1)
    exact_cycles, exact_bits = outcomes["exact"]
    simd_cycles, simd_bits = outcomes["exact-simd"]
    assert simd_bits == exact_bits, "exact-simd diverged from the exact oracle"
    assert simd_cycles == exact_cycles
    record_info(benchmark, {"shape": str(shape), "cycles": exact_cycles})


def test_trace_replay_matches_event_stepped_engine(benchmark):
    """Trace-compiled replay cross-checked against the event-stepped engine
    in all four element formats: the worst difference between the two result
    images -- measured in bits -- must be exactly zero, and the replayed
    cycle counts must match exactly."""
    from repro.redmule.trace import reset_shared_trace_stores

    shape = (16, 40, 24)
    formats = ["fp16", "bf16", "fp8-e4m3", "fp8-e5m2"]

    def run_all():
        reset_shared_trace_stores()
        rows = []
        for fmt in formats:
            key = config_key(RedMulEConfig(format=fmt))
            simd_cycles, simd_bits = run_functional_job(
                key, *shape, False, "exact-simd", seed=21)
            run_functional_job(key, *shape, False, "trace", seed=8)  # record
            trace_cycles, trace_bits = run_functional_job(
                key, *shape, False, "trace", seed=21)  # warm replay
            diff_bits = sum(
                bin(a ^ b).count("1")
                for a, b in zip(simd_bits, trace_bits)
            )
            rows.append((fmt, simd_cycles, trace_cycles, diff_bits))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print_series(
        f"Trace replay validation vs event-stepped engine -- {shape}",
        ["format", "engine cycles", "replay cycles", "differing bits"],
        rows,
    )
    worst = max(diff for *_, diff in rows)
    cycle_errors = sum(1 for _, sc, tc, _ in rows if sc != tc)
    record_info(benchmark, {
        "worst_bit_error": worst,
        "cycle_mismatches": cycle_errors,
    })
    assert worst == 0
    assert cycle_errors == 0
