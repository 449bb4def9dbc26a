"""Benchmark -- FP8 elements-per-line throughput win vs FP16, equal geometry.

The acceptance bar of the multi-precision generalisation: at *identical*
array geometry (H=4, L=8, P=3) and identical port width, the FP8 formats
pack two elements into every 16-bit line slot, so a line carries twice the
operands, tiles cover twice the output columns and the engine finishes the
same GEMM in roughly half the cycles.  This benchmark runs the engine on an
equal-geometry FP16/FP8 pair, asserts the cycle advantage, re-checks that
scalar and SIMD bit-exact backends still agree bitwise in FP8, and pins the
analytic model's bit-exactness (``is_exact``) on the FP8 reference domain.
"""

from benchmarks.conftest import print_series, record_info
from repro.farm import config_key, run_functional_job
from repro.redmule.config import RedMulEConfig
from repro.redmule.job import MatmulJob
from repro.redmule.perf_model import RedMulEPerfModel

#: Engine-eligible GEMM shapes (M, N, K).
SHAPES = [(16, 16, 32), (32, 32, 64), (24, 48, 96)]

#: Required cycle advantage of FP8 over FP16 on the largest shape (the
#: asymptotic advantage is 2x; small shapes amortise less).
MIN_LARGE_SHAPE_SPEEDUP = 1.8


def _cycles(fmt: str, shape, backend: str = "exact-simd"):
    key = config_key(RedMulEConfig(format=fmt))
    cycles, z_image = run_functional_job(key, *shape, False, backend,
                                         seed=shape[0])
    return cycles, z_image


def test_fp8_throughput(benchmark):
    def run_all():
        rows = []
        for shape in SHAPES:
            fp16_cycles, _ = _cycles("fp16", shape)
            fp8_cycles, simd_bits = _cycles("fp8-e4m3", shape)
            # Bit-exactness spot check: the scalar oracle and the SIMD
            # backend must agree on the FP8 result image.
            _, exact_bits = _cycles("fp8-e4m3", shape, backend="exact")
            assert exact_bits == simd_bits, f"FP8 bit mismatch on {shape}"
            # Analytic model: bit-exact on the FP8 reference domain.
            config = RedMulEConfig(format="fp8-e4m3")
            job = MatmulJob(x_addr=0, w_addr=0, z_addr=0,
                            m=shape[0], n=shape[1], k=shape[2],
                            element_bytes=1)
            model = RedMulEPerfModel(config)
            assert model.is_exact(job)
            assert model.estimate(job).cycles == fp8_cycles
            rows.append((shape, fp16_cycles, fp8_cycles,
                         fp16_cycles / fp8_cycles))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print_series(
        "FP8 (E4M3) vs FP16 engine cycles -- equal H=4 L=8 P=3 geometry",
        ["shape (M,N,K)", "fp16 cycles", "fp8 cycles", "advantage"],
        [(str(shape), fp16, fp8, f"{ratio:.2f}x")
         for shape, fp16, fp8, ratio in rows],
    )

    largest = rows[-1]
    record_info(benchmark, {
        "fp16_cycles_large": largest[1],
        "fp8_cycles_large": largest[2],
        "fp8_speedup_large": largest[3],
    }, name="fp8_throughput")
    assert largest[3] >= MIN_LARGE_SHAPE_SPEEDUP, (
        f"FP8 advantage {largest[3]:.2f}x below the required "
        f"{MIN_LARGE_SHAPE_SPEEDUP:.1f}x"
    )
