"""Tests for the vectorised datapath and the vector-ops strategies."""

import numpy as np
import pytest

from repro.fp.float16 import POS_ZERO_BITS, bits_to_float, float_to_bits
from repro.fp.formats import FP16
from repro.redmule.config import RedMulEConfig
from repro.redmule.datapath import Datapath
from repro.redmule.vector_ops import (
    ExactSimdVectorOps,
    ExactVectorOps,
    FastVectorOps,
    make_vector_ops,
)


def f2b(value: float) -> int:
    return float_to_bits(value)


class TestVectorOps:
    @pytest.mark.parametrize(
        "ops", [ExactVectorOps(), ExactSimdVectorOps(), FastVectorOps()],
        ids=["exact", "exact-simd", "fast"])
    def test_bits_roundtrip(self, ops):
        bits = [f2b(v) for v in (0.5, -1.25, 3.0, 0.0)]
        assert ops.to_bits(ops.from_bits(bits)) == bits

    @pytest.mark.parametrize(
        "ops", [ExactVectorOps(), ExactSimdVectorOps(), FastVectorOps()],
        ids=["exact", "exact-simd", "fast"])
    def test_zeros(self, ops):
        assert ops.to_bits(ops.zeros(3)) == [POS_ZERO_BITS] * 3

    @pytest.mark.parametrize(
        "ops", [ExactVectorOps(), ExactSimdVectorOps(), FastVectorOps()],
        ids=["exact", "exact-simd", "fast"])
    def test_gather(self, ops):
        lines = [ops.from_bits([f2b(float(r * 10 + c)) for c in range(4)])
                 for r in range(3)]
        column = ops.to_bits(ops.gather(lines, 2))
        assert [bits_to_float(b) for b in column] == [2.0, 12.0, 22.0]

    def test_exact_and_fast_fma_agree(self):
        rng = np.random.default_rng(7)
        exact, fast = ExactVectorOps(), FastVectorOps()
        for _ in range(50):
            x_bits = [f2b(v) for v in rng.standard_normal(8) * 0.5]
            acc_bits = [f2b(v) for v in rng.standard_normal(8) * 0.5]
            w = f2b(float(rng.standard_normal()) * 0.5)
            exact_result = exact.fma(exact.from_bits(x_bits), w,
                                     exact.from_bits(acc_bits))
            fast_result = fast.to_bits(fast.fma(fast.from_bits(x_bits), w,
                                                fast.from_bits(acc_bits)))
            assert exact_result == fast_result

    def test_exact_simd_fma_is_bit_identical(self):
        rng = np.random.default_rng(11)
        exact, simd = ExactVectorOps(), ExactSimdVectorOps()
        for _ in range(20):
            x_bits = [int(v) for v in rng.integers(0, 0x10000, 8)]
            acc_bits = [int(v) for v in rng.integers(0, 0x10000, 8)]
            w = int(rng.integers(0, 0x10000))
            exact_result = exact.fma(exact.from_bits(x_bits), w,
                                     exact.from_bits(acc_bits))
            simd_result = simd.to_bits(simd.fma(simd.from_bits(x_bits), w,
                                                simd.from_bits(acc_bits)))
            assert simd_result == exact_result

    @pytest.mark.parametrize("acc", [0x0000, 0xFC00], ids=["inf*0", "inf*0-inf"])
    def test_invalid_fma_writes_the_canonical_nan_on_every_backend(self, acc):
        # x86's default NaN has its sign bit set; a raw float16 cast would
        # store 0xFE00 where FPnew writes its canonical quiet NaN.
        x_bits = [f2b(float("inf")), 0x0000]
        w = 0x0000
        results = []
        for ops in (ExactVectorOps(), ExactSimdVectorOps(), FastVectorOps()):
            out = ops.fma(ops.from_bits(x_bits), w, ops.from_bits([acc, acc]))
            results.append(ops.to_bits(out))
        assert results[0][0] == FP16.nan_bits == 0x7E00
        assert results[1] == results[0] and results[2] == results[0]

    def test_factory(self):
        # Legacy boolean selection keeps working next to the name registry.
        assert isinstance(make_vector_ops(True), ExactVectorOps)
        assert isinstance(make_vector_ops(False), FastVectorOps)
        assert isinstance(make_vector_ops("exact"), ExactVectorOps)
        assert isinstance(make_vector_ops("exact-simd"), ExactSimdVectorOps)
        assert isinstance(make_vector_ops("fast"), FastVectorOps)
        with pytest.raises(ValueError):
            make_vector_ops("nope")


class TestDatapath:
    def test_issue_and_complete_after_latency(self):
        config = RedMulEConfig.reference()
        dp = Datapath(config, exact=True)
        ops = dp.ops
        x = ops.from_bits([f2b(2.0)] * config.length)
        acc = ops.zeros(config.length)
        dp.tick()
        dp.issue(0, chunk=0, k=0, x_vector=x, w_bits=f2b(3.0), acc_vector=acc)
        completions = [dp.tick() for _ in range(config.latency)]
        assert all(0 not in done for done in completions[:-1])
        final = completions[-1][0]
        assert final.chunk == 0 and final.k == 0
        assert all(bits_to_float(b) == 6.0 for b in ops.to_bits(final.values))

    def test_one_issue_per_column_per_cycle(self):
        config = RedMulEConfig.reference()
        dp = Datapath(config, exact=True)
        x = dp.ops.zeros(config.length)
        dp.tick()
        dp.issue(1, 0, 0, x, POS_ZERO_BITS, dp.ops.zeros(config.length))
        with pytest.raises(RuntimeError):
            dp.issue(1, 0, 1, x, POS_ZERO_BITS, dp.ops.zeros(config.length))

    def test_pipeline_overflow_detection(self):
        config = RedMulEConfig(height=1, length=1, pipeline_regs=1)
        dp = Datapath(config, exact=True)
        zeros = dp.ops.zeros(1)
        for k in range(config.latency):
            dp.tick()
            dp.issue(0, 0, k, zeros, POS_ZERO_BITS, zeros)
        # No tick: a further issue would exceed the latency-depth pipeline,
        # and the model also refuses a second issue in the same cycle.
        with pytest.raises(RuntimeError):
            dp.issue(0, 0, 99, zeros, POS_ZERO_BITS, zeros)

    def test_busy_and_flush(self):
        config = RedMulEConfig.reference()
        dp = Datapath(config, exact=False)
        assert not dp.busy
        dp.tick()
        dp.issue(0, 0, 0, dp.ops.zeros(8), POS_ZERO_BITS, dp.ops.zeros(8))
        assert dp.busy
        dp.flush()
        assert not dp.busy

    def test_issue_counters(self):
        config = RedMulEConfig.reference()
        dp = Datapath(config, exact=False)
        for k in range(3):
            dp.tick()
            dp.issue(0, 0, k, dp.ops.zeros(8), POS_ZERO_BITS, dp.ops.zeros(8))
        assert dp.column_issues == 3
        assert dp.fma_issues == 3 * config.length

    def test_column_bounds(self):
        config = RedMulEConfig.reference()
        dp = Datapath(config, exact=False)
        dp.tick()
        with pytest.raises(IndexError):
            dp.issue(config.height, 0, 0, dp.ops.zeros(8), 0, dp.ops.zeros(8))
