"""Tests for the value-free datapath and the per-tile chain kernels."""

import numpy as np
import pytest

from repro.fp.formats import FP16
from repro.redmule.config import RedMulEConfig
from repro.redmule.datapath import Datapath
from repro.redmule.vector_ops import (
    VECTOR_OPS_BACKENDS,
    ExactSimdVectorOps,
    ExactVectorOps,
    TraceVectorOps,
    make_vector_ops,
)


def tile(rows):
    """One tile's pattern array ``(1, len(rows), len(rows[0]))``."""
    return np.array([rows], dtype=np.uint16)


#: Every registered backend, oracle first (the registry's order).
ALL_IDS = list(VECTOR_OPS_BACKENDS)
ALL_OPS = [make_vector_ops(name) for name in ALL_IDS]


class TestVectorOps:
    @pytest.mark.parametrize("ops", ALL_OPS, ids=ALL_IDS)
    def test_chain_walks_the_inner_dimension(self, ops):
        # Z = 0.5 + 2*3 + 4*0.25 for one element, row by row.
        x = tile([[FP16.float_to_bits(2.0), FP16.float_to_bits(4.0)],
                  [FP16.float_to_bits(1.0), FP16.float_to_bits(-1.0)]])
        w = tile([[FP16.float_to_bits(3.0)], [FP16.float_to_bits(0.25)]])
        acc = tile([[FP16.float_to_bits(0.5)], [FP16.float_to_bits(0.0)]])
        z = ops.chain(x, w, acc, [True, True])
        assert z.shape == (1, 2, 1)
        assert [FP16.bits_to_float(int(b)) for b in z[0, :, 0]] == [7.5, 2.75]

    @pytest.mark.parametrize("ops", ALL_OPS, ids=ALL_IDS)
    def test_gated_steps_pass_the_accumulator_through(self, ops):
        # -0 + (+1 * +0) is +0 under RNE, but a gated padding lane never
        # computes the product, so the signed zero survives.
        x = tile([[FP16.float_to_bits(1.0), FP16.float_to_bits(1.0)]])
        w = tile([[0x0000], [0x0000]])
        acc = tile([[0x8000]])
        assert int(ops.chain(x, w, acc, [False, False])[0, 0, 0]) == 0x8000
        assert int(ops.chain(x, w, acc, [True, False])[0, 0, 0]) == 0x0000

    def test_exact_simd_chain_is_bit_identical(self):
        rng = np.random.default_rng(11)
        exact, simd = ExactVectorOps(), ExactSimdVectorOps()
        for _ in range(10):
            x = rng.integers(0, 0x10000, (2, 8, 5), dtype=np.uint16)
            w = rng.integers(0, 0x10000, (2, 5, 3), dtype=np.uint16)
            acc = rng.integers(0, 0x10000, (2, 8, 3), dtype=np.uint16)
            mask = np.array([True, True, True, False, True])
            assert np.array_equal(simd.chain(x, w, acc, mask),
                                  exact.chain(x, w, acc, mask))

    @pytest.mark.parametrize("acc", [0x0000, 0xFC00], ids=["inf*0", "inf*0-inf"])
    def test_invalid_fma_writes_the_canonical_nan_on_every_backend(self, acc):
        # x86's default NaN has its sign bit set; a raw float16 cast would
        # store 0xFE00 where FPnew writes its canonical quiet NaN.
        x = tile([[FP16.float_to_bits(float("inf"))], [0x0000]])
        w = tile([[0x0000]])
        results = [ops.chain(x, w, tile([[acc], [acc]]), [True])
                   for ops in ALL_OPS]
        assert int(results[0][0, 0, 0]) == FP16.nan_bits == 0x7E00
        assert all(np.array_equal(r, results[0]) for r in results[1:])

    @pytest.mark.parametrize("ops", ALL_OPS, ids=ALL_IDS)
    def test_result_has_the_format_storage_dtype(self, ops):
        fp8 = type(ops)("fp8-e4m3")
        x = np.zeros((1, 2, 3), dtype=np.uint8)
        w = np.zeros((1, 3, 4), dtype=np.uint8)
        z = fp8.chain(x, w, np.zeros((1, 2, 4), dtype=np.uint8), [True] * 3)
        assert z.dtype == np.uint8 and z.shape == (1, 2, 4)
        z = ops.chain(tile([[0]]), tile([[0]]), tile([[0]]), [True])
        assert z.dtype == np.uint16

    def test_factory(self):
        assert isinstance(make_vector_ops("exact"), ExactVectorOps)
        assert isinstance(make_vector_ops("exact-simd"), ExactSimdVectorOps)
        assert isinstance(make_vector_ops("trace"), TraceVectorOps)
        assert ALL_IDS[0] == "exact"
        with pytest.raises(ValueError):
            make_vector_ops("nope")


class TestDatapath:
    def test_issue_and_complete_after_latency(self):
        config = RedMulEConfig.reference()
        dp = Datapath(config)
        dp.tick()
        dp.issue(0, chunk=0, k=0)
        completions = [dp.tick() for _ in range(config.latency)]
        assert all(0 not in done for done in completions[:-1])
        final = completions[-1][0]
        assert final.chunk == 0 and final.k == 0

    def test_entries_hold_tags_only(self):
        dp = Datapath(RedMulEConfig.reference())
        dp.tick()
        dp.issue(0, chunk=2, k=5)
        (entry,) = [done[0] for done in (dp.tick() for _ in range(4)) if done]
        assert (entry.chunk, entry.k) == (2, 5)
        assert not hasattr(entry, "values")

    def test_one_issue_per_column_per_cycle(self):
        dp = Datapath(RedMulEConfig.reference())
        dp.tick()
        dp.issue(1, 0, 0)
        with pytest.raises(RuntimeError):
            dp.issue(1, 0, 1)

    def test_pipeline_overflow_detection(self):
        config = RedMulEConfig(height=1, length=1, pipeline_regs=1)
        dp = Datapath(config)
        for k in range(config.latency):
            dp.tick()
            dp.issue(0, 0, k)
        # No tick: a further issue would exceed the latency-depth pipeline,
        # and the model also refuses a second issue in the same cycle.
        with pytest.raises(RuntimeError):
            dp.issue(0, 0, 99)

    def test_busy_and_flush(self):
        dp = Datapath(RedMulEConfig.reference())
        assert not dp.busy
        dp.tick()
        dp.issue(0, 0, 0)
        assert dp.busy and dp.occupancy(0) == 1
        dp.flush()
        assert not dp.busy

    def test_column_bounds(self):
        config = RedMulEConfig.reference()
        dp = Datapath(config)
        dp.tick()
        with pytest.raises(IndexError):
            dp.issue(config.height, 0, 0)
