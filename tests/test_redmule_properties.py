"""Property-based tests of the cycle-accurate engine (hypothesis).

These tests generate arbitrary small GEMM shapes and check the two invariants
that must hold for *every* shape: the functional result equals the golden
FP16 model, and the cycle count is never below the ideal bound while staying
within a sane envelope of it.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fp.formats import FP16
from repro.fp.vector import random_matrix
from repro.interco.hci import Hci, HciConfig
from repro.mem.tcdm import Tcdm
from repro.redmule.config import RedMulEConfig
from repro.redmule.engine import RedMulE
from repro.redmule.functional import matmul_hw_order_simd_fmt
from repro.redmule.perf_model import RedMulEPerfModel
from tests.conftest import MatmulHarness

#: Small dimensions keep the per-example runtime acceptable while still
#: covering every edge-tile / padding combination.
dims = st.integers(min_value=1, max_value=24)
small_dims = st.integers(min_value=1, max_value=12)


def _fresh_harness() -> MatmulHarness:
    tcdm = Tcdm()
    hci = Hci(tcdm, HciConfig())
    return MatmulHarness(RedMulE(RedMulEConfig.reference(), hci))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(m=dims, n=dims, k=dims, seed=st.integers(min_value=0, max_value=2 ** 16))
def test_engine_matches_golden_model_for_any_shape(m, n, k, seed):
    harness = _fresh_harness()
    x = random_matrix(m, n, scale=0.25, seed=seed)
    w = random_matrix(n, k, scale=0.25, seed=seed + 1)
    z, result = harness.run(x, w)
    assert np.array_equal(z, matmul_hw_order_simd_fmt(x, w, FP16))
    assert result.total_macs == m * n * k


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(m=small_dims, n=small_dims, k=small_dims)
def test_cycle_count_bounds_for_any_shape(m, n, k):
    harness = _fresh_harness()
    _, result = harness.run(
        random_matrix(m, n, scale=0.25, seed=1),
        random_matrix(n, k, scale=0.25, seed=2),
    )
    ideal = (m * n * k) / 32.0
    assert result.cycles >= ideal
    # Even the worst tiny shape cannot take more than one full tile of
    # overhead per tile plus the fixed preload/drain costs.
    estimate = RedMulEPerfModel().estimate_gemm(m, n, k)
    assert result.cycles <= 2 * estimate.cycles + 64


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(min_value=1, max_value=80),
       seed=st.integers(min_value=0, max_value=1000))
def test_inner_dimension_padding_never_corrupts_results(n, seed):
    """N is the dimension the array pads to multiples of H; sweep it finely."""
    harness = _fresh_harness()
    x = random_matrix(8, n, scale=0.25, seed=seed)
    w = random_matrix(n, 16, scale=0.25, seed=seed + 7)
    z, _ = harness.run(x, w)
    assert np.array_equal(z, matmul_hw_order_simd_fmt(x, w, FP16))
