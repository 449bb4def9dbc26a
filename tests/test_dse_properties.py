"""Property tests of the analytic model's exactness domain (hypothesis).

The design-space explorer rests on one claim: on the uncontended domain
(:meth:`RedMulEPerfModel.is_exact`), the closed-form estimate equals the
cycle-accurate engine *exactly* -- not within a tolerance.  These tests
randomise (M, N, K) x (H, L, P, W prefetch depth, format) x accumulate and
assert bit-for-bit cycle equality wherever the predicate holds, plus a
tolerance-bounded check for the program-level estimator built on top.
"""

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.farm import BACKEND_ENGINE, SimulationFarm, config_key
from repro.farm.workers import simulate_engine_timing
from repro.graph.zoo import mlp_training_graph
from repro.redmule.config import RedMulEConfig
from repro.redmule.job import MatmulJob
from repro.redmule.perf_model import RedMulEPerfModel

#: Engine-safe geometry domain: P >= 1 (P = 0 overruns the engine's X
#: prefetch buffer) and the Z queue at least as deep as the live rows
#: (shallower queues deadlock the store path).
heights = st.integers(min_value=1, max_value=6)
lengths = st.integers(min_value=1, max_value=8)
pipeline = st.integers(min_value=1, max_value=4)
prefetch = st.integers(min_value=1, max_value=3)
precisions = st.sampled_from(["fp16", "fp8-e4m3"])
dims_m = st.integers(min_value=1, max_value=16)
dims_n = st.integers(min_value=1, max_value=32)
dims_k = st.integers(min_value=1, max_value=16)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(height=heights, length=lengths, pipeline_regs=pipeline,
       w_prefetch_lines=prefetch, precision=precisions,
       m=dims_m, n=dims_n, k=dims_k, accumulate=st.booleans())
def test_estimate_equals_engine_cycles_on_exact_domain(
    height, length, pipeline_regs, w_prefetch_lines, precision, m, n, k,
    accumulate
):
    config = RedMulEConfig(height=height, length=length,
                           pipeline_regs=pipeline_regs,
                           w_prefetch_lines=w_prefetch_lines,
                           format=precision)
    job = MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=m, n=n, k=k,
                    accumulate=accumulate)
    model = RedMulEPerfModel(config)
    assume(model.is_exact(job))
    measured = simulate_engine_timing(
        config_key(config), m, n, k, accumulate, max_cycles=500_000,
    )
    estimate = model.estimate(job)
    assert estimate.cycles == measured.cycles, (
        f"H{height} L{length} P{pipeline_regs} prefetch{w_prefetch_lines} "
        f"{precision} {m}x{n}x{k} accumulate={accumulate}: "
        f"engine {measured.cycles} vs model {estimate.cycles}"
    )
    assert estimate.n_tiles == measured.n_tiles


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(hidden=st.integers(min_value=2, max_value=12),
       out=st.integers(min_value=1, max_value=8),
       batch=st.integers(min_value=1, max_value=6))
def test_program_estimator_tracks_engine_serial_time(hidden, out, batch):
    """Program-level serial estimate within 5 % of summed engine cycles.

    The reference instance is uncontended for every shape (demand
    min(4, n) + min(m, 8) <= 12 < block_k = 16), so the bound is loose on
    purpose -- the point is that the *program* aggregation (node walk,
    offload accounting, dependency annotation) introduces no drift on top
    of the per-job model.
    """
    config = RedMulEConfig.reference()
    graph = mlp_training_graph((16, hidden, out), batch=batch)
    program = graph.lower(config=config)
    estimate = RedMulEPerfModel(config).estimate_program(program)

    farm = SimulationFarm(config=config, backend=BACKEND_ENGINE)
    engine_serial = sum(
        result.cycles for result in farm.run(program.jobs)
    )
    assert engine_serial > 0
    error = abs(estimate.serial_cycles - engine_serial) / engine_serial
    assert error <= 0.05, (
        f"program serial estimate {estimate.serial_cycles} vs engine "
        f"{engine_serial} ({100 * error:.2f}% off)"
    )
    # On the reference instance the per-job model is exact, so the program
    # aggregation must be too.
    if all(RedMulEPerfModel(config).is_exact(job) for job in program.jobs):
        assert estimate.serial_cycles == engine_serial
