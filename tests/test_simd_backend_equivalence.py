"""End-to-end equivalence of the `exact-simd` backend against the oracle.

The acceptance bar of the array-oriented backend: on the experiment job set
(the engine-eligible fig3/fig4 sweep shapes and the fig4c/fig4d AutoEncoder
training GEMMs), `ExactSimdVectorOps` must leave bit-identical TCDM contents
and report identical cycle counts to the scalar `ExactVectorOps` oracle.
Larger shapes of the same sweeps are covered at the kernel level
(`test_fp_simd_formats`) and by the golden-model equivalence below, which
evaluates the exact accumulation order without the cycle-accurate machinery.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.farm import (
    BACKEND_ENGINE,
    DEFAULT_ENGINE_MACS_THRESHOLD,
    SimulationFarm,
    TimingRecord,
    config_key,
)
from repro.farm.workers import _build_job, run_functional_job
from repro.fp.formats import FORMATS, FP16, fma_bits
from repro.fp.simd_formats import (
    bits_to_f64_many,
    chain_sums_exact,
    f64_to_bits_many,
    format_dtype,
)
from repro.fp.vector import quantize, random_matrix
from repro.interco.hci import Hci, HciConfig
from repro.mem.layout import MemoryAllocator
from repro.mem.tcdm import Tcdm, TcdmConfig
from repro.redmule.config import RedMulEConfig
from repro.redmule.engine import RedMulE
from repro.redmule.functional import (
    matmul_hw_order_exact_fmt,
    matmul_hw_order_simd_fmt,
)
from repro.redmule.job import MatmulJob
from repro.redmule.vector_ops import (
    ExactSimdVectorOps,
    ExactVectorOps,
    make_vector_ops,
)
from repro.experiments.fig3 import DEFAULT_SWEEP_SIZES
from repro.experiments.fig4 import DEFAULT_HW_SW_SIZES
from repro.graph.zoo import autoencoder_training_graph


def _experiment_engine_shapes():
    """Engine-eligible (M, N, K) shapes of the fig3/fig4 experiment set."""
    shapes = []
    for size in sorted(set(DEFAULT_SWEEP_SIZES) | set(DEFAULT_HW_SW_SIZES)):
        if size ** 3 <= DEFAULT_ENGINE_MACS_THRESHOLD:
            shapes.append((size, size, size))
    for gemm in autoencoder_training_graph(1).gemm_nodes():
        shape = (gemm.shape.m, gemm.shape.n, gemm.shape.k)
        if gemm.shape.macs <= DEFAULT_ENGINE_MACS_THRESHOLD and shape not in shapes:
            shapes.append(shape)
    return shapes


def _run_engine(backend, m, n, k, accumulate=False, x=None, w=None, z0=None):
    config = TcdmConfig()
    needed = 2 * (m * n + n * k + m * k) + 3 * 32
    if needed > config.size:
        words = -(-needed // (config.n_banks * config.word_bytes))
        config = TcdmConfig(bank_words=max(config.bank_words, words))
    tcdm = Tcdm(config)
    hci = Hci(tcdm, HciConfig())
    engine = RedMulE(RedMulEConfig.reference(), hci, backend=backend)
    allocator = MemoryAllocator(tcdm.base, tcdm.size)
    hx = allocator.alloc_matrix(m, n, "X")
    hw = allocator.alloc_matrix(n, k, "W")
    hz = allocator.alloc_matrix(m, k, "Z")
    hx.store(tcdm, x if x is not None
             else random_matrix(m, n, scale=0.25, seed=m + n))
    hw.store(tcdm, w if w is not None
             else random_matrix(n, k, scale=0.25, seed=n + k))
    if accumulate:
        hz.store(tcdm, z0 if z0 is not None
                 else random_matrix(m, k, scale=0.25, seed=m + k))
    result = engine.run_job(MatmulJob.from_handles(hx, hw, hz,
                                                   accumulate=accumulate))
    return result, tcdm.dump_image(hz.base, m * k * 2)


class TestEngineBitIdentity:
    @pytest.mark.parametrize("shape", _experiment_engine_shapes(),
                             ids=lambda s: "x".join(map(str, s)))
    def test_experiment_job_set(self, shape):
        """Bit-identical TCDM contents and identical cycle counts on the
        engine-eligible fig3/fig4/autoencoder job set."""
        exact_result, exact_bits = _run_engine("exact", *shape)
        simd_result, simd_bits = _run_engine("exact-simd", *shape)
        assert simd_bits == exact_bits
        assert simd_result.cycles == exact_result.cycles
        assert simd_result.stall_cycles == exact_result.stall_cycles
        assert simd_result.issued_macs == exact_result.issued_macs

    def test_accumulate_jobs(self):
        for shape in [(8, 16, 16), (13, 7, 5), (16, 40, 24)]:
            exact_result, exact_bits = _run_engine("exact", *shape,
                                                   accumulate=True)
            simd_result, simd_bits = _run_engine("exact-simd", *shape,
                                                 accumulate=True)
            assert simd_bits == exact_bits
            assert simd_result.cycles == exact_result.cycles

    def test_special_values_route_through_integer_kernels(self):
        """NaNs, infinities and subnormal operands in the input matrices must
        not break bit-identity (they exercise the guarded fallback path)."""
        m, n, k = 16, 24, 16
        x = random_matrix(m, n, scale=0.25, seed=3).astype(np.float32)
        w = random_matrix(n, k, scale=0.25, seed=4).astype(np.float32)
        x[0, 0], x[1, 2], x[2, 1] = np.inf, np.nan, 6e-8
        w[0, 0], w[1, 1], w[2, 0] = -np.inf, 65504.0, -5.9e-8
        exact_result, exact_bits = _run_engine("exact", m, n, k, x=x, w=w)
        simd_result, simd_bits = _run_engine("exact-simd", m, n, k, x=x, w=w)
        assert simd_bits == exact_bits
        assert simd_result.cycles == exact_result.cycles


class TestGoldenModelEquivalence:
    def test_simd_matmul_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        x = quantize(rng.standard_normal((12, 37)) * 0.3)
        w = quantize(rng.standard_normal((37, 9)) * 0.3)
        got = f64_to_bits_many(matmul_hw_order_simd_fmt(x, w, FP16), FP16)
        assert got.tolist() == matmul_hw_order_exact_fmt(
            f64_to_bits_many(x, FP16), f64_to_bits_many(w, FP16), FP16)

    def test_simd_matmul_with_accumulator(self):
        rng = np.random.default_rng(1)
        x = quantize(rng.standard_normal((5, 16)) * 0.3)
        w = quantize(rng.standard_normal((16, 7)) * 0.3)
        acc = quantize(rng.standard_normal((5, 7)))
        want = matmul_hw_order_exact_fmt(
            f64_to_bits_many(x, FP16), f64_to_bits_many(w, FP16), FP16,
            f64_to_bits_many(acc, FP16))
        got = f64_to_bits_many(matmul_hw_order_simd_fmt(x, w, FP16, acc), FP16)
        assert got.tolist() == want

    def test_simd_matmul_shape_checks(self):
        with pytest.raises(ValueError):
            matmul_hw_order_simd_fmt(np.zeros((2, 3)), np.zeros((4, 2)), FP16)
        with pytest.raises(ValueError):
            matmul_hw_order_simd_fmt(np.zeros((2, 3)), np.zeros((3, 2)), FP16,
                                     acc=np.zeros((3, 3)))


class TestVectorOpsLevel:
    def test_registry(self):
        assert isinstance(make_vector_ops("exact"), ExactVectorOps)
        assert isinstance(make_vector_ops("exact-simd"), ExactSimdVectorOps)
        with pytest.raises(ValueError):
            make_vector_ops("bogus")

    def test_simd_chain_matches_scalar_chain(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 0x8000, (1, 8, 40), dtype=np.uint16)
        w = rng.integers(0, 0x8000, (1, 40, 1), dtype=np.uint16)
        acc = rng.integers(0, 0x8000, (1, 8, 1), dtype=np.uint16)
        mask = np.ones(40, dtype=bool)
        assert np.array_equal(ExactSimdVectorOps().chain(x, w, acc, mask),
                              ExactVectorOps().chain(x, w, acc, mask))

    def test_guarded_chain_survives_a_double_rounding_tie(self):
        """bf16 ``(1 + ulp) * 1.5`` is a tie, which a negative minimum
        subnormal accumulator breaks downwards; plain float64 evaluation
        loses the accumulator and rounds the tie to even (0x3FC2).  The
        guarded chain must follow the oracle, and so must a default-built
        engine running the same FMA as a 1x1x1 accumulate job."""
        x = np.array([[[0x3F81]]], dtype=np.uint16)
        w = np.array([[[0x3FC0]]], dtype=np.uint16)
        acc = np.array([[[0x8001]]], dtype=np.uint16)
        want = ExactVectorOps("bf16").chain(x, w, acc, [True])
        assert int(want[0, 0, 0]) == 0x3FC1
        got = ExactSimdVectorOps("bf16").chain(x, w, acc, [True])
        assert np.array_equal(got, want)
        engine = RedMulE(RedMulEConfig(format="bf16"))
        tcdm = engine.tcdm
        x_addr, w_addr, z_addr = tcdm.base, tcdm.base + 32, tcdm.base + 64
        tcdm.write_u16(x_addr, 0x3F81)
        tcdm.write_u16(w_addr, 0x3FC0)
        tcdm.write_u16(z_addr, 0x8001)
        engine.run_job(MatmulJob(x_addr=x_addr, w_addr=w_addr, z_addr=z_addr,
                                 m=1, n=1, k=1, accumulate=True))
        assert tcdm.read_u16(z_addr) == 0x3FC1

    def test_batched_chain_matches_per_tile_calls(self):
        """Replay runs the chain over T tiles at once, the engine over one:
        both must produce the same bits."""
        rng = np.random.default_rng(4)
        x = rng.integers(0, 0x8000, (4, 8, 12), dtype=np.uint16)
        w = rng.integers(0, 0x8000, (4, 12, 16), dtype=np.uint16)
        acc = rng.integers(0, 0x8000, (4, 8, 16), dtype=np.uint16)
        mask = np.arange(16) < 12  # gated tail, as in a padded last chunk
        simd = ExactSimdVectorOps()
        batched = simd.chain(x, w, acc, mask)
        for t in range(4):
            one = simd.chain(x[t:t + 1], w[t:t + 1], acc[t:t + 1], mask)
            assert np.array_equal(batched[t:t + 1], one)
        assert np.array_equal(batched, ExactVectorOps().chain(x, w, acc, mask))


def _special_patterns(fmt):
    """Signed zeros, infinities, the canonical NaN, the subnormal extremes,
    the largest finite value and a tie-producing pair of ``fmt``."""
    sign = fmt.sign_mask
    one = fmt.one_bits
    return [0, sign, fmt.pos_inf_bits, fmt.neg_inf_bits, fmt.nan_bits,
            1, sign | 1, fmt.man_mask, sign | fmt.man_mask,
            fmt.max_finite_bits, sign | fmt.max_finite_bits, one,
            # (1 + ulp) * 1.5 lands exactly between two neighbours.
            one | 1, one | (1 << (fmt.man_bits - 1))]


#: Spoilers that take a chain out of :func:`chain_sums_exact`'s reach.
_SPOILERS = ("nan", "inf", "near-max")


def _small_patterns(fmt):
    """Every finite pattern of magnitude below 2: with at most 6 steps,
    chains over them stay provably exact in every format but bf16."""
    below_two = np.arange((fmt.bias + 1) << fmt.man_bits)
    return np.concatenate([below_two, below_two | fmt.sign_mask]).tolist()


@st.composite
def _chain_tiles(draw):
    """A batch of random tiles in pattern space: ``rows <= L`` (reference
    instance), a few inner steps followed by a gated tail, accumulators
    from +0, from -0 or random.

    Operands come from one of three pools, so both sides of the exactness
    proof are drawn in every format: ``small`` (magnitudes below 2, which
    the proof covers outside bf16), ``random`` (all patterns, specials
    mixed in) or ``small`` plus one spoiler at an active step -- a NaN, an
    infinity, or a near-maximum product, which only fp8-e4m3's wide bound
    still covers.  Returns the tiles and whether the proof must hold
    (``None`` for the random pool)."""
    fmt = draw(st.sampled_from(list(FORMATS.values())))
    t = draw(st.integers(1, 2))
    rows = draw(st.integers(1, RedMulEConfig.reference().length))
    cols = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    gated = draw(st.integers(0, 3))
    # Half the draws keep the all-pattern pool, the rest split evenly.
    pool = draw(st.sampled_from(("random",) * 4 + ("small", *_SPOILERS)))
    if pool == "random":
        element = st.one_of(st.integers(0, fmt.full_mask),
                            st.sampled_from(_special_patterns(fmt)))
    else:
        element = st.sampled_from(_small_patterns(fmt))

    def matrix(shape):
        size = int(np.prod(shape))
        values = draw(st.lists(element, min_size=size, max_size=size))
        return np.array(values, dtype=format_dtype(fmt)).reshape(shape)

    start = draw(st.sampled_from(["+0", "-0", "random"]))
    if start == "random":
        acc = matrix((t, rows, cols))
    else:
        acc = np.full((t, rows, cols), 0 if start == "+0" else fmt.sign_mask,
                      dtype=format_dtype(fmt))
    x, w = matrix((t, rows, n)), matrix((t, n, cols))
    step = draw(st.integers(0, n - 1))
    sign = draw(st.sampled_from([0, fmt.sign_mask]))
    if pool == "nan":
        x[0, 0, step] = fmt.nan_bits
    elif pool == "inf":
        acc[0, 0, 0] = fmt.pos_inf_bits | sign
    elif pool == "near-max":
        x[0, 0, step] = fmt.max_finite_bits | sign
        w[0, step, 0] = fmt.max_finite_bits
    provable = None
    if pool != "random":
        provable = fmt.name != "bf16" and (
            pool == "small" or (pool == "near-max" and fmt.name == "fp8-e4m3"))
    mask = np.arange(n + gated) < n
    return fmt, x, w, acc, mask, provable


def _scalar_chain(fmt, x, w, acc, mask):
    out = np.array(acc, dtype=np.int64)
    for index in np.ndindex(out.shape):
        t, r, c = index
        value = int(acc[index])
        for n in np.flatnonzero(mask):
            value = fma_bits(int(x[t, r, n]), int(w[t, n, c]), value, fmt)
        out[index] = value
    return out


@settings(max_examples=400, deadline=None)
@given(tiles=_chain_tiles(),
       backend=st.sampled_from(["exact", "exact-simd"]))
def test_chain_kernel_equals_scalar_fma_loop(tiles, backend):
    """The per-tile chain kernels of the bit-exact backends equal a plain
    scalar ``fma_bits`` loop in every format, on chains the exactness proof
    covers (unguarded steps) and on chains it cannot (guarded steps)."""
    fmt, x, w, acc, mask, provable = tiles
    if provable is not None:
        steps = np.flatnonzero(mask)
        proven = chain_sums_exact(bits_to_f64_many(x, fmt)[:, :, steps],
                                  bits_to_f64_many(w, fmt)[:, steps, :],
                                  bits_to_f64_many(acc, fmt), fmt)
        assert proven == provable
    got = make_vector_ops(backend, fmt).chain(x, w, acc, mask)
    assert got.dtype == format_dtype(fmt)
    assert np.array_equal(got.astype(np.int64),
                          _scalar_chain(fmt, x, w, acc, mask))


class TestBackendSelection:
    def test_cluster_arithmetic_defaults_to_exact_simd(self):
        from repro.cluster import PulpCluster

        assert PulpCluster(arithmetic="exact").redmule.backend == "exact"
        assert PulpCluster().redmule.backend == "exact-simd"

    def test_engine_backend_resolution_order(self):
        config = RedMulEConfig(format="bf16")
        assert RedMulE(config).backend == "exact-simd"
        assert RedMulE(config, backend="exact").backend == "exact"


class TestFarmBackendValidation:
    def test_functional_runs_agree_on_equivalent_backends(self):
        # ``run_functional_job`` returns (cycles, Z image): exact-simd must
        # match the scalar oracle on both, bit for bit.
        key = config_key(RedMulEConfig.reference())
        for m, n, k in ((8, 16, 16), (13, 7, 5)):
            assert (run_functional_job(key, m, n, k, False, "exact-simd")
                    == run_functional_job(key, m, n, k, False, "exact"))

    def test_functional_runs_reject_an_unknown_backend(self):
        key = config_key(RedMulEConfig.reference())
        # Every backend is bit-exact, so no pair diverges; identical
        # backends always match, and an unknown name is refused.
        assert (run_functional_job(key, 8, 16, 16, False, "exact")
                == run_functional_job(key, 8, 16, 16, False, "exact"))
        with pytest.raises(ValueError):
            run_functional_job(key, 8, 16, 16, False, "bogus")

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(height=st.integers(1, 8), length=st.integers(1, 16),
           pipeline_regs=st.integers(1, 3), w_prefetch_lines=st.integers(1, 3),
           precision=st.sampled_from(["fp16", "fp8-e4m3"]),
           m=st.integers(1, 24), n=st.integers(1, 24), k=st.integers(1, 40),
           accumulate=st.booleans(), second_m=st.integers(1, 24),
           second_accumulate=st.booleans())
    def test_farm_records_equal_the_event_stepped_engine(
            self, height, length, pipeline_regs, w_prefetch_lines, precision,
            m, n, k, accumulate, second_m, second_accumulate):
        """Engine misses, timed on trace replay, return the records of
        event-stepped ``exact-simd`` runs of the same jobs.  The second job
        shares N and K with the first, so it replays tiles that the first
        one recorded."""
        config = RedMulEConfig(height=height, length=length,
                               pipeline_regs=pipeline_regs,
                               w_prefetch_lines=w_prefetch_lines,
                               z_queue_depth=max(8, length), format=precision)
        farm = SimulationFarm(config, backend=BACKEND_ENGINE)
        for shape in ((m, n, k, accumulate),
                      (second_m, n, k, second_accumulate)):
            record = farm.run_gemm(*shape).record
            assert record == _event_stepped_record(config, *shape)

    def test_dse_frontier_validated_jobs_equal_the_event_stepped_engine(self):
        """The 72 jobs ``dse-frontier`` cross-validates over its three
        sampled frontier points: an engine farm's records equal
        event-stepped ``exact-simd`` runs, job for job."""
        from repro.dse.validate import DEFAULT_MAX_MACS_PER_JOB, _sample_indices
        from repro.experiments.dse import dse_frontier

        report = dse_frontier()
        result = report.result
        frontier = result.pareto(trusted_only=True)
        checked = 0
        for index in _sample_indices(len(frontier), 3):
            config = frontier[index].point.config
            program = result.graph.lower(config=config, tile=result.tile)
            jobs = [job for job in program.jobs
                    if job.total_macs <= DEFAULT_MAX_MACS_PER_JOB]
            farm = SimulationFarm(config, backend=BACKEND_ENGINE)
            records = [r.record for r in farm.run(jobs)]
            expected = {}
            for job, record in zip(jobs, records):
                shape = (job.m, job.n, job.k, job.accumulate)
                if shape not in expected:
                    expected[shape] = _event_stepped_record(config, *shape)
                assert record == expected[shape]
            checked += len(jobs)
        assert checked == report.validation.jobs_checked == 72


def _event_stepped_record(config, m, n, k, accumulate):
    """The farm record of an event-stepped ``exact-simd`` engine run of
    the canonically staged job."""
    engine, job, _ = _build_job(config_key(config), m, n, k, accumulate,
                                "exact-simd")
    result = engine.run_job(job)
    return TimingRecord(
        cycles=result.cycles,
        stall_cycles=result.stall_cycles,
        active_cycles=result.active_cycles,
        total_macs=result.total_macs,
        issued_macs=result.issued_macs,
        n_tiles=result.n_tiles,
        peak_macs_per_cycle=result.peak_macs_per_cycle,
        ideal_cycles=-(-result.total_macs // config.ideal_macs_per_cycle),
        backend=BACKEND_ENGINE,
    )


class TestTraceBackendEquivalence:
    """The trace backend's acceptance gate: identical ``RedMulEResult``
    cycle counts and bit-identical TCDM contents vs the event-stepped
    engine on the engine-eligible experiment job set."""

    @pytest.fixture(autouse=True)
    def _fresh_trace_stores(self):
        from repro.redmule.trace import reset_shared_trace_stores

        reset_shared_trace_stores()
        yield
        reset_shared_trace_stores()

    @pytest.mark.parametrize("shape", _experiment_engine_shapes(),
                             ids=lambda s: "x".join(map(str, s)))
    def test_experiment_job_set(self, shape):
        simd_result, simd_bits = _run_engine("exact-simd", *shape)
        trace_result, trace_bits = _run_engine("trace", *shape)
        assert trace_bits == simd_bits
        assert trace_result.cycles == simd_result.cycles
        assert trace_result.stall_cycles == simd_result.stall_cycles
        assert trace_result.issued_macs == simd_result.issued_macs

    def test_warm_replay_stays_identical(self):
        """Second run of a shape replays recorded schedules; nothing about
        the observable result may change."""
        from repro.redmule.config import RedMulEConfig
        from repro.redmule.trace import shared_trace_store

        shape = (48, 48, 48)
        simd_result, simd_bits = _run_engine("exact-simd", *shape)
        cold_result, cold_bits = _run_engine("trace", *shape)
        store = shared_trace_store(RedMulEConfig.reference())
        assert store.stats.recordings > 0
        recordings = store.stats.recordings
        warm_result, warm_bits = _run_engine("trace", *shape)
        assert store.stats.recordings == recordings  # replay only
        assert store.stats.hits > 0
        assert warm_bits == cold_bits == simd_bits
        assert warm_result.cycles == cold_result.cycles == simd_result.cycles

    def test_special_values_replay_bit_identically(self):
        m, n, k = 16, 24, 16
        x = random_matrix(m, n, scale=0.25, seed=3).astype(np.float32)
        w = random_matrix(n, k, scale=0.25, seed=4).astype(np.float32)
        x[0, 0], x[1, 2], x[2, 1] = np.inf, np.nan, 6e-8
        w[0, 0], w[1, 1], w[2, 0] = -np.inf, 65504.0, -5.9e-8
        simd_result, simd_bits = _run_engine("exact-simd", m, n, k, x=x, w=w)
        # Record with plain data, then replay with the special values so the
        # data plane (not the recording run) handles NaN/inf/subnormals.
        _run_engine("trace", m, n, k)
        trace_result, trace_bits = _run_engine("trace", m, n, k, x=x, w=w)
        assert trace_bits == simd_bits
        assert trace_result.cycles == simd_result.cycles
