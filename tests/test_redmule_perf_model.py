"""Validation of the analytical performance model against the engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.farm import config_key
from repro.farm.workers import simulate_engine_timing
from repro.redmule.config import RedMulEConfig
from repro.redmule.job import MatmulJob
from repro.redmule.perf_model import RedMulEPerfModel
from repro.redmule.scheduler import TileSchedule

FORMATS = ("fp16", "bf16", "fp8-e4m3", "fp8-e5m2")


# -- per-tile reference ------------------------------------------------------
# The model sums its per-tile expression over the two tile-row classes in
# closed form.  These helpers walk the tile grid one tile at a time with the
# same per-tile terms, so the closed form can be checked against them.
def reference_initial_w_lines(config, n_chunks, n):
    count = 0
    for chunk in range(n_chunks):
        for col in range(config.height):
            need = col * config.latency + chunk * config.block_k
            if need > config.block_k * config.w_prefetch_lines:
                continue
            if chunk * config.height + col < n:
                count += 1
    return count


def reference_is_exact(config, job):
    schedule = TileSchedule(job, config)
    rows = min(job.m, config.length)
    w_demand = min(config.height, job.n)
    x_demand = rows if schedule.n_blocks > 1 else 0
    if w_demand + x_demand > config.block_k:
        return False
    n_chunks = schedule.n_chunks
    issue_cycles = (config.height - 1) * config.latency + n_chunks * config.block_k
    w_initial = reference_initial_w_lines(config, n_chunks, job.n)
    boundary = 0 if job.accumulate else 1
    w_total = sum(
        1
        for chunk in range(n_chunks)
        for col in range(config.height)
        if chunk * config.height + col < job.n
    )
    previous_rows = None
    for tile in schedule:
        y_lines = tile.rows if job.accumulate else 0
        accesses = w_total + tile.rows * schedule.n_blocks + y_lines
        preload = max(w_initial + y_lines + tile.rows - 1, 0)
        duration = preload + issue_cycles + config.latency + boundary
        if previous_rows is not None and duration - accesses < previous_rows:
            return False
        previous_rows = tile.rows
    return True


def reference_estimate(config, job, memory_latency=0):
    """(cycles, n_tiles, ideal_cycles, overhead_cycles) of ``job``."""
    schedule = TileSchedule(job, config)
    n_chunks = schedule.n_chunks
    issue_cycles = (config.height - 1) * config.latency + n_chunks * config.block_k
    w_initial = reference_initial_w_lines(config, n_chunks, job.n)
    boundary = 0 if job.accumulate else 1
    total = 0
    for tile in schedule:
        x0_lines = tile.rows if job.n > 0 else 0
        y_lines = tile.rows if job.accumulate else 0
        preload_stalls = max(w_initial + y_lines + x0_lines - 1, 0)
        preload_stalls += memory_latency
        total += preload_stalls + issue_cycles + config.latency + boundary
    total += schedule.tile(schedule.n_tiles - 1).rows
    ideal = -(-job.total_macs // config.ideal_macs_per_cycle)
    return total, schedule.n_tiles, ideal, total - ideal


def assert_matches_reference(config, job, memory_latency=0):
    model = RedMulEPerfModel(config, memory_latency=memory_latency)
    estimate = model.estimate(job)
    closed = (estimate.cycles, estimate.n_tiles, estimate.ideal_cycles,
              estimate.overhead_cycles)
    where = (f"{config.describe()} {job.m}x{job.n}x{job.k} "
             f"accumulate={job.accumulate} latency={memory_latency}")
    assert closed == reference_estimate(config, job, memory_latency), where
    assert model.is_exact(job) == reference_is_exact(config, job), where


@st.composite
def configs(draw):
    length = draw(st.integers(min_value=1, max_value=16))
    return RedMulEConfig(
        height=draw(st.integers(min_value=1, max_value=8)),
        length=length,
        pipeline_regs=draw(st.integers(min_value=1, max_value=5)),
        w_prefetch_lines=draw(st.integers(min_value=1, max_value=3)),
        z_queue_depth=draw(st.integers(min_value=length,
                                       max_value=length + 8)),
        format=draw(st.sampled_from(FORMATS)),
    )


class TestClosedFormMatchesPerTileReference:
    @settings(max_examples=300, deadline=None)
    @given(config=configs(),
           m=st.integers(min_value=1, max_value=128),
           n=st.integers(min_value=1, max_value=128),
           k=st.integers(min_value=1, max_value=128),
           accumulate=st.booleans(),
           memory_latency=st.integers(min_value=0, max_value=8))
    def test_random_jobs(self, config, m, n, k, accumulate, memory_latency):
        job = MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=m, n=n, k=k,
                        accumulate=accumulate)
        assert_matches_reference(config, job, memory_latency)

    @pytest.mark.parametrize("config", [
        RedMulEConfig.reference(),
        RedMulEConfig(format="fp8-e4m3"),
        RedMulEConfig(height=1, length=4, pipeline_regs=1),
        RedMulEConfig(height=2, length=1, pipeline_regs=2, w_prefetch_lines=3),
        RedMulEConfig(height=8, length=16, pipeline_regs=5,
                      w_prefetch_lines=2, z_queue_depth=16, format="bf16"),
    ], ids=["reference", "fp8-e4m3", "H1-L4-P1", "H2-L1-P2-wpl3",
            "H8-L16-P5-wpl2-bf16"])
    def test_tile_grid_edges(self, config):
        """One tile row or column, M a multiple of L or not, K a multiple of
        the line width or not, N inside and beyond the prefetch horizon."""
        length, line = config.length, config.elements_per_line
        ms = {1, length - 1, length, length + 1, 2 * length, 2 * length + 3}
        ks = {1, line - 1, line, line + 1, 3 * line}
        ns = {1, config.height, config.height * config.w_prefetch_lines + 1,
              5, 64}
        grids = set()
        for m in sorted(x for x in ms if x > 0):
            for k in sorted(x for x in ks if x > 0):
                for n in sorted(ns):
                    for accumulate in (False, True):
                        job = MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=m,
                                        n=n, k=k, accumulate=accumulate)
                        schedule = TileSchedule(job, config)
                        grids.add((schedule.tiles_m == 1,
                                   schedule.tiles_k == 1,
                                   m % length == 0, k % line == 0))
                        for memory_latency in (0, 3):
                            assert_matches_reference(config, job,
                                                     memory_latency)
        # Every combination of the four edges was exercised (L = 1 makes
        # every M a multiple of L).
        assert len(grids) == (8 if length == 1 else 16)


class TestZBacklogCorner:
    def test_one_row_tile_after_a_full_tile_is_outside_the_exact_domain(self):
        """H=1, L=4, P=1, 5x1x1 accumulate: a 4-row tile, then a 1-row tile.

        The 1-row tile has 3 spare port slots but inherits 4 queued Z lines,
        so one line lengthens the final drain.  Only the full -> last pair
        occurs here (one tile column, one full tile), so this pins that
        check of :meth:`RedMulEPerfModel.is_exact`.
        """
        config = RedMulEConfig(height=1, length=4, pipeline_regs=1)
        job = MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=5, n=1, k=1,
                        accumulate=True)
        model = RedMulEPerfModel(config)
        assert not model.is_exact(job)
        measured = simulate_engine_timing(config_key(config), 5, 1, 1, True,
                                          max_cycles=10_000)
        assert model.estimate(job).cycles == 19
        assert measured.cycles == 20


class TestAgainstCycleAccurateEngine:
    """The closed-form model must track the engine within a small tolerance."""

    @pytest.mark.parametrize(
        "m,n,k",
        [
            (8, 16, 16),
            (8, 4, 16),
            (16, 16, 16),
            (32, 32, 32),
            (8, 64, 16),
            (13, 7, 5),
            (1, 96, 1),
            (24, 100, 40),
            (8, 256, 16),
        ],
    )
    def test_cycle_count_tolerance(self, harness, m, n, k):
        _, _, _, measured = harness.run_random(m, n, k, seed=m + n + k)
        estimate = RedMulEPerfModel(RedMulEConfig.reference()).estimate_gemm(m, n, k)
        tolerance = max(32, 0.03 * measured.cycles)
        assert abs(estimate.cycles - measured.cycles) <= tolerance, (
            f"estimate {estimate.cycles} vs measured {measured.cycles}"
        )

    def test_never_below_the_ideal_bound(self):
        model = RedMulEPerfModel()
        for shape in [(8, 16, 16), (64, 64, 64), (128, 128, 128), (1, 640, 1)]:
            estimate = model.estimate_gemm(*shape)
            assert estimate.cycles >= estimate.ideal_cycles
            assert estimate.overhead_cycles == estimate.cycles - estimate.ideal_cycles


class TestModelBehaviour:
    def test_utilisation_increases_with_problem_size(self):
        model = RedMulEPerfModel()
        utilisations = [model.estimate_gemm(s, s, s).utilisation
                        for s in (8, 16, 32, 64, 128, 256, 512)]
        assert utilisations == sorted(utilisations)

    def test_large_square_matrix_reaches_paper_utilisation(self):
        """The paper reports 98.8 % of the ideal 32 MAC/cycle."""
        estimate = RedMulEPerfModel().estimate_gemm(512, 512, 512)
        assert estimate.fraction_of_ideal > 0.97
        assert estimate.macs_per_cycle > 31.0

    def test_throughput_at_peak_frequency_matches_paper(self):
        """31.6 MAC/cycle at 666 MHz is 21.1 GMAC/s = 42 GFLOPS (Section III-A)."""
        estimate = RedMulEPerfModel().estimate_gemm(512, 512, 512)
        assert estimate.throughput_gmacs(666e6) == pytest.approx(21.0, rel=0.03)
        assert estimate.throughput_gflops(666e6) == pytest.approx(42.0, rel=0.03)

    def test_k_equal_one_wastes_the_output_row(self):
        """With K = 1 only one of the 16 Z elements per row is useful, which is
        the forward-pass bottleneck of the batch-1 auto-encoder (Fig. 4c)."""
        estimate = RedMulEPerfModel().estimate_gemm(128, 640, 1)
        assert estimate.utilisation < 1.0 / 16 + 0.01

    def test_m_equal_one_wastes_the_rows(self):
        estimate = RedMulEPerfModel().estimate_gemm(1, 640, 16)
        assert estimate.utilisation < 1.0 / 8 + 0.01

    def test_runtime_scales_inversely_with_frequency(self):
        estimate = RedMulEPerfModel().estimate_gemm(64, 64, 64)
        assert estimate.runtime_s(666e6) < estimate.runtime_s(476e6)
        ratio = estimate.runtime_s(476e6) / estimate.runtime_s(666e6)
        assert ratio == pytest.approx(666 / 476, rel=1e-6)

    def test_non_reference_configuration(self):
        config = RedMulEConfig(height=8, length=16, pipeline_regs=3)
        estimate = RedMulEPerfModel(config).estimate_gemm(256, 256, 256)
        assert estimate.config is config
        assert estimate.macs_per_cycle <= config.ideal_macs_per_cycle
        assert estimate.macs_per_cycle > 0.9 * config.ideal_macs_per_cycle

    def test_estimate_accepts_jobs(self):
        model = RedMulEPerfModel()
        job = MatmulJob(x_addr=0, w_addr=0x1000, z_addr=0x2000, m=16, n=16, k=16)
        assert model.estimate(job).cycles == model.estimate_gemm(16, 16, 16).cycles
