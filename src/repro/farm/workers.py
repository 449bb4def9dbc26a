"""Worker-side simulation entry points for the farm.

The farm dispatches cache misses either inline (serial fallback) or across a
``concurrent.futures`` process pool; either way the work lands here.  The
entry point is a module-level function of picklable arguments so it can cross
a process boundary, and it rebuilds the engine from the architectural key
rather than shipping simulator state between processes.

Timing runs use *canonical operand placement*: a fresh zero-filled TCDM with
X, W and Z allocated back to back from the TCDM base, exactly like the test
harness does.  Because the engine's timing is data- and address-independent
in the uncontended single-accelerator case, the records produced here are
identical to what a direct :meth:`repro.redmule.engine.RedMulE.run_job` call
measures for the same shape (the property tests assert this field by field).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.farm.cache import BACKEND_ENGINE, BACKEND_MODEL, TimingKey, TimingRecord
from repro.interco.hci import Hci, HciConfig
from repro.mem.layout import MemoryAllocator
from repro.mem.tcdm import Tcdm, TcdmConfig
from repro.redmule.config import RedMulEConfig
from repro.redmule.engine import RedMulE
from repro.redmule.job import MatmulJob
from repro.redmule.perf_model import RedMulEPerfModel
from repro.redmule.vector_ops import DEFAULT_BACKEND


def config_from_key(key: Tuple[int, ...]) -> RedMulEConfig:
    """Rebuild the architectural configuration from a cache key tuple."""
    height, length, pipeline_regs, w_prefetch_lines, z_queue_depth, fmt = key
    return RedMulEConfig(
        height=height,
        length=length,
        pipeline_regs=pipeline_regs,
        w_prefetch_lines=w_prefetch_lines,
        z_queue_depth=z_queue_depth,
        format=fmt,
    )


def _tcdm_for_shape(m: int, n: int, k: int, element_bytes: int = 2) -> Tcdm:
    """A zero-filled TCDM large enough for the three operand matrices.

    The default 128 KiB geometry is kept whenever the job fits (so records
    are measured on the reference memory system); larger shapes get a deeper
    TCDM with the same bank structure, which is timing-neutral because the
    uncontended wide port performs one access per cycle regardless of the
    memory depth.
    """
    config = TcdmConfig()
    needed = element_bytes * (m * n + n * k + m * k) + 3 * 32  # + alignment
    if needed > config.size:
        words_needed = -(-needed // (config.n_banks * config.word_bytes))
        config = TcdmConfig(bank_words=max(config.bank_words, words_needed))
    return Tcdm(config)


def _build_job(
    key: Tuple[int, ...],
    m: int,
    n: int,
    k: int,
    accumulate: bool,
    backend: str,
):
    """Build an engine + canonically placed job for one shape.

    Shared by the timing and functional-validation entry points, so both run
    the exact same engine configuration and operand placement.  Returns
    ``(engine, job, z_handle)``.
    """
    config = config_from_key(key)
    tcdm = _tcdm_for_shape(m, n, k, config.element_bytes)
    hci = Hci(tcdm, HciConfig(n_wide_ports=config.n_mem_ports))
    engine = RedMulE(config, hci, backend=backend)
    allocator = MemoryAllocator(tcdm.base, tcdm.size)
    hx = allocator.alloc_matrix(m, n, "X", fmt=config.format)
    hw = allocator.alloc_matrix(n, k, "W", fmt=config.format)
    hz = allocator.alloc_matrix(m, k, "Z", fmt=config.format)
    job = MatmulJob.from_handles(hx, hw, hz, accumulate=accumulate)
    return engine, job, (hx, hw, hz)


def simulate_engine_timing(
    key: Tuple[int, ...],
    m: int,
    n: int,
    k: int,
    accumulate: bool,
    *,
    max_cycles: Optional[int] = None,
    arithmetic: str = DEFAULT_BACKEND,
) -> TimingRecord:
    """Run one shape through the cycle-accurate engine and record its timing.

    ``arithmetic`` names the vector-ops backend to simulate with.  The
    choice never changes the record (timing is arithmetic-independent), only
    the wall-clock cost of producing it.  ``"trace"`` engines reuse the
    per-process shared trace store of the configuration, so repeated worker
    invocations in one pool process replay schedules recorded by earlier
    keys.
    """
    engine, job, _ = _build_job(key, m, n, k, accumulate, arithmetic)
    result = engine.run_job(job, max_cycles=max_cycles)
    ideal = -(-job.total_macs // engine.config.ideal_macs_per_cycle)
    return TimingRecord(
        cycles=result.cycles,
        stall_cycles=result.stall_cycles,
        active_cycles=result.active_cycles,
        total_macs=result.total_macs,
        issued_macs=result.issued_macs,
        n_tiles=result.n_tiles,
        peak_macs_per_cycle=result.peak_macs_per_cycle,
        ideal_cycles=ideal,
        backend=BACKEND_ENGINE,
    )


def estimate_model_timing(
    key: Tuple[int, ...],
    m: int,
    n: int,
    k: int,
    accumulate: bool,
) -> TimingRecord:
    """Estimate one shape with the analytical model (inline, no process hop)."""
    return model_timing_record(RedMulEPerfModel(config_from_key(key)),
                               m, n, k, accumulate)


def model_timing_record(model: RedMulEPerfModel, m: int, n: int, k: int,
                        accumulate: bool) -> TimingRecord:
    """The model record of one shape on ``model``'s configuration.

    Callers timing many shapes of one configuration share one model, so
    the configuration's derived geometry is computed once.
    """
    config = model.config
    job = MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=m, n=n, k=k,
                    accumulate=accumulate,
                    element_bytes=config.element_bytes)
    estimate = model.estimate(job)
    return TimingRecord(
        cycles=estimate.cycles,
        stall_cycles=estimate.overhead_cycles,
        active_cycles=estimate.cycles - estimate.overhead_cycles,
        total_macs=estimate.total_macs,
        issued_macs=0,
        n_tiles=estimate.n_tiles,
        peak_macs_per_cycle=config.ideal_macs_per_cycle,
        ideal_cycles=estimate.ideal_cycles,
        backend=BACKEND_MODEL,
    )


def simulate_key(timing_key: TimingKey,
                 max_cycles: Optional[int] = None,
                 arithmetic: str = DEFAULT_BACKEND) -> TimingRecord:
    """Dispatch a cache key to the backend it names (pool entry point)."""
    if timing_key.backend == BACKEND_ENGINE:
        return simulate_engine_timing(
            timing_key.config, timing_key.m, timing_key.n, timing_key.k,
            timing_key.accumulate, max_cycles=max_cycles,
            arithmetic=arithmetic,
        )
    if timing_key.backend == BACKEND_MODEL:
        return estimate_model_timing(
            timing_key.config, timing_key.m, timing_key.n, timing_key.k,
            timing_key.accumulate,
        )
    raise ValueError(f"unknown backend {timing_key.backend!r}")


def run_functional_job(
    key: Tuple[int, ...],
    m: int,
    n: int,
    k: int,
    accumulate: bool,
    arithmetic: str,
    seed: int = 0,
) -> Tuple[int, bytes]:
    """Run one randomly seeded job end to end on a named arithmetic backend.

    Returns ``(cycles, z_image)`` where ``z_image`` is the raw byte image of
    the result matrix left in the TCDM -- the payload the farm's backend
    cross-validation compares bit for bit between two arithmetic backends.
    """
    from repro.fp.vector import random_matrix

    engine, job, (hx, hw, hz) = _build_job(key, m, n, k, accumulate, arithmetic)
    fmt = engine.config.format
    tcdm = engine.tcdm
    hx.store(tcdm, random_matrix(m, n, fmt, scale=0.25, seed=seed))
    hw.store(tcdm, random_matrix(n, k, fmt, scale=0.25, seed=seed + 1))
    if accumulate:
        hz.store(tcdm, random_matrix(m, k, fmt, scale=0.25, seed=seed + 2))
    result = engine.run_job(job)
    return result.cycles, tcdm.dump_image(
        hz.base, m * k * engine.config.element_bytes
    )
