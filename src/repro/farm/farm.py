"""Batched simulation farm with a shape-keyed timing cache.

The paper's sweeps (Fig. 3c/3d, Fig. 4a, the autoencoder training/batching
studies) each time dozens of matmul jobs, and many of those jobs share a
shape.  Running them one ``RedMulE`` invocation at a time wastes almost all
of the wall clock on repeated identical simulations.  The farm turns job
execution into a batch-level service:

* **batching** -- :meth:`SimulationFarm.run` accepts a whole list of jobs,
  deduplicates them by timing key, and returns per-job results in order;
* **caching** -- distinct shapes are simulated once and memoised in a
  :class:`~repro.farm.cache.TimingCache` (hit/miss statistics included);
* **parallelism** -- cache misses on the cycle-accurate backend are fanned
  out over a ``concurrent.futures`` process pool, with a transparent serial
  fallback when a pool cannot be created (or is not worth creating);
* **backend auto-selection** -- each request is routed to the cycle-accurate
  engine (small jobs: exact timing) or the validated analytical model (large
  jobs: closed form) unless the caller forces a backend;
* **validation** -- in validation mode every engine-simulated shape is also
  estimated with the model and the two must agree within a stated tolerance,
  continuously re-validating the model against the ground truth.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import active as _telemetry_active

from repro.farm.cache import (
    BACKEND_ENGINE,
    BACKEND_MODEL,
    TimingCache,
    TimingKey,
    TimingRecord,
    config_key,
)
from repro.farm.workers import (
    model_timing_record,
    run_functional_job,
    simulate_key,
)
from repro.redmule.config import RedMulEConfig
from repro.redmule.job import MatmulJob
from repro.redmule.perf_model import RedMulEPerfModel
from repro.redmule.trace import shared_trace_store, trace_tag
from repro.redmule.vector_ops import (
    DEFAULT_BACKEND,
    backend_schedule_compiled,
    validate_backend_name,
)
from repro.workloads.gemm import GemmShape, WorkloadTiming

#: Backend *policy* name routing every job to the analytical model.  Unlike
#: the per-record ``BACKEND_MODEL`` tag it is a farm/request-level policy:
#: records produced under it are cached as ordinary model records, so
#: analytic sweeps, the graph/serve layers and persisted cache files all
#: share one timing vocabulary.
POLICY_ANALYTIC = "analytic"

#: Jobs at or below this many MACs default to the cycle-accurate engine.
DEFAULT_ENGINE_MACS_THRESHOLD = 1 << 18

#: Engine misses below this count are not worth a process pool round-trip.
MIN_JOBS_FOR_POOL = 2

#: Relative cycle disagreement tolerated in validation mode (the engine
#: validation benchmark holds the model within 5 % on every tracked shape).
DEFAULT_VALIDATION_TOLERANCE = 0.05


class FarmValidationError(AssertionError):
    """Engine and model disagreed beyond the farm's validation tolerance."""


class PoolUnavailableError(Exception):
    """The process pool could not be created or its workers died.

    Raised internally to separate pool *infrastructure* failures (which
    trigger the serial fallback) from exceptions raised by the simulation
    itself (which must propagate to the caller).
    """


@dataclass(frozen=True)
class BackendValidationReport:
    """Outcome of one arithmetic-backend cross-check (bit-level)."""

    m: int
    n: int
    k: int
    accumulate: bool
    reference: str
    candidate: str
    reference_cycles: int
    candidate_cycles: int
    bitwise_match: bool

    @property
    def ok(self) -> bool:
        """True when cycles and TCDM contents agree exactly."""
        return self.bitwise_match and self.reference_cycles == self.candidate_cycles


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one engine-vs-model cross-check."""

    key: TimingKey
    engine_cycles: int
    model_cycles: int
    tolerance: float

    @property
    def relative_error(self) -> float:
        """Model error relative to the engine's measured cycles."""
        return abs(self.model_cycles - self.engine_cycles) / self.engine_cycles

    @property
    def within_tolerance(self) -> bool:
        """True when the two backends agree within the stated tolerance."""
        return self.relative_error <= self.tolerance


@dataclass
class FarmStats:
    """Aggregate accounting of everything the farm has executed."""

    jobs: int = 0
    engine_runs: int = 0
    model_runs: int = 0
    validations: int = 0
    backend_validations: int = 0
    batches: int = 0
    pool_batches: int = 0
    pool_failures: int = 0

    def snapshot(self) -> Dict[str, int]:
        """JSON-ready copy of every counter (for ``--metrics-out``)."""
        return asdict(self)

    def reset(self) -> None:
        """Zero every counter (the farm itself is untouched)."""
        for field in fields(self):
            setattr(self, field.name, 0)


@dataclass(frozen=True)
class FarmResult:
    """Per-job outcome: the job, its timing record, and cache provenance.

    The timing metrics of the underlying :class:`~repro.farm.cache.
    TimingRecord` are re-exposed so experiment code can consume a
    ``FarmResult`` exactly like a ``RedMulEResult`` or ``PerfEstimate``.
    """

    job: MatmulJob
    record: TimingRecord
    cache_hit: bool

    # -- delegated metrics ---------------------------------------------------
    @property
    def backend(self) -> str:
        """Backend that produced the record ("engine" or "model")."""
        return self.record.backend

    @property
    def cycles(self) -> int:
        """Total cycles of the job."""
        return self.record.cycles

    @property
    def stall_cycles(self) -> int:
        """Datapath stall cycles (engine) / overhead cycles (model)."""
        return self.record.stall_cycles

    @property
    def total_macs(self) -> int:
        """Useful MACs of the job."""
        return self.record.total_macs

    @property
    def n_tiles(self) -> int:
        """Number of tiles the job was split into."""
        return self.record.n_tiles

    @property
    def ideal_cycles(self) -> int:
        """Ideal-machine lower bound on the cycle count."""
        return self.record.ideal_cycles

    @property
    def macs_per_cycle(self) -> float:
        """Useful MAC throughput."""
        return self.record.macs_per_cycle

    @property
    def utilisation(self) -> float:
        """Fraction of the array's peak throughput achieved."""
        return self.record.utilisation

    @property
    def fraction_of_ideal(self) -> float:
        """Ideal cycles over measured cycles (Fig. 4a metric)."""
        return self.record.fraction_of_ideal

    def runtime_s(self, frequency_hz: float) -> float:
        """Wall-clock runtime at a clock frequency."""
        return self.record.runtime_s(frequency_hz)

    def throughput_gmacs(self, frequency_hz: float) -> float:
        """Throughput in GMAC/s at a clock frequency."""
        return self.record.throughput_gmacs(frequency_hz)

    def throughput_gflops(self, frequency_hz: float) -> float:
        """Throughput in GFLOPS at a clock frequency."""
        return self.record.throughput_gflops(frequency_hz)

    def summary(self) -> str:
        """One-line human-readable summary."""
        tag = "hit" if self.cache_hit else self.backend
        return (
            f"{self.job.describe()}: {self.cycles} cycles "
            f"({self.macs_per_cycle:.2f} MAC/cycle, {tag})"
        )


class SimulationFarm:
    """Batched, cached, optionally parallel matmul-job simulation service.

    Parameters
    ----------
    config:
        Architectural configuration of the simulated instances (the paper's
        reference instance when omitted).
    arithmetic:
        Vector-ops backend the engine simulates with: ``"exact-simd"`` (the
        default), the scalar oracle ``"exact"`` or the schedule-compiling
        ``"trace"``.  Timing records do not depend on it, so it is not part
        of the cache key.  ``"trace"`` engines share one per-process trace
        store per configuration, so worker processes and repeated batches
        replay schedules recorded earlier (see :meth:`save_cache` for
        cross-process persistence).
    backend:
        ``"auto"`` (default) routes each job by size, ``"engine"`` or
        ``"model"`` forces one backend for every request; ``"analytic"``
        is the design-space-exploration policy: every job is served by the
        closed-form model (cached as ordinary model records) and the farm
        never spins up a process pool.
    engine_macs_threshold:
        Auto mode sends jobs with at most this many MACs to the
        cycle-accurate engine and the rest to the analytical model.
    max_workers:
        Process-pool width for engine misses (default: CPU count, capped at
        8).  ``1`` disables the pool entirely.
    validate:
        Cross-check every engine-simulated shape against the model and raise
        :class:`FarmValidationError` when they disagree beyond ``tolerance``.
    tolerance:
        Relative cycle disagreement accepted in validation mode.
    cache:
        Share a :class:`TimingCache` between farms (a private unbounded cache
        is created when omitted).
    max_cycles:
        Optional watchdog forwarded to the engine backend.
    """

    def __init__(
        self,
        config: Optional[RedMulEConfig] = None,
        backend: str = "auto",
        engine_macs_threshold: int = DEFAULT_ENGINE_MACS_THRESHOLD,
        max_workers: Optional[int] = None,
        validate: bool = False,
        tolerance: float = DEFAULT_VALIDATION_TOLERANCE,
        cache: Optional[TimingCache] = None,
        max_cycles: Optional[int] = None,
        arithmetic: str = DEFAULT_BACKEND,
    ) -> None:
        if backend not in ("auto", BACKEND_ENGINE, BACKEND_MODEL,
                           POLICY_ANALYTIC):
            raise ValueError(
                f"backend must be 'auto', '{BACKEND_ENGINE}', "
                f"'{BACKEND_MODEL}' or '{POLICY_ANALYTIC}', got {backend!r}"
            )
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.config = config if config is not None else RedMulEConfig.reference()
        self.arithmetic = validate_backend_name(arithmetic)
        self.backend = backend
        self.engine_macs_threshold = engine_macs_threshold
        if max_workers is None:
            max_workers = min(os.cpu_count() or 1, 8)
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.validate = validate
        self.tolerance = tolerance
        self.cache = cache if cache is not None else TimingCache()
        self.max_cycles = max_cycles
        self.stats = FarmStats()
        #: Reports of every cross-check performed in validation mode.
        self.validation_reports: List[ValidationReport] = []
        # Lazily-created process pool, reused across batches; set to
        # unavailable after the first failure so later batches skip the
        # doomed creation attempt and go straight to the serial path.
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._pool_unavailable = False
        # Derived farms per element format (lazily created, cache shared):
        # the timing cache keys on the *farm config's* format, so jobs of a
        # per-node precision override must be timed by a farm of that
        # format.  See with_format().
        self._format_farms: Dict[str, SimulationFarm] = {}

    # -- backend routing -----------------------------------------------------
    def resolve_backend(self, job: MatmulJob,
                        backend: Optional[str] = None) -> str:
        """Pick the backend for one job (caller override > farm policy)."""
        choice = backend or self.backend
        if choice == POLICY_ANALYTIC:
            return BACKEND_MODEL
        if choice != "auto":
            return choice
        if job.total_macs <= self.engine_macs_threshold:
            return BACKEND_ENGINE
        return BACKEND_MODEL

    def _key(self, job: MatmulJob, backend: str) -> TimingKey:
        return TimingKey.for_job(self.config, job, backend)

    def with_format(self, fmt: str) -> "SimulationFarm":
        """A farm timing the same instance at a different element format.

        Timing keys embed the farm config's format (FP8's packed line
        geometry changes every cycle count), so jobs lowered under a
        per-node precision override cannot be timed by this farm directly.
        The derived farm shares this farm's :class:`TimingCache` (format
        disambiguation happens in the key) and policy knobs; it is created
        once per format and memoised, and runs serially -- the per-node
        overrides time skinny decode GEMMs for which a process pool would
        be pure overhead.  Returns ``self`` when ``fmt`` is already this
        farm's format.
        """
        if fmt == self.config.format:
            return self
        derived = self._format_farms.get(fmt)
        if derived is None:
            derived = SimulationFarm(
                config=replace(self.config, format=fmt),
                backend=self.backend,
                engine_macs_threshold=self.engine_macs_threshold,
                max_workers=1,
                validate=self.validate,
                tolerance=self.tolerance,
                cache=self.cache,
                max_cycles=self.max_cycles,
                arithmetic=self.arithmetic,
            )
            self._format_farms[fmt] = derived
        return derived

    # -- batch execution -----------------------------------------------------
    def run(self, jobs: Iterable[MatmulJob],
            backend: Optional[str] = None) -> List[FarmResult]:
        """Simulate a batch of jobs; results come back in submission order.

        Every job is first looked up in the timing cache; the distinct
        missing keys are simulated (engine misses in parallel when a pool is
        available and worthwhile) and memoised before the per-job results are
        assembled.
        """
        jobs = list(jobs)
        self.stats.batches += 1
        self.stats.jobs += len(jobs)
        # Farm batches are coarse-grained (one span per batch, not per
        # job), so the telemetry is looked up per call rather than pinned
        # at construction; the disabled path stays one attribute check.
        obs = _telemetry_active()
        batch_start = obs.now() if obs.enabled else 0.0

        keys = [self._key(job, self.resolve_backend(job, backend))
                for job in jobs]
        # One cache lookup per *distinct* key; batch-internal repeats of a
        # shape count as cache hits (once the batch completes they are
        # served from the memoised record, never from a simulation), so the
        # per-result flags and the cache statistics tell the same story.
        known: Dict[TimingKey, Optional[TimingRecord]] = {}
        hit_flags: List[bool] = []
        for key in keys:
            if key in known:
                hit_flags.append(True)
                self.cache.stats.hits += 1
            else:
                known[key] = self.cache.lookup(key)
                hit_flags.append(known[key] is not None)

        missing = [key for key, record in known.items() if record is None]
        known.update(self._simulate_missing(missing))

        results: List[FarmResult] = []
        for job, key, hit in zip(jobs, keys, hit_flags):
            record = known[key]
            assert record is not None  # every miss was just simulated
            results.append(FarmResult(job=job, record=record, cache_hit=hit))
        if obs.enabled:
            hits = sum(hit_flags)
            engine_misses = sum(1 for key in missing
                                if key.backend == BACKEND_ENGINE)
            obs.complete_span(
                "farm.batch", batch_start, obs.now(), track="farm",
                lane="batches", cat="farm", jobs=len(jobs),
                distinct=len(known), cache_hits=hits,
                cache_misses=len(jobs) - hits,
                engine_misses=engine_misses,
                model_misses=len(missing) - engine_misses)
            obs.count("farm.batches")
            obs.count("farm.jobs", len(jobs))
            obs.count("farm.cache_hits", hits)
            obs.count("farm.cache_misses", len(jobs) - hits)
        return results

    def run_job(self, job: MatmulJob,
                backend: Optional[str] = None) -> FarmResult:
        """Simulate a single job through the batch path."""
        return self.run([job], backend=backend)[0]

    def run_gemm(self, m: int, n: int, k: int, accumulate: bool = False,
                 backend: Optional[str] = None) -> FarmResult:
        """Simulate a dense GEMM of the given shape (canonical placement)."""
        job = MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=m, n=n, k=k,
                        accumulate=accumulate,
                        element_bytes=self.config.element_bytes)
        return self.run_job(job, backend=backend)

    def run_shapes(self, shapes: Sequence[GemmShape],
                   backend: Optional[str] = None) -> List[FarmResult]:
        """Simulate a list of :class:`GemmShape` descriptors in order."""
        jobs = [
            MatmulJob(x_addr=0, w_addr=0, z_addr=0,
                      m=shape.m, n=shape.n, k=shape.k,
                      element_bytes=self.config.element_bytes)
            for shape in shapes
        ]
        return self.run(jobs, backend=backend)

    # -- model-backed conveniences (drop-in for RedMulEPerfModel) ------------
    def estimate(self, job: MatmulJob) -> FarmResult:
        """Analytical estimate of one job, served through the cache.

        Always uses the model backend, so sweeps migrated from
        ``RedMulEPerfModel.estimate`` keep byte-identical numbers.
        """
        return self.run_job(job, backend=BACKEND_MODEL)

    def estimate_gemm(self, m: int, n: int, k: int) -> FarmResult:
        """Analytical estimate of a dense GEMM shape (cached)."""
        return self.run_gemm(m, n, k, backend=BACKEND_MODEL)

    def time_workload(
        self,
        shapes: Iterable[GemmShape],
        offload_cycles_per_job: float = 0.0,
        backend: str = BACKEND_MODEL,
    ) -> WorkloadTiming:
        """Time a multi-GEMM workload (drop-in for ``time_workload_hw``).

        The model backend (the default -- ``None`` is normalised to it, so
        the serial-path parity guarantee cannot be lost by threading an
        optional through) reproduces the pre-farm path exactly; repeated
        layer shapes inside the workload hit the cache.  Pass ``"auto"`` or
        ``"engine"`` explicitly to time through the cycle-accurate engine.
        """
        backend = backend or BACKEND_MODEL
        shapes = list(shapes)
        results = self.run_shapes(shapes, backend=backend)
        per_gemm: Dict[str, float] = {}
        total_cycles = 0.0
        total_macs = 0
        for shape, result in zip(shapes, results):
            cycles = result.cycles + offload_cycles_per_job
            per_gemm[shape.name] = cycles
            total_cycles += cycles
            total_macs += shape.macs
        return WorkloadTiming(target="redmule", cycles=total_cycles,
                              macs=total_macs, per_gemm=per_gemm)

    def time_program(
        self,
        program,
        offload_cycles_per_job: float = 0.0,
        backend: Optional[str] = None,
    ) -> WorkloadTiming:
        """Serially time a lowered graph program (one batched ``run()`` call).

        ``program`` is a :class:`~repro.graph.lower.LoweredProgram` (duck
        typed -- anything with ``nodes`` carrying ``jobs`` works).  Every
        accelerator job of every node goes through the farm in a single
        batch; the returned timing sums the node costs as if one cluster
        executed the program back to back, which is the serial reference the
        serving scheduler's single-cluster makespan must reproduce.
        ``per_gemm`` is keyed by *node* name (a tiled node's jobs are
        aggregated).

        Mixed-precision programs (nodes carrying a ``precision`` differing
        from this farm's format, see
        :func:`repro.graph.precision.assign_precisions`) are handled by
        routing each node's jobs through :meth:`with_format` of its
        effective format, so every job is timed on the line geometry it was
        lowered for while all records land in the one shared cache.
        """
        jobs = [(node.name, getattr(node, "precision", None), job)
                for node in program.nodes for job in node.jobs]
        overrides = {precision for _, precision, _ in jobs
                     if precision and precision != self.config.format}
        if not overrides:
            results = self.run([job for _, _, job in jobs], backend=backend)
        else:
            # One batched run() per distinct format, results stitched back
            # into submission order so the serial-sum semantics (and the
            # conservation law built on them) are unchanged.
            by_format: Dict[Optional[str], List[int]] = {}
            for index, (_, precision, _) in enumerate(jobs):
                fmt = (precision if precision in overrides else None)
                by_format.setdefault(fmt, []).append(index)
            results: List[Optional[FarmResult]] = [None] * len(jobs)
            for fmt, indices in by_format.items():
                farm = self if fmt is None else self.with_format(fmt)
                batch = farm.run([jobs[i][2] for i in indices],
                                 backend=backend)
                for i, result in zip(indices, batch):
                    results[i] = result
        per_node: Dict[str, float] = {}
        total_cycles = 0.0
        total_macs = 0
        for (name, _, job), result in zip(jobs, results):
            cycles = result.cycles + offload_cycles_per_job
            per_node[name] = per_node.get(name, 0.0) + cycles
            total_cycles += cycles
            total_macs += job.total_macs
        return WorkloadTiming(target="redmule", cycles=total_cycles,
                              macs=total_macs, per_gemm=per_node)

    # -- miss simulation -----------------------------------------------------
    def _simulate_missing(
        self, keys: List[TimingKey]
    ) -> Dict[TimingKey, TimingRecord]:
        """Simulate every distinct missing key, preferring the process pool."""
        engine_keys = [key for key in keys if key.backend == BACKEND_ENGINE]
        model_keys = [key for key in keys if key.backend != BACKEND_ENGINE]

        records: Dict[TimingKey, TimingRecord] = {}
        # Model estimates are closed-form and cheaper than any pickling.
        # Every key this farm builds carries config_key(self.config), so
        # one model of the farm's own config serves them all.
        model = RedMulEPerfModel(self.config)
        for key in model_keys:
            if key.backend == BACKEND_MODEL:
                records[key] = model_timing_record(model, key.m, key.n,
                                                   key.k, key.accumulate)
            else:
                records[key] = simulate_key(key)  # rejects the unknown name
            self.stats.model_runs += 1

        if engine_keys:
            records.update(self._simulate_engine_keys(engine_keys))
            self.stats.engine_runs += len(engine_keys)
        # Memoise before cross-checking: the engine records are ground truth
        # either way, and a validation failure must not throw away a batch
        # of expensive simulations (a retry would redo all of them).
        for key, record in records.items():
            self.cache.store(key, record)
        if self.validate and engine_keys:
            self._cross_check(engine_keys, records)
        return records

    def _simulate_engine_keys(
        self, keys: List[TimingKey]
    ) -> Dict[TimingKey, TimingRecord]:
        if (len(keys) >= MIN_JOBS_FOR_POOL and self.max_workers > 1
                and not self._pool_unavailable):
            try:
                return self._simulate_with_pool(keys)
            except PoolUnavailableError:
                # No usable pool on this host (sandbox, missing /dev/shm,
                # exhausted fds, ...): degrade to the serial path and stop
                # re-attempting pool creation on later batches.
                self.stats.pool_failures += 1
                self._pool_unavailable = True
                self._close_pool()
        return {key: simulate_key(key, self.max_cycles, self.arithmetic)
                for key in keys}

    def _simulate_with_pool(
        self, keys: List[TimingKey]
    ) -> Dict[TimingKey, TimingRecord]:
        # One pool per farm lifetime: worker-process spawn and module import
        # would otherwise dominate small batches submitted in a loop.
        with _telemetry_active().span(
                "farm.pool_dispatch", cat="farm", track="farm", lane="pool",
                keys=len(keys), workers=self.max_workers):
            try:
                if self._pool is None:
                    self._pool = concurrent.futures.ProcessPoolExecutor(
                        max_workers=self.max_workers
                    )
                futures = {
                    key: self._pool.submit(
                        simulate_key, key, self.max_cycles, self.arithmetic
                    )
                    for key in keys
                }
            except (OSError, ValueError) as error:
                raise PoolUnavailableError(str(error)) from error
            try:
                records = {key: future.result()
                           for key, future in futures.items()}
            except concurrent.futures.BrokenExecutor as error:
                # Workers died (covers BrokenProcessPool); simulation
                # exceptions raised *inside* a worker propagate to the
                # caller unchanged.
                raise PoolUnavailableError(str(error)) from error
            self.stats.pool_batches += 1
            return records

    def _close_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Release the worker pool.

        The farm stays usable afterwards: a later batch that warrants
        parallelism lazily re-creates the pool.
        """
        self._close_pool()

    def __enter__(self) -> "SimulationFarm":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self._close_pool()
        except Exception:  # pragma: no cover - interpreter-shutdown races
            pass

    # -- cache persistence ---------------------------------------------------
    def save_cache(self, path) -> int:
        """Persist the timing cache to a JSON file; returns the entry count.

        Together with :meth:`load_cache` this lets repeated benchmark
        invocations reuse timing across processes: the records are
        deterministic per (configuration, shape, backend), so a reloaded
        entry is indistinguishable from a fresh simulation.  On a
        schedule-compiled farm (``arithmetic="trace"``) the recorded engine
        schedule traces of this configuration ride along in the file's
        ``traces`` side-table, so a later process starts replay-warm.
        """
        self._export_traces()
        count = self.cache.save(path)
        obs = _telemetry_active()
        if obs.enabled:
            obs.instant("farm.cache_save", track="farm", lane="cache",
                        cat="farm", path=str(path), entries=count)
            obs.count("farm.cache_saves")
        return count

    def load_cache(self, path, merge: bool = True) -> int:
        """Load a persisted timing cache (see :meth:`TimingCache.load`).

        Trace payloads found in the file are merged into the process-wide
        trace store of this farm's configuration when the farm's arithmetic
        is schedule-compiled.
        """
        loaded = self.cache.load(path, merge=merge)
        self._import_traces()
        obs = _telemetry_active()
        if obs.enabled:
            obs.instant("farm.cache_load", track="farm", lane="cache",
                        cat="farm", path=str(path), entries=loaded)
            obs.count("farm.cache_loads")
        return loaded

    def _export_traces(self) -> None:
        """Snapshot this config's shared trace store into the cache payload."""
        if not backend_schedule_compiled(self.arithmetic):
            return
        store = shared_trace_store(self.config)
        if len(store):
            self.cache.traces[trace_tag(self.config)] = store.to_payload()

    def _import_traces(self) -> None:
        """Merge loaded trace payloads into this config's shared store."""
        if not backend_schedule_compiled(self.arithmetic):
            return
        payload = self.cache.traces.get(trace_tag(self.config))
        if payload:
            shared_trace_store(self.config).merge_payload(payload)

    # -- validation ----------------------------------------------------------
    def validate_backends(
        self,
        shapes: Sequence[GemmShape],
        reference: str = "exact",
        candidate: str = "exact-simd",
        accumulate: bool = False,
        seed: int = 0,
        raise_on_mismatch: bool = True,
    ) -> List[BackendValidationReport]:
        """Cross-check two arithmetic backends bit for bit on real data.

        Every shape is run end to end on the cycle-accurate engine under both
        backends with identical random operands; the TCDM result images and
        cycle counts must agree exactly.  This is the functional counterpart
        of the engine-vs-model timing validation: it continuously re-proves
        that the vectorised bit-exact backend matches the scalar oracle.
        """
        for name in (reference, candidate):
            validate_backend_name(name)
        key = config_key(self.config)
        reports: List[BackendValidationReport] = []
        for shape in shapes:
            m, n, k = (
                (shape.m, shape.n, shape.k) if hasattr(shape, "m") else shape
            )
            ref_cycles, ref_bits = run_functional_job(
                key, m, n, k, accumulate, reference, seed
            )
            cand_cycles, cand_bits = run_functional_job(
                key, m, n, k, accumulate, candidate, seed
            )
            report = BackendValidationReport(
                m=m, n=n, k=k, accumulate=accumulate,
                reference=reference, candidate=candidate,
                reference_cycles=ref_cycles, candidate_cycles=cand_cycles,
                bitwise_match=ref_bits == cand_bits,
            )
            reports.append(report)
            self.stats.backend_validations += 1
            if raise_on_mismatch and not report.ok:
                raise FarmValidationError(
                    f"arithmetic backends disagree on shape {m}x{n}x{k}: "
                    f"{reference} ({report.reference_cycles} cycles) vs "
                    f"{candidate} ({report.candidate_cycles} cycles, bitwise "
                    f"match: {report.bitwise_match})"
                )
        return reports

    def _cross_check(self, engine_keys: List[TimingKey],
                     records: Dict[TimingKey, TimingRecord]) -> None:
        for key in engine_keys:
            model_key = TimingKey(
                config=key.config, m=key.m, n=key.n, k=key.k,
                accumulate=key.accumulate, backend=BACKEND_MODEL,
            )
            model_record = self.cache.peek(model_key)
            if model_record is None:
                model_record = simulate_key(model_key)
                self.stats.model_runs += 1
                self.cache.store(model_key, model_record)
            report = ValidationReport(
                key=key,
                engine_cycles=records[key].cycles,
                model_cycles=model_record.cycles,
                tolerance=self.tolerance,
            )
            self.validation_reports.append(report)
            self.stats.validations += 1
            if not report.within_tolerance:
                raise FarmValidationError(
                    "engine/model cycle mismatch for shape "
                    f"{key.m}x{key.n}x{key.k} (accumulate={key.accumulate}): "
                    f"engine {report.engine_cycles} vs model "
                    f"{report.model_cycles} "
                    f"({100 * report.relative_error:.2f}% > "
                    f"{100 * report.tolerance:.2f}%)"
                )

    # -- reporting -----------------------------------------------------------
    def describe(self) -> str:
        """Multi-line summary of configuration, cache and run statistics."""
        stats = self.stats
        lines = [
            f"simulation farm: {self.config.describe()}",
            f"  backend policy : {self.backend} "
            f"(engine up to {self.engine_macs_threshold} MACs, "
            f"{self.arithmetic} arithmetic)",
            f"  workers        : {self.max_workers} "
            f"({stats.pool_batches} pooled batches, "
            f"{stats.pool_failures} pool fallbacks)",
            f"  jobs served    : {stats.jobs} in {stats.batches} batches "
            f"({stats.engine_runs} engine runs, {stats.model_runs} model runs)",
            "  validation     : "
            + (f"{stats.validations} cross-checks at {self.tolerance:.0%}"
               if self.validate else "off")
            + (f", {stats.backend_validations} backend bit-checks"
               if stats.backend_validations else ""),
            f"  {self.cache.describe()}",
        ]
        return "\n".join(lines)


# -- shared default farms ----------------------------------------------------
_DEFAULT_FARMS: Dict[Tuple[Tuple[int, int, int, int, int, str], str],
                     SimulationFarm] = {}

#: Arithmetic backend newly created default farms use.
_DEFAULT_ARITHMETIC: str = DEFAULT_BACKEND

#: Element format default farms are created with when no config is passed.
_DEFAULT_FORMAT: Optional[str] = None


def set_default_arithmetic(arithmetic: Optional[str]) -> None:
    """Set the arithmetic backend future default farms are created with.

    This is how the runner CLI's ``--backend`` choice reaches the experiment
    drivers, which fetch their farms through :func:`default_farm`.  Pass
    ``None`` to restore ``exact-simd``.
    """
    global _DEFAULT_ARITHMETIC
    _DEFAULT_ARITHMETIC = validate_backend_name(arithmetic or DEFAULT_BACKEND)


def set_default_format(fmt: Optional[str]) -> None:
    """Set the element format configless default farms are created with.

    This is how the runner CLI's ``--format`` choice reaches the experiment
    drivers: a driver asking for the reference instance gets it in the
    requested precision.  Pass ``None`` to restore FP16.
    """
    if fmt is not None:
        from repro.fp.formats import get_format

        get_format(fmt)
    global _DEFAULT_FORMAT
    _DEFAULT_FORMAT = fmt


def default_farm(config: Optional[RedMulEConfig] = None,
                 arithmetic: Optional[str] = None) -> SimulationFarm:
    """Process-wide shared farm for a configuration.

    The experiment drivers all fetch their farm here, so a full
    ``run_all()`` shares one timing cache across every figure (the Fig. 3c,
    3d and 4a sweeps reuse the same square shapes, as do the Table I rows).
    """
    if config is None:
        config = RedMulEConfig.reference()
        if _DEFAULT_FORMAT is not None:
            config = replace(config, format=_DEFAULT_FORMAT)
    arithmetic = arithmetic or _DEFAULT_ARITHMETIC
    key = (config_key(config), arithmetic)
    farm = _DEFAULT_FARMS.get(key)
    if farm is None:
        farm = SimulationFarm(config=config, arithmetic=arithmetic)
        _DEFAULT_FARMS[key] = farm
    return farm


def reset_default_farms() -> None:
    """Drop every shared farm (mainly for test isolation)."""
    _DEFAULT_FARMS.clear()


def farm_for_config(config: RedMulEConfig,
                    farm: Optional[SimulationFarm] = None) -> SimulationFarm:
    """Resolve the farm an experiment driver should time its jobs on.

    Returns the shared default farm for ``config`` when ``farm`` is omitted;
    an explicitly-passed farm must simulate the same configuration, otherwise
    the caller would silently combine timing from one instance with
    energy/area models of another.
    """
    if farm is None:
        return default_farm(config)
    if farm.config != config:
        raise ValueError(
            f"farm/config mismatch: farm simulates {farm.config.describe()} "
            f"but the experiment models {config.describe()}"
        )
    return farm
