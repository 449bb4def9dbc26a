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
* **one miss path** -- the distinct misses of a batch are timed one after
  another in the calling process, so the engine misses of a process share
  one trace store per configuration: a miss replays any tile schedule that
  an earlier miss recorded;
* **backend auto-selection** -- each request is routed to the cycle-accurate
  engine (small jobs: exact timing) or the validated analytical model (large
  jobs: closed form) unless the caller forces a backend.
"""

from __future__ import annotations

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
from repro.farm.workers import model_timing_record, simulate_key
from repro.redmule.config import RedMulEConfig
from repro.redmule.job import MatmulJob
from repro.redmule.perf_model import RedMulEPerfModel
from repro.workloads.gemm import GemmShape, WorkloadTiming

#: The ``"auto"`` policy sends jobs of at most this many MACs to the
#: cycle-accurate engine and larger ones to the analytical model.
DEFAULT_ENGINE_MACS_THRESHOLD = 1 << 18


@dataclass
class FarmStats:
    """Aggregate accounting of everything the farm has executed."""

    jobs: int = 0
    engine_runs: int = 0
    model_runs: int = 0
    batches: int = 0

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
    """Batched, cached matmul-job simulation service.

    Parameters
    ----------
    config:
        Architectural configuration of the simulated instances (the paper's
        reference instance when omitted).
    backend:
        ``"auto"`` (default) routes each job by size
        (:data:`DEFAULT_ENGINE_MACS_THRESHOLD`), ``"engine"`` or ``"model"``
        forces one backend for every request.  ``"model"`` is the
        design-space-exploration policy: every job is served by the
        closed-form model.
    cache:
        Share a :class:`TimingCache` between farms (a private unbounded cache
        is created when omitted).
    max_workers:
        Only ``None`` or ``1`` is accepted, because the farm is serial; any
        other value raises :class:`ValueError`.  The value is not stored.

    Misses are timed one after another in the calling process.  Engine
    misses run on the ``"trace"`` arithmetic backend: the cycle schedule
    does not depend on operand values, so every backend yields the same
    record and ``"trace"`` is the cheapest.  Its engines share one trace
    store per configuration and process, so a miss replays any tile
    schedule that an earlier miss recorded.  Traces are never persisted.
    A farm holds no process state, so it pickles with its cache.
    """

    def __init__(
        self,
        config: Optional[RedMulEConfig] = None,
        backend: str = "auto",
        *,
        cache: Optional[TimingCache] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        if backend not in ("auto", BACKEND_ENGINE, BACKEND_MODEL):
            raise ValueError(
                f"backend must be 'auto', '{BACKEND_ENGINE}' or "
                f"'{BACKEND_MODEL}', got {backend!r}"
            )
        if max_workers not in (None, 1):
            raise ValueError(
                f"max_workers must be None or 1 (the farm is serial), "
                f"got {max_workers!r}"
            )
        self.config = config if config is not None else RedMulEConfig.reference()
        # Every timing key of this farm carries the same config tuple.
        self._config_key = config_key(self.config)
        self.backend = backend
        self.cache = cache if cache is not None else TimingCache()
        self.stats = FarmStats()
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
        if choice != "auto":
            return choice
        if job.total_macs <= DEFAULT_ENGINE_MACS_THRESHOLD:
            return BACKEND_ENGINE
        return BACKEND_MODEL

    def with_format(self, fmt: str) -> "SimulationFarm":
        """A farm timing the same instance at a different element format.

        Timing keys embed the farm config's format (FP8's packed line
        geometry changes every cycle count), so jobs lowered under a
        per-node precision override cannot be timed by this farm directly.
        The derived farm shares this farm's :class:`TimingCache` (format
        disambiguation happens in the key) and backend policy; it is
        created once per format and memoised.  Returns ``self`` when
        ``fmt`` is already this farm's format.
        """
        if fmt == self.config.format:
            return self
        derived = self._format_farms.get(fmt)
        if derived is None:
            derived = SimulationFarm(
                config=replace(self.config, format=fmt),
                backend=self.backend,
                cache=self.cache,
            )
            self._format_farms[fmt] = derived
        return derived

    # -- batch execution -----------------------------------------------------
    def run(self, jobs: Iterable[MatmulJob],
            backend: Optional[str] = None) -> List[FarmResult]:
        """Simulate a batch of jobs; results come back in submission order.

        Every job is first looked up in the timing cache; the distinct
        missing keys are simulated and memoised before the per-job results
        are assembled.
        """
        jobs = list(jobs)
        self.stats.batches += 1
        self.stats.jobs += len(jobs)
        # Farm batches are coarse-grained (one span per batch, not per
        # job), so the telemetry is looked up per call rather than pinned
        # at construction; the disabled path stays one attribute check.
        obs = _telemetry_active()
        batch_start = obs.now() if obs.enabled else 0.0

        # Each key equals TimingKey.for_job(self.config, job, ...).  Unless
        # the policy is "auto", every job of the batch gets the same backend.
        choice = backend or self.backend
        config = self._config_key
        if choice == "auto":
            keys = [TimingKey(config, job.m, job.n, job.k, job.accumulate,
                              self.resolve_backend(job, choice))
                    for job in jobs]
        else:
            keys = [TimingKey(config, job.m, job.n, job.k, job.accumulate,
                              choice)
                    for job in jobs]
        # One cache lookup per *distinct* key; batch-internal repeats of a
        # shape count as cache hits (once the batch completes they are
        # served from the memoised record, never from a simulation), so the
        # per-result flags and the cache statistics tell the same story.
        # Each missing key keeps the first batch job that carries it: the
        # model times that job directly instead of rebuilding one.
        known: Dict[TimingKey, Optional[TimingRecord]] = {}
        missing: Dict[TimingKey, MatmulJob] = {}
        hit_flags: List[bool] = []
        for job, key in zip(jobs, keys):
            if key in known:
                hit_flags.append(True)
                self.cache.stats.hits += 1
            else:
                record = known[key] = self.cache.lookup(key)
                hit_flags.append(record is not None)
                if record is None:
                    missing[key] = job

        known.update(self._simulate_missing(missing))

        # The results skip the frozen dataclass's __init__ (one
        # object.__setattr__ per field) and fill the instance __dict__.
        # That builds the same objects only because FarmResult defines no
        # __post_init__.
        new = object.__new__
        results: List[FarmResult] = []
        append = results.append
        for job, key, hit in zip(jobs, keys, hit_flags):
            result = new(FarmResult)
            result_fields = result.__dict__
            result_fields["job"] = job
            result_fields["record"] = known[key]
            result_fields["cache_hit"] = hit
            append(result)
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
        self, missing: Dict[TimingKey, MatmulJob]
    ) -> Dict[TimingKey, TimingRecord]:
        """Time every distinct missing key in this process and memoise it.

        ``missing`` maps each key to a batch job that carries it.
        """
        records: Dict[TimingKey, TimingRecord] = {}
        # Every key this farm builds carries self._config_key, so one model
        # of the farm's own config serves them all.
        model = RedMulEPerfModel(self.config)
        for key, job in missing.items():
            if key.backend == BACKEND_MODEL:
                records[key] = model_timing_record(model, job)
                self.stats.model_runs += 1
        # Engine misses follow the model ones: a batch's entries land in the
        # cache, and in a file saved from it, in that order.
        for key in missing:
            if key.backend != BACKEND_MODEL:
                records[key] = simulate_key(key)  # rejects the unknown name
                self.stats.engine_runs += 1
        for key, record in records.items():
            self.cache.store(key, record)
        return records

    # -- cache persistence ---------------------------------------------------
    def save_cache(self, path) -> int:
        """Persist the timing cache to a JSON file; returns the entry count.

        Together with :meth:`load_cache` this lets repeated benchmark
        invocations reuse timing across processes: the records are
        deterministic per (configuration, shape, backend), so a reloaded
        entry is indistinguishable from a fresh simulation.  The file holds
        timing entries only, no schedule traces.
        """
        count = self.cache.save(path)
        obs = _telemetry_active()
        if obs.enabled:
            obs.instant("farm.cache_save", track="farm", lane="cache",
                        cat="farm", path=str(path), entries=count)
            obs.count("farm.cache_saves")
        return count

    def load_cache(self, path) -> int:
        """Merge a persisted timing cache (see :meth:`TimingCache.load`).

        A reloaded shape is served from its timing entry, so the farm
        never simulates it and records no trace for it.
        """
        loaded = self.cache.load(path)
        obs = _telemetry_active()
        if obs.enabled:
            obs.instant("farm.cache_load", track="farm", lane="cache",
                        cat="farm", path=str(path), entries=loaded)
            obs.count("farm.cache_loads")
        return loaded

    # -- reporting -----------------------------------------------------------
    def describe(self) -> str:
        """Multi-line summary of configuration, cache and run statistics."""
        stats = self.stats
        lines = [
            f"simulation farm: {self.config.describe()}",
            f"  backend policy : {self.backend} "
            f"(engine up to {DEFAULT_ENGINE_MACS_THRESHOLD} MACs)",
            f"  jobs served    : {stats.jobs} in {stats.batches} batches "
            f"({stats.engine_runs} engine runs, {stats.model_runs} model runs)",
            f"  {self.cache.describe()}",
        ]
        return "\n".join(lines)


# -- shared default farms ----------------------------------------------------
_DEFAULT_FARMS: Dict[Tuple[int, int, int, int, int, str], SimulationFarm] = {}


def default_farm(config: Optional[RedMulEConfig] = None) -> SimulationFarm:
    """Process-wide shared farm for a configuration.

    The experiment drivers all fetch their farm here, so a full
    ``run_all()`` shares one timing cache across every figure (the Fig. 3c,
    3d and 4a sweeps reuse the same square shapes, as do the Table I rows).
    """
    if config is None:
        config = RedMulEConfig.reference()
    key = config_key(config)
    farm = _DEFAULT_FARMS.get(key)
    if farm is None:
        farm = SimulationFarm(config=config)
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
