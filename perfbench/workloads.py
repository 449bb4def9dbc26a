"""The benchmark's four workloads.

Each workload builds its inputs from the seed in :meth:`Workload.setup`,
then runs identical *rounds* (one closed loop, one caller, one thread, no
farm process pool) until the time budget is spent.  Rounds repeat the same
simulated work, so every round must reproduce the first round's digest of
simulated outputs; host time per round is what the throughput metrics
measure.  :meth:`Workload.check` runs the workload's conservation or
re-timing checks once after the timed rounds.

Every workload reports two throughputs (see ``perfbench/manifest.json``):

========== ============================== ===================================
workload   primary (``primary_per_s``)    secondary (``secondary_per_s``)
========== ============================== ===================================
serve-mix  sim requests / host s,         sim requests / host s of the serve
           generation included            loop alone (generation excluded)
serve-decode  sim sessions / host s,      sim sessions / host s of the serve
           generation included            loop alone
engine-gemm  sim cycles / host s on the   sim cycles / host s of warm
           event-stepped ``exact-simd``   ``trace`` replays
dse-sweep  design points / host s         sampled points re-timed / host s
========== ============================== ===================================
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dse import DesignSpace, sweep
from repro.dse.pareto import pareto_frontier
from repro.dse.sweep import DEFAULT_OBJECTIVES
from repro.experiments.serve import decode_session_classes, million_tenants
from repro.farm import SimulationFarm, TimingCache
from repro.fp.formats import get_format
from repro.fp.vector import pack_matrix, random_matrix
from repro.graph import build_model
from repro.graph.ir import WorkloadGraph
from repro.graph.llm import decode_step_graph
from repro.interco.hci import Hci, HciConfig
from repro.mem.layout import MemoryAllocator
from repro.mem.tcdm import Tcdm, TcdmConfig
from repro.power.area import AreaModel, ClusterAreaModel
from repro.power.energy import EnergyModel
from repro.redmule.config import RedMulEConfig
from repro.redmule.engine import RedMulE
from repro.redmule.functional import matmul_hw_order_simd_fmt
from repro.redmule.job import MatmulJob
from repro.redmule.perf_model import RedMulEPerfModel
from repro.redmule.trace import TraceStore
from repro.serve import (
    ContinuousServer,
    Request,
    RequestGenerator,
    decode_burst,
    decode_session_stream,
)

from spans import Tracer

_clock = time.perf_counter
#: Timed pieces are counted in this thread's CPU seconds: wall time on a
#: shared host also counts the moments its core serves other tenants.
_cpu = time.thread_time

#: Span names the workloads open; each becomes the per-layer metric
#: ``<name>_s`` (self time).
SPAN_NAMES = frozenset({
    "serve.gen", "serve.offer", "serve.drain", "serve.finalize",
    "graph.lower", "farm.run", "farm.time_program",
    "redmule.exact_simd.job", "redmule.trace.record", "redmule.trace.replay",
    "mem.stage", "fp.golden", "fp.operands",
    "dse.sweep", "perf.is_exact", "perf.estimate", "power.models",
    "bench.check",
})


def digest_of(payload) -> str:
    """Stable hash of a JSON-serialisable simulated output."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def layer_patches(tracer: Tracer) -> Tuple[tuple, ...]:
    """Wrappers timing calls into each layer's public functions.

    Installed only for the length of a traced segment, so untraced rounds
    run the unmodified library.
    """
    def farm_run(original):
        def traced(farm, jobs, *args, **kwargs):
            jobs = list(jobs)
            stats = farm.cache.stats
            hits, misses = stats.hits, stats.misses
            tracer.count("farm.run_calls")
            tracer.count("farm.jobs", len(jobs))
            tracer.begin("farm.run")
            try:
                return original(farm, jobs, *args, **kwargs)
            finally:
                tracer.end()
                tracer.count("farm.cache_hits", stats.hits - hits)
                tracer.count("farm.cache_misses", stats.misses - misses)
        return traced

    power = tracer.wrapper("power.models")
    return (
        (WorkloadGraph, "lower",
         tracer.wrapper("graph.lower", counter="graph.lower_calls")),
        (SimulationFarm, "run", farm_run),
        (SimulationFarm, "time_program", tracer.wrapper("farm.time_program")),
        (RedMulEPerfModel, "is_exact", tracer.wrapper("perf.is_exact")),
        (RedMulEPerfModel, "estimate_program",
         tracer.wrapper("perf.estimate")),
        (AreaModel, "total", power),
        (ClusterAreaModel, "total", power),
        (EnergyModel, "cluster_power_accel_w", power),
    )


#: Piece key -> (work units, CPU seconds) of one round.  Rounds repeat
#: identical work, so a key names the same piece in every round.
Pieces = Dict[object, Tuple[float, float]]


@dataclass
class Round:
    """Outcome of one timed round."""

    #: Timed pieces of the primary and the secondary throughput.
    primary: Pieces
    secondary: Pieces
    #: Hash of every simulated output of the round.
    digest: str
    attempted: int
    failed: int
    #: Deterministic simulated results reported beside the metrics:
    #: name -> (value, unit).
    sim: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per-layer counts of the round (simulated, hence deterministic).
    layer: Dict[str, float] = field(default_factory=dict)


class Workload:
    """One named workload: seeded set-up, repeatable rounds, final checks."""

    name = ""
    #: (name, unit) of the two throughputs in the report.
    primary_metric = ("", "")
    secondary_metric = ("", "")
    params: Dict[str, object] = {}

    def __init__(self, seed: int, tracer: Tracer,
                 params: Optional[Dict[str, object]] = None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.p = dict(self.params if params is None else params)

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def check(self) -> Tuple[int, int]:
        """Correctness checks outside the rounds: (attempted, failed)."""
        return 0, 0


# -- serving --------------------------------------------------------------
class _Serve(Workload):
    """Shared streaming loop of the two serving workloads."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Per-call host time of ``offer`` over the traced rounds (seconds).
        self.offer_times = array("d")

    def serve(self, server: ContinuousServer, stream
              ) -> Tuple[object, Pieces, Pieces, int]:
        """Offer ``stream`` in chunks, drain, finalize.

        Returns ``(report, generation + serve pieces, serve-loop pieces,
        max queue depth)``, one piece per chunk plus the drain/finalize
        tail; the queue depth and per-offer times are only sampled while
        tracing.
        """
        tracer = self.tracer
        chunk = self.p["chunk"]
        offer = server.offer
        with_gen: Pieces = {}
        loop: Pieces = {}
        depth_max = 0
        for index in itertools.count():
            start = _cpu()
            with tracer.span("serve.gen"):
                batch = list(itertools.islice(stream, chunk))
            mid = _cpu()
            if not batch:
                break
            if tracer.active:
                times = self.offer_times
                with tracer.span("serve.offer"):
                    for request in batch:
                        began = _clock()
                        offer(request)
                        times.append(_clock() - began)
                        depth = server.queue_depth + server.decode_queue_depth
                        if depth > depth_max:
                            depth_max = depth
            else:
                for request in batch:
                    offer(request)
            stop = _cpu()
            with_gen[index] = (len(batch), stop - start)
            loop[index] = (len(batch), stop - mid)
        start = _cpu()
        with tracer.span("serve.drain"):
            server.drain()
        with tracer.span("serve.finalize"):
            report = server.finalize(self.name)
        with_gen["tail"] = loop["tail"] = (0, _cpu() - start)
        return report, with_gen, loop, depth_max

    def finish_round(self, report, with_gen: Pieces, loop: Pieces,
                     depth_max: int, completed: int) -> Round:
        sim = {
            "offered": report.offered,
            "completed": completed,
            "makespan_cycles": report.makespan_cycles,
            "latency": [report.latency.count, report.latency.mean,
                        report.latency.p50, report.latency.p95,
                        report.latency.p99, report.latency.max],
            "busy_cycles": report.busy_cycles,
            "memo": [report.memo_hits, report.memo_misses],
            "decode": [report.decode_sessions, report.decode_steps,
                       report.decode_batched_steps,
                       report.decode_max_occupancy],
            "tenants": {name: [t.completed, t.latency.p50, t.latency.p99]
                        for name, t in sorted(report.tenants.items())},
        }
        layer = {
            "serve.memo_hit_rate": report.memo_hit_rate,
            "serve.memo_misses": report.memo_misses,
            "serve.queue_depth_max": depth_max,
            "serve.utilisation": report.utilisation,
            "serve.decode_steps": report.decode_steps,
            "serve.decode_mean_occupancy": report.decode_mean_occupancy,
            "serve.decode_batched_fraction": report.decode_batched_fraction,
        }
        return Round(
            primary=with_gen, secondary=loop,
            digest=digest_of(sim), attempted=report.offered,
            failed=report.offered - completed,
            sim={"sim_p50_cycles": (report.latency.p50, "cycles"),
                 "sim_p99_cycles": (report.latency.p99, "cycles"),
                 "sim_makespan_cycles": (report.makespan_cycles, "cycles"),
                 "requests_per_round": (report.offered, "count"),
                 "sim_utilisation": (report.utilisation, "ratio")},
            layer=layer,
        )


class ServeMix(_Serve):
    name = "serve-mix"
    primary_metric = ("sim_req_per_s", "1/s")
    secondary_metric = ("serve_loop_req_per_s", "1/s")
    params = {"rps": 100_000.0, "target_utilisation": 0.75,
              "requests_per_round": 50_000, "chunk": 1024}

    def _server(self, clusters: int) -> ContinuousServer:
        """A pool with the service memo primed for every tenant model."""
        server = ContinuousServer(n_clusters=clusters, farm=self.farm,
                                  backend="model")
        for tenant in self.tenants:
            for model in tenant.models:
                server.service_cycles(model.graph, tenant.precision)
        return server

    def setup(self) -> None:
        self.farm = SimulationFarm(backend="model", max_workers=1)
        self.tenants = million_tenants(self.p["rps"])
        sizing = self._server(1)  # warms the farm cache
        load = sum(
            tenant.rps * sum(
                weight * sizing.service_cycles(model.graph, tenant.precision)
                for model, weight in zip(tenant.models, tenant.mix_weights))
            for tenant in self.tenants) / sizing.frequency_hz
        self.clusters = max(1, math.ceil(load / self.p["target_utilisation"]))
        self.p["clusters"] = self.clusters
        self.generator = RequestGenerator(self.tenants, seed=self.seed)
        self.duration_s = (self.p["requests_per_round"]
                           / self.generator.total_rps)

    def run_round(self) -> Round:
        server = self._server(self.clusters)
        report, with_gen, loop, depth = self.serve(
            server, self.generator.stream(self.duration_s))
        return self.finish_round(report, with_gen, loop, depth,
                                 report.completed)

    def check(self) -> Tuple[int, int]:
        """1 request x 1 cluster == ``farm.time_program``, per model and
        precision."""
        attempted = failed = 0
        for tenant in self.tenants:
            for model in tenant.models:
                single = ContinuousServer(n_clusters=1, farm=self.farm,
                                          backend="model")
                report = single.simulate([Request(
                    0, tenant.name, model.name, model.graph, 0,
                    precision=tenant.precision)])
                farm = (self.farm.with_format(tenant.precision)
                        if tenant.precision else self.farm)
                program = model.graph.lower(config=farm.config)
                serial = int(round(farm.time_program(program).cycles))
                attempted += 1
                failed += report.makespan_cycles != serial
        return attempted, failed


class ServeDecode(_Serve):
    name = "serve-decode"
    primary_metric = ("sim_req_per_s", "1/s")
    secondary_metric = ("serve_loop_req_per_s", "1/s")
    params = {"prefill": 8, "decode_steps": 16, "batch_cap": 8,
              "clusters": 4, "rps": 60_000.0, "sessions_per_round": 16_000,
              "chunk": 1024}

    def _stream(self):
        return decode_session_stream(
            self.sessions, rps=self.p["rps"], duration_s=self.duration_s,
            seed=self.seed)

    def _server(self) -> ContinuousServer:
        return ContinuousServer(n_clusters=self.p["clusters"], farm=self.farm,
                                backend="model",
                                batch_cap=self.p["batch_cap"])

    def setup(self) -> None:
        self.farm = SimulationFarm(backend="model", max_workers=1)
        self.sessions = decode_session_classes(self.p["prefill"],
                                               self.p["decode_steps"])
        self.duration_s = self.p["sessions_per_round"] / self.p["rps"]
        # One pass over the round's own traffic leaves every step signature
        # in the farm's timing cache; each round's server still starts with
        # a cold step memo, a cost users pay on every run.
        self.serve(self._server(), self._stream())
        self.offer_times = array("d")  # sample the timed rounds only

    def run_round(self) -> Round:
        report, with_gen, loop, depth = self.serve(self._server(),
                                                   self._stream())
        return self.finish_round(report, with_gen, loop, depth,
                                 report.decode_sessions)

    def check(self) -> Tuple[int, int]:
        """One session on one cluster == serial sum of per-step
        ``farm.time_program``, per session class."""
        attempted = failed = 0
        for session in self.sessions:
            single = ContinuousServer(n_clusters=1, farm=self.farm,
                                      backend="model",
                                      batch_cap=self.p["batch_cap"])
            report = single.simulate(decode_burst([session], 1))
            serial = sum(
                int(round(self.farm.time_program(
                    decode_step_graph(session.spec, position).lower(
                        config=self.farm.config)).cycles))
                for position in session.positions)
            attempted += 1
            failed += report.makespan_cycles != serial
        return attempted, failed


# -- engine ---------------------------------------------------------------
#: The paper's measured throughput of the 32-FMA array (fig. 3d), reported
#: beside the fp16 jobs' MAC/cycle; the job set's shapes are smaller, so
#: the gap is expected and is not an error figure.
PAPER_MACS_PER_CYCLE = 31.6

#: (format, M, N, K, accumulate) -- Z[MxK] (+)= X[MxN] . W[NxK] on the
#: paper's reference instance: 96^3, rectangular, skinny decode-like rows
#: and one accumulate job per format.
ENGINE_JOBS = (
    ("fp16", 96, 96, 96, False),
    ("fp16", 64, 128, 32, False),
    ("fp16", 4, 128, 96, False),
    ("fp16", 1, 256, 64, False),
    ("fp16", 32, 48, 64, True),
    ("fp8-e4m3", 64, 128, 32, False),
    ("fp8-e4m3", 4, 128, 96, False),
    ("fp8-e4m3", 8, 64, 128, False),
    ("fp8-e4m3", 32, 48, 64, True),
)


@dataclass
class _EngineJob:
    spec: Tuple[str, int, int, int, bool]
    operands: Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]
    golden_image: bytes
    golden_cycles: Optional[int]


class EngineGemm(Workload):
    name = "engine-gemm"
    primary_metric = ("sim_cycles_per_s", "1/s")
    secondary_metric = ("replay_cycles_per_s", "1/s")
    params = {"jobs": [list(job) for job in ENGINE_JOBS], "replays": 3}

    def _operands(self, spec, *stream: int):
        fmt, m, n, k, accumulate = spec
        rng = np.random.default_rng((self.seed, *stream))
        x = random_matrix(m, n, fmt, scale=0.25, rng=rng)
        w = random_matrix(n, k, fmt, scale=0.25, rng=rng)
        z0 = (random_matrix(m, k, fmt, scale=0.25, rng=rng)
              if accumulate else None)
        return x, w, z0

    def _execute(self, spec, operands, backend: str, span: str):
        """Stage ``operands`` in a fresh TCDM, run, read back Z.

        Returns ``(result, Z image, run_job CPU seconds)``.
        """
        tracer = self.tracer
        fmt, m, n, k, accumulate = spec
        with tracer.span("mem.stage"):
            config = RedMulEConfig(format=fmt)
            tcdm_config = TcdmConfig()
            needed = config.element_bytes * (m * n + n * k + m * k) + 96
            if needed > tcdm_config.size:
                line = tcdm_config.n_banks * tcdm_config.word_bytes
                tcdm_config = TcdmConfig(bank_words=max(
                    tcdm_config.bank_words, -(-needed // line)))
            tcdm = Tcdm(tcdm_config)
            hci = Hci(tcdm, HciConfig(n_wide_ports=config.n_mem_ports))
            engine = RedMulE(config, hci, backend=backend,
                             trace_store=self.stores.get(fmt))
            allocator = MemoryAllocator(tcdm.base, tcdm.size)
            hx = allocator.alloc_matrix(m, n, "X", fmt=fmt)
            hw = allocator.alloc_matrix(n, k, "W", fmt=fmt)
            hz = allocator.alloc_matrix(m, k, "Z", fmt=fmt)
            x, w, z0 = operands
            hx.store(tcdm, x)
            hw.store(tcdm, w)
            if accumulate:
                hz.store(tcdm, z0)
            job = MatmulJob.from_handles(hx, hw, hz, accumulate=accumulate)
        with tracer.span(span):
            start = _cpu()
            result = tracer.profile(engine.run_job, job)
            elapsed = _cpu() - start
        with tracer.span("mem.stage"):
            image = tcdm.dump_image(hz.base, m * k * config.element_bytes)
        return result, image, elapsed

    def setup(self) -> None:
        tracer = self.tracer
        specs = [tuple(job) for job in self.p["jobs"]]
        self.stores = {spec[0]: TraceStore() for spec in specs}
        self.jobs: List[_EngineJob] = []
        for index, spec in enumerate(specs):
            fmt, m, n, k, accumulate = spec
            with tracer.span("fp.operands"):
                operands = self._operands(spec, index)
            with tracer.span("fp.golden"):
                x, w, z0 = operands
                golden = pack_matrix(matmul_hw_order_simd_fmt(
                    x, w, get_format(fmt), acc=z0), fmt)
            config = RedMulEConfig(format=fmt)
            model = RedMulEPerfModel(config)
            job = MatmulJob(x_addr=0, w_addr=0, z_addr=0, m=m, n=n, k=k,
                            accumulate=accumulate,
                            element_bytes=config.element_bytes)
            cycles = model.estimate(job).cycles if model.is_exact(job) else None
            self.jobs.append(_EngineJob(spec, operands, golden, cycles))
            # Record the schedules on other data: rounds replay them warm.
            with tracer.span("fp.operands"):
                recording = self._operands(spec, index, 1)
            self._execute(spec, recording, "trace", "redmule.trace.record")

    def run_round(self) -> Round:
        tracer = self.tracer
        exact_s: Pieces = {}
        replay_s: Pieces = {}
        cycles = failed = 0
        fp16_macs = fp16_cycles = 0
        totals = dict.fromkeys(("tiles", "stall", "active", "issued",
                                "accesses", "port_cycles"), 0)
        hits0 = sum(store.stats.hits for store in self.stores.values())
        misses0 = sum(store.stats.misses for store in self.stores.values())
        rows = []
        for index, job in enumerate(self.jobs):
            exact, exact_image, spent = self._execute(
                job.spec, job.operands, "exact-simd",
                "redmule.exact_simd.job")
            exact_s[index] = (exact.cycles, spent)
            # A replay is ~20x shorter than its event-stepped run: repeat
            # it so the secondary throughput rests on more samples.
            replays = []
            for rep in range(self.p["replays"]):
                replay, replay_image, spent = self._execute(
                    job.spec, job.operands, "trace", "redmule.trace.replay")
                replay_s[index, rep] = (exact.cycles, spent)
                replays.append((replay, replay_image))
            with tracer.span("bench.check"):
                ok = (exact_image == job.golden_image
                      and (job.golden_cycles is None
                           or exact.cycles == job.golden_cycles)
                      and all(image == job.golden_image
                              and replay.cycles == exact.cycles
                              and replay.stall_cycles == exact.stall_cycles
                              for replay, image in replays))
                failed += not ok
                replay, replay_image = replays[0]
                rows.append([*job.spec, exact.cycles, exact.stall_cycles,
                             exact.active_cycles, exact.issued_macs,
                             replay.cycles,
                             hashlib.sha256(exact_image).hexdigest(),
                             hashlib.sha256(replay_image).hexdigest()])
            cycles += exact.cycles
            if job.spec[0] == "fp16":
                fp16_macs += exact.total_macs
                fp16_cycles += exact.cycles
            totals["tiles"] += exact.n_tiles
            totals["stall"] += exact.stall_cycles
            totals["active"] += exact.active_cycles
            totals["issued"] += exact.issued_macs
            totals["accesses"] += exact.streamer.accesses
            totals["port_cycles"] += exact.streamer.cycles
        hits = sum(store.stats.hits for store in self.stores.values()) - hits0
        misses = (sum(store.stats.misses for store in self.stores.values())
                  - misses0)
        return Round(
            primary=exact_s, secondary=replay_s,
            digest=digest_of(rows), attempted=len(self.jobs), failed=failed,
            sim={"sim_macs_per_cycle": (fp16_macs / fp16_cycles,
                                        "MAC/cycle"),
                 "paper_macs_per_cycle": (PAPER_MACS_PER_CYCLE, "MAC/cycle"),
                 "sim_cycles_per_round": (cycles, "cycles"),
                 "jobs_per_round": (len(self.jobs), "count")},
            layer={
                "redmule.trace.hits": hits,
                "redmule.trace.misses": misses,
                "redmule.tiles": totals["tiles"],
                "redmule.stall_cycles": totals["stall"],
                "redmule.active_cycles": totals["active"],
                "redmule.issued_macs": totals["issued"],
                "redmule.streamer.port_util": (totals["accesses"]
                                               / totals["port_cycles"]),
            },
        )


# -- design-space exploration ---------------------------------------------
class DseSweep(Workload):
    name = "dse-sweep"
    primary_metric = ("points_per_s", "1/s")
    secondary_metric = ("retime_points_per_s", "1/s")
    params = {
        "axes": {
            "height": [4, 8],
            "length": [4, 8],
            "pipeline_regs": [2, 3],
            "w_prefetch_lines": [1, 2],
            "memory_latency": [0, 1, 2, 4, 8],
            "tcdm_banks": [8, 16, 32, 64],
            "precision": ["fp16", "fp8-e4m3"],
        },
        "graphs": ["mlp-tiny", "autoencoder-b16", "transformer-tiny"],
        "sample": 16,
    }

    def setup(self) -> None:
        axes = self.p["axes"]
        self.space = DesignSpace(axes)
        # H, L and P are the outermost grid axes, so the per-(H, L, P)
        # sub-grids, swept in order, concatenate to the full grid's points.
        # Each is one short timed piece.
        self.blocks = [
            ((height, length, regs),
             DesignSpace({**axes, "height": [height], "length": [length],
                          "pipeline_regs": [regs]}))
            for height in self.space.axis_values("height")
            for length in self.space.axis_values("length")
            for regs in self.space.axis_values("pipeline_regs")
        ]
        self.graphs = [build_model(name) for name in self.p["graphs"]]
        # The environment axes iterate innermost and cost nothing to
        # re-time, so the sample takes evenly spaced configurations (a
        # seed-independent amount of work) at seeded environment points.
        n_env = (len(self.space.axis_values("tcdm_banks"))
                 * len(self.space.axis_values("memory_latency")))
        n_configs = len(self.space) // n_env
        stride = max(1, n_configs // self.p["sample"])
        rng = np.random.default_rng(self.seed)
        self.sample = [config * n_env + int(rng.integers(n_env))
                       for config in range(0, n_configs, stride)]

    def run_round(self) -> Round:
        tracer = self.tracer
        sweep_s: Pieces = {}
        retime_s: Pieces = {}
        points = failed = configs = trusted = frontier = 0
        rows = []
        for graph in self.graphs:
            # One fresh timing cache per graph: every run starts empty.
            cache = TimingCache()
            results = []
            for block, space in self.blocks:
                start = _cpu()
                with tracer.span("dse.sweep"):
                    results.append(sweep(space, graph, cache=cache))
                sweep_s[graph.name, block] = (len(results[-1]),
                                              _cpu() - start)
            swept = [point for result in results for point in result.points]
            for index in self.sample:
                start = _cpu()
                point = swept[index]
                config = point.point.config
                program = graph.lower(config=config)
                model = RedMulEPerfModel(config,
                                         memory_latency=point.memory_latency)
                failed += (model.estimate_program(program).serial_cycles
                           != point.serial_cycles)
                retime_s[graph.name, index] = (1, _cpu() - start)
            with tracer.span("bench.check"):
                exact = [point for point in swept if point.model_exact]
                front = len(pareto_frontier(exact, DEFAULT_OBJECTIVES))
                points += len(swept)
                trusted += len(exact)
                configs += len({point.point.config for point in swept})
                frontier += front
                rows.append([graph.name, front, digest_of(
                    [point.as_row() for point in swept])])
        return Round(
            primary=sweep_s, secondary=retime_s,
            digest=digest_of(rows),
            attempted=len(self.sample) * len(self.graphs), failed=failed,
            sim={"frontier_size": (frontier, "count"),
                 "points_per_round": (points, "count")},
            layer={"dse.configs": configs,
                   "dse.trusted_frac": trusted / points},
        )


WORKLOADS = {cls.name: cls for cls in (ServeMix, ServeDecode, EngineGemm,
                                       DseSweep)}
