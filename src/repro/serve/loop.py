"""Continuous serving loop: admission, autoscaling, precision routing.

:class:`ContinuousServer` serves a stream of requests on a pool of
simulated clusters: one event heap of completion / step / provision /
autoscale-evaluation events, and a request stream that is consumed lazily --
the loop holds O(in-flight + queued) state plus a fixed-size buffer of
completion latencies (folded into the streaming statistics when full and at
``finalize``) no matter how many million requests the traffic window
contains; the generator's windowed merge adds O(tenants x 512).

Every request's graph is timed once per (graph, effective precision): the
first request of a model/precision pair sends every accelerator job through
the farm in one batched call, every later request resolves in a dictionary
lookup and never touches the farm.  The memo serves two dispatch modes:

* **atomic** (the default): a request occupies one cluster for its graph's
  *serial* service time, which by construction equals
  ``SimulationFarm.time_program(program, offload)`` rounded to a cycle --
  the conservation law (one cluster x one request makespan == serial farm
  timing), pinned by the test suite;
* **node dispatch** (``node_dispatch=True``): dependency-aware list
  scheduling of each request's lowered DAG.  A node becomes ready once its
  request has arrived and its dependencies have completed; GEMM nodes take
  idle clusters oldest-first (by arrival, admission index, topological
  index), elementwise nodes run on the host cores and never occupy a
  cluster.  Time advances in *passes*: a pass handles every completion and
  then every arrival at its cycle before it dispatches anything, and work
  started at zero cost completes in the next pass at the same cycle.  With
  one cluster and one request this is serial execution, so the
  conservation law holds here too.

On top of the loop sit the production concerns it unlocks (all but
precision routing in the atomic mode only):

* **admission control** (:class:`AdmissionPolicy`): bounded queue,
  per-tenant fairness caps, and SLO-aware rejection (refuse a request whose
  projected wait + service would blow the p99 target -- better to shed at
  the door than to serve dead-on-arrival responses);
* **autoscaling** (:class:`AutoscalePolicy`): periodic evaluations scale
  the pool on queue depth and windowed p99, with a configurable
  provisioning delay before new capacity joins;
* **precision routing**: a request stamped with a tenant precision class
  (e.g. ``"fp8-e4m3"``) is timed through the per-precision farm of that
  element format (all derived farms share one timing cache -- PR 5's
  plumbing), so throughput tenants ride packed FP8 while accuracy-critical
  tenants stay FP16 on the same pool;
* **continuous batching** (``batch_cap > 1``): decode *sessions*
  (:class:`~repro.serve.requests.DecodeSessionSpec` requests) are
  multi-step units -- one skinny-GEMM step graph per generated token,
  attention growing with the KV position.  Sessions of the same
  (block-spec, precision) signature coalesce into one batched group per
  cluster: the weight-stationary projections and MLP run once at
  ``k = batch`` while each member's attention (whose shapes depend on its
  own cache length) is charged per member.  Members join and leave only at
  step boundaries; arrivals join a running group mid-stream (absorbed at
  the next boundary) when no cluster is idle.  Step costs memoise in
  lists per (block spec, effective precision) -- full steps and attention
  halves indexed by KV position, shared halves by batch width -- so a
  warm step boundary is a few list indexings per member.  The decode
  conservation law -- a 1-session run on one cluster equals the serial
  sum of its per-step ``farm.time_program`` makespans -- holds by
  construction and is pinned per precision by the test suite.

The loop is instrumented through :mod:`repro.obs`: per-request lifecycle
spans (per-node spans under node dispatch, host nodes as instants on lane
``host``) stamped in *simulated* cycles on per-cluster lanes of the
``serve`` track (attrs: tenant, model/precision, queue wait),
shed/autoscale decision events, and queue-depth / in-flight / pool-size
gauges.  The telemetry is
captured at construction (``telemetry=`` parameter, defaulting to the
process-wide :func:`repro.obs.active`); with the default
:data:`~repro.obs.NULL_TELEMETRY` every hook is a single attribute
check, which the observability benchmark gates at <= 2 % overhead.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.farm import SimulationFarm, default_farm
from repro.graph.ir import WorkloadGraph
from repro.graph.llm import (
    decode_attention_graph,
    decode_shared_graph,
    decode_step_graph,
)
from repro.obs import active as _telemetry_active
from repro.graph.lower import LoweredProgram
from repro.redmule.config import RedMulEConfig
from repro.serve.report import (
    ContinuousReport,
    ServePoolStats,
    StreamingLatencyStats,
    TenantReport,
    nearest_rank,
)
from repro.serve.requests import DEFAULT_FREQUENCY_HZ, Request

#: Event kinds, ordered so capacity freed or provisioned at cycle t serves
#: an arrival at the same cycle: completions first, then decode step
#: boundaries (which may free a cluster too), then provisions, then
#: autoscale evaluations.  Atomic arrivals are not heap events at all --
#: ``offer`` pumps the heap up to (and including) the arrival cycle first,
#: which yields exactly the same ordering without a push/pop round-trip per
#: request on the hot path.  Under node dispatch an arrival is an event
#: that sorts after the completions of its cycle, and node completions are
#: ``_EVENT_COMPLETION`` events.
_EVENT_COMPLETION = 0
_EVENT_STEP = 1
_EVENT_PROVISION = 2
_EVENT_EVAL = 3
_EVENT_ARRIVAL = 4

#: ``drain()``'s pump limit: beyond any schedulable cycle.
_FOREVER = 1 << 62

#: Completions buffered before their latencies are folded into the
#: streaming statistics in one batch (``finalize`` folds the remainder).
_COMPLETION_BUFFER = 1024


@dataclass(frozen=True)
class AdmissionPolicy:
    """Admission rules applied to every arriving request.

    ``max_queue`` bounds the number of waiting (not yet dispatched)
    requests; ``None`` admits everything.  ``fair_share`` caps any single
    tenant's share of the queue at ``fair_share * (its weight share)`` of
    ``max_queue`` -- with equal weights and ``fair_share=2.0`` a tenant may
    use at most twice its fair fraction of the queue, so one bursting
    tenant cannot starve the rest.  ``slo_p99_cycles`` refuses requests
    whose projected completion (queued work spread over the pool plus the
    request's own service) would exceed the target -- shedding at the door
    instead of serving answers that already missed their deadline.
    """

    #: Queue-depth bound counting waiting atomic requests *and* waiting
    #: decode sessions; ``None`` admits everything.
    max_queue: Optional[int] = None
    #: Projected-completion bound: reject when queued work spread over the
    #: pool plus the request's own serial service exceeds this.
    slo_p99_cycles: Optional[float] = None
    #: Multiple of a tenant's fair queue fraction it may occupy.
    fair_share: float = 2.0
    #: Optional per-tenant weights for the fairness shares (equal when
    #: omitted).
    tenant_weights: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        if self.max_queue is not None and self.max_queue < 1:
            raise ValueError("max_queue must be at least 1 (or None)")
        if self.slo_p99_cycles is not None and self.slo_p99_cycles <= 0:
            raise ValueError("slo_p99_cycles must be positive (or None)")
        if self.fair_share <= 0:
            raise ValueError("fair_share must be positive")
        if self.tenant_weights is not None:
            for tenant, weight in self.tenant_weights.items():
                if weight <= 0:
                    raise ValueError(
                        f"tenant {tenant!r}: weight must be positive")


@dataclass(frozen=True)
class AutoscalePolicy:
    """Queue-depth / p99-driven cluster-pool autoscaling.

    Every ``interval_cycles`` the loop compares effective capacity (live
    clusters plus in-flight provisions) against ``ceil(queue /
    queue_per_cluster)`` and against the windowed p99 (scale up by one when
    it breaches ``slo_p99_cycles``).  New capacity joins after
    ``provision_delay_cycles``.  Scale-down retires one idle cluster per
    evaluation, only when the queue is empty and pool occupancy is at or
    below ``scale_down_occupancy`` -- deliberately asymmetric (fast up,
    slow down), the shape every production autoscaler converges to.
    """

    #: Pool-size floor / ceiling the autoscaler must stay within.
    min_clusters: int = 1
    max_clusters: int = 16
    #: Cycles between autoscale evaluations.
    interval_cycles: int = 100_000
    #: Queued requests each cluster is expected to absorb (queue-depth
    #: scale-up trigger: grow toward ``ceil(queue / queue_per_cluster)``).
    queue_per_cluster: int = 4
    #: Occupancy at or below which an idle cluster may be retired.
    scale_down_occupancy: float = 0.25
    #: Delay between a scale-up decision and the capacity joining.
    provision_delay_cycles: int = 0
    #: Windowed-p99 target; breaching it scales up by one (``None`` = off).
    slo_p99_cycles: Optional[float] = None
    #: Completions folded into the sliding p99 window between evaluations.
    window: int = 1024

    def __post_init__(self) -> None:
        if self.min_clusters < 1:
            raise ValueError("min_clusters must be at least 1")
        if self.max_clusters < self.min_clusters:
            raise ValueError("max_clusters must be >= min_clusters")
        if self.interval_cycles < 1:
            raise ValueError("interval_cycles must be positive")
        if self.queue_per_cluster < 1:
            raise ValueError("queue_per_cluster must be positive")
        if not 0.0 <= self.scale_down_occupancy <= 1.0:
            raise ValueError("scale_down_occupancy must be in [0, 1]")
        if self.provision_delay_cycles < 0:
            raise ValueError("provision_delay_cycles must be >= 0")
        if self.slo_p99_cycles is not None and self.slo_p99_cycles <= 0:
            raise ValueError("slo_p99_cycles must be positive (or None)")
        if self.window < 8:
            raise ValueError("window must be at least 8")


class _ProgramCosts:
    """Service-time memo of one (graph, effective precision).

    Filled from one batched farm run over the lowered program's jobs.
    ``serial`` is an atomic request's service: every node's cycles summed
    unrounded, then rounded once.  ``cycles`` holds each node's own cost,
    rounded -- a GEMM node's jobs plus their offload charge, or an
    elementwise node's host-core cycles -- and ``gemm``, ``deps`` and
    ``dependents`` index the DAG for node dispatch.
    """

    __slots__ = ("program", "serial", "cycles", "gemm", "deps", "dependents")

    def __init__(self, program: LoweredProgram, results: list,
                 offload_cycles_per_job: float,
                 elementwise_cycles_per_element: float) -> None:
        self.program = program
        self.cycles: List[int] = []
        total = 0.0
        offset = 0
        for node in program.nodes:
            if node.is_gemm:
                accelerator = sum(result.cycles for result in
                                  results[offset:offset + node.n_jobs])
                offload = offload_cycles_per_job * node.n_jobs
                total += accelerator
                total += offload
                self.cycles.append(int(round(accelerator + offload)))
                offset += node.n_jobs
            else:
                host = elementwise_cycles_per_element * node.elements
                total += host
                self.cycles.append(int(round(host)))
        self.serial = int(round(total))
        self.gemm = [node.is_gemm for node in program.nodes]
        self.deps = [len(node.deps) for node in program.nodes]
        index_of = {node.name: i for i, node in enumerate(program.nodes)}
        self.dependents: List[List[int]] = [[] for _ in program.nodes]
        for i, node in enumerate(program.nodes):
            for dep in node.deps:
                self.dependents[index_of[dep]].append(i)


class _NodeRequest:
    """A request in flight under node dispatch: ``waiting`` counts each
    node's unfinished dependencies, ``unfinished`` the request's nodes not
    yet complete, and ``index`` is its admission order (the ready-queue
    tie-break after the arrival cycle)."""

    __slots__ = ("request", "costs", "index", "waiting", "unfinished")

    def __init__(self, request: Request, costs: _ProgramCosts,
                 index: int) -> None:
        self.request = request
        self.costs = costs
        self.index = index
        self.waiting = list(costs.deps)
        self.unfinished = len(costs.deps)


class _DecodeCosts:
    """Step-cost memo of one (block spec, effective precision).

    Three lists whose slots fill lazily, each on its first lookup (a memo
    miss timed through the farm): ``full`` holds the rounded cycles of the
    whole single-session step graph and ``attn`` the unrounded cycles of
    one member's attention half, both indexed by KV position; ``shared``
    holds the unrounded cycles of the batchable half, indexed by batch
    width.
    """

    __slots__ = ("spec", "effective", "full", "attn", "shared")

    def __init__(self, spec, effective: str, batch_cap: int) -> None:
        self.spec = spec
        self.effective = effective
        self.full: List[Optional[int]] = [None] * spec.context_limit
        self.attn: List[Optional[float]] = [None] * spec.context_limit
        self.shared: List[Optional[float]] = [None] * (batch_cap + 1)


class _JoinSignature:
    """Sessions of one (block spec, requested precision): they may share a
    batch group.  Holds the step costs of the effective precision and the
    groups of this signature currently stepping (one cluster each)."""

    __slots__ = ("costs", "groups")

    def __init__(self, costs: _DecodeCosts) -> None:
        self.costs = costs
        self.groups: List[_DecodeGroup] = []


class _DecodeSession:
    """Progress of one admitted decode session.

    The session's steps run at the contiguous KV positions ``position ..
    stop - 1``; ``position`` is that of its next (or current) step.
    ``queued_service`` is the serial-service estimate charged to the
    admission accounting while the session waits in the decode queue (zero
    otherwise).
    """

    __slots__ = ("request", "signature", "position", "stop",
                 "queued_service")

    def __init__(self, request: Request, signature: _JoinSignature) -> None:
        decode = request.decode
        self.request = request
        self.signature = signature
        self.position = decode.prefill
        self.stop = decode.prefill + decode.decode_steps
        self.queued_service = 0


class _DecodeGroup:
    """A batch of decode sessions stepping together on one cluster.

    ``members`` step in lockstep (one batched step per event);
    ``joiners`` arrived mid-step and are absorbed at the next boundary.
    The group exists exactly while it occupies a cluster.
    """

    __slots__ = ("signature", "members", "joiners", "step_started", "lane")

    def __init__(self, signature: _JoinSignature,
                 members: List[_DecodeSession]) -> None:
        self.signature = signature
        self.members = members
        self.joiners: List[_DecodeSession] = []
        self.step_started = 0
        self.lane = -1

    @property
    def occupancy(self) -> int:
        """Members plus pending joiners (the join-capacity measure)."""
        return len(self.members) + len(self.joiners)


class ContinuousServer:
    """Event-driven continuous serving over a resizable cluster pool.

    The incremental API -- :meth:`offer` one request at a time,
    :meth:`run_until` a deadline, :meth:`drain` and :meth:`finalize` --
    exists for differential testing and for embedding the loop in larger
    simulations; :meth:`simulate` wraps it for the common stream-in,
    report-out case.

    ``farm`` is the timing service shared by the pool (default: the
    process-wide :func:`repro.farm.default_farm` of ``config``) and
    ``backend`` an optional per-call farm backend override.
    ``offload_cycles_per_job`` is the core-side cost charged per
    accelerator job and ``elementwise_cycles_per_element`` the host-core
    cost of elementwise nodes (0 models them as hidden behind accelerator
    work).  ``admission`` and ``autoscaler`` are optional policies (both
    default to off: unbounded queue, fixed pool).  ``batch_cap`` bounds how
    many decode sessions may share one cluster's batched steps (1 = no
    cross-request batching: every session steps alone).  Latency
    percentiles come from :class:`~repro.serve.report.StreamingLatencyStats`;
    ``keep_latencies`` also keeps every completion latency in
    :attr:`latencies`, the exact sample tests and benchmarks check the
    streamed percentiles against.

    ``node_dispatch`` switches from atomic requests to node-granular list
    scheduling of each request's DAG (see the module docstring).  It serves
    graph requests on a fixed pool: it takes no admission policy, no
    autoscaler and no decode sessions.
    """

    def __init__(
        self,
        n_clusters: int = 1,
        farm: Optional[SimulationFarm] = None,
        config: Optional[RedMulEConfig] = None,
        backend: Optional[str] = None,
        frequency_hz: float = DEFAULT_FREQUENCY_HZ,
        offload_cycles_per_job: float = 0.0,
        elementwise_cycles_per_element: float = 0.0,
        admission: Optional[AdmissionPolicy] = None,
        autoscaler: Optional[AutoscalePolicy] = None,
        keep_latencies: bool = False,
        batch_cap: int = 1,
        telemetry=None,
        *,
        node_dispatch: bool = False,
    ) -> None:
        if node_dispatch and (admission is not None
                              or autoscaler is not None):
            raise ValueError("node dispatch runs a fixed pool without "
                             "admission control or autoscaling")
        if n_clusters < 1:
            raise ValueError("the pool needs at least one cluster")
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if not (0 <= offload_cycles_per_job < math.inf
                and 0 <= elementwise_cycles_per_element < math.inf):
            raise ValueError("per-job and per-element costs must be finite "
                             "and >= 0")
        if autoscaler is not None and n_clusters < autoscaler.min_clusters:
            raise ValueError("n_clusters must start within the autoscaler's "
                             "[min_clusters, max_clusters] band")
        if autoscaler is not None and n_clusters > autoscaler.max_clusters:
            raise ValueError("n_clusters must start within the autoscaler's "
                             "[min_clusters, max_clusters] band")
        if batch_cap < 1:
            raise ValueError("batch_cap must be at least 1")
        self.batch_cap = batch_cap
        self.node_dispatch = node_dispatch
        self.farm = farm if farm is not None else default_farm(config)
        self.backend = backend
        self.frequency_hz = frequency_hz
        self.offload_cycles_per_job = offload_cycles_per_job
        self.elementwise_cycles_per_element = elementwise_cycles_per_element
        self.admission = admission
        self.autoscaler = autoscaler
        self.keep_latencies = keep_latencies
        self.latencies: List[int] = []

        # -- pool state ------------------------------------------------------
        self.n_clusters = n_clusters
        self._initial_clusters = n_clusters
        self._idle = n_clusters
        self._in_flight = 0
        self._queue: Deque[Tuple[Request, int]] = deque()
        self._queued_service = 0  # summed service cycles of queued requests
        self._queued_by_tenant: Dict[str, int] = {}
        self._pending_provisions = 0
        # -- decode-session state --------------------------------------------
        #: Sessions admitted but waiting for a cluster (FIFO; compatible
        #: runs are pulled together when a group starts).
        self._decode_queue: Deque[_DecodeSession] = deque()
        #: (block spec, requested precision) -> its join signature, which
        #: holds the groups currently stepping (each occupies one cluster).
        self._decode_signatures: Dict[Tuple[object, Optional[str]],
                                      _JoinSignature] = {}
        #: Sessions admitted and not yet completed (queued + grouped).
        self._decode_active = 0
        self.decode_sessions_completed = 0
        self.decode_steps = 0
        self.decode_batched_steps = 0
        self._decode_occupancy_sum = 0
        self.decode_max_occupancy = 0
        # -- node-dispatch state ---------------------------------------------
        #: Ready nodes as (arrival, admission index, topological index,
        #: request) heaps: GEMM nodes wait for a cluster, host nodes start
        #: in the pass that readies them.
        self._ready_gemm: List[Tuple[int, int, int, _NodeRequest]] = []
        self._ready_host: List[Tuple[int, int, int, _NodeRequest]] = []

        # -- clock / events --------------------------------------------------
        self._events: List[Tuple[int, int, int, object]] = []
        self._sequence = 0
        self._now = 0
        self._last_completion = 0
        self._last_offer = 0
        self._eval_scheduled = False

        # -- timing services -------------------------------------------------
        #: (graph, effective precision) -> its service-time memo.
        self._programs: Dict[Tuple[WorkloadGraph, str], _ProgramCosts] = {}
        #: Hot-path alias of the serial service keyed by the *requested*
        #: (graph, precision) pair, so the common atomic case resolves in
        #: one dict lookup without re-deriving the effective precision.
        self._service_fast: Dict[Tuple[WorkloadGraph, Optional[str]],
                                 int] = {}
        #: (block spec, effective precision) -> its step-cost memo.  A full
        #: slot is the B == 1 step cost, exactly ``int(round(
        #: farm.time_program(step graph)))`` -- the decode conservation law
        #: rests on it.
        self._decode_costs: Dict[Tuple[object, str], _DecodeCosts] = {}
        #: (session spec, effective precision) -> whole-session serial
        #: cycles (the admission estimate).
        self._decode_session: Dict[Tuple[object, str], int] = {}
        self.memo_hits = 0
        self.memo_misses = 0
        self._jobs_timed = 0
        self._cache_hits0 = self.farm.cache.stats.hits
        self._cache_misses0 = self.farm.cache.stats.misses

        # -- accounting ------------------------------------------------------
        self.offered = 0
        self.admitted = 0
        self.rejected = 0
        self.rejected_by_tenant: Dict[str, int] = {}
        self.rejection_reasons: Dict[str, int] = {}
        self._overall = StreamingLatencyStats()
        self._per_tenant: Dict[str, StreamingLatencyStats] = {}
        self._models: Dict[str, int] = defaultdict(int)
        #: Latencies not yet folded into the statistics above, in
        #: completion order, overall and per tenant.
        self._latency_buffer: List[int] = []
        self._tenant_buffers: Dict[str, List[int]] = defaultdict(list)
        self._busy_cycles = 0.0
        self._pool_cycles = 0.0
        self._pool_marker = 0  # last cycle the pool integral was advanced to
        self._min_clusters_seen = n_clusters
        self._max_clusters_seen = n_clusters
        self.scale_ups = 0
        self.scale_downs = 0
        #: Sliding completion-latency window feeding the autoscaler's p99.
        self._window: Optional[Deque[int]] = (
            deque(maxlen=autoscaler.window)
            if autoscaler is not None and autoscaler.slo_p99_cycles is not None
            else None)

        # -- observability ---------------------------------------------------
        # Captured once at construction; with the NullTelemetry default the
        # per-event cost below is exactly one ``enabled`` attribute check.
        obs = telemetry if telemetry is not None else _telemetry_active()
        self._obs = obs
        if obs.enabled:
            obs.declare_track("serve", "cycles")
            # Request spans are laid out on occupancy lanes ("cluster0",
            # "cluster1", ...): a lane is held from dispatch to completion
            # and recycled lowest-first, so concurrent requests never share
            # a lane and spans trivially nest per track.
            self._obs_lanes: List[int] = []
            self._obs_next_lane = 0
            self._obs_inflight: Dict[int, List[Tuple[int, int]]] = {}
            obs.sample("serve.pool_size", n_clusters, ts=0, track="serve")

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation cycle."""
        return self._now

    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet dispatched."""
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Cluster-occupying units in flight: requests, decode groups (one
        each), or under node dispatch GEMM nodes."""
        return self._in_flight

    @property
    def decode_queue_depth(self) -> int:
        """Decode sessions admitted but not yet grouped onto a cluster."""
        return len(self._decode_queue)

    @property
    def decode_active(self) -> int:
        """Decode sessions admitted and not yet completed."""
        return self._decode_active

    def _advance_pool_integral(self, cycle: int) -> None:
        if cycle > self._pool_marker:
            self._pool_cycles += self.n_clusters * (cycle - self._pool_marker)
            self._pool_marker = cycle

    # -- service timing ------------------------------------------------------
    def service_cycles(self, graph: WorkloadGraph,
                       precision: Optional[str] = None) -> int:
        """Serial service cycles of one request of ``graph``.

        ``precision`` is the request's routing class; a graph carrying its
        own precision always wins (matching :meth:`WorkloadGraph.lower`),
        then the routed class, then the pool's default format.  First call
        per (graph, precision) primes the memo through one batched farm
        run; later calls are dictionary lookups.
        """
        return self._program_costs(graph, precision).serial

    def _program_costs(self, graph: WorkloadGraph,
                       precision: Optional[str]) -> _ProgramCosts:
        """The memo entry of ``graph`` at the request's effective
        precision, timed through that precision's farm on a miss."""
        effective = (graph.precision or precision
                     or self.farm.config.format)
        key = (graph, effective)
        costs = self._programs.get(key)
        if costs is not None:
            self.memo_hits += 1
            return costs
        self.memo_misses += 1
        farm = self.farm.with_format(effective)
        program = graph.lower(config=farm.config)
        jobs = [job for node in program.nodes for job in node.jobs]
        results = farm.run(jobs, backend=self.backend) if jobs else []
        self._jobs_timed += len(jobs)
        costs = self._programs[key] = _ProgramCosts(
            program, results, self.offload_cycles_per_job,
            self.elementwise_cycles_per_element)
        return costs

    # -- decode step costing -------------------------------------------------
    def _decode_effective(self, precision: Optional[str]) -> str:
        """Effective element format of a decode session's timing.

        Decode step graphs are precision-agnostic at graph level (the
        KV-cache overrides ride on individual nodes), so the requested
        class wins, then the pool's default format.
        """
        return precision or self.farm.config.format

    def _decode_program_cycles(self, graph: WorkloadGraph,
                               effective: str) -> float:
        """Unrounded serial cycles of one decode graph (farm-timed).

        Runs on a step-cost memo miss, which it counts.  Lowers against
        the effective-format farm and times through
        :meth:`SimulationFarm.time_program`, which routes each node's jobs
        through the farm of *its* precision -- the per-node KV-cache
        overrides are honoured here.  Offload and elementwise core costs
        are charged exactly like :meth:`service_cycles`.
        """
        self.memo_misses += 1
        farm = self.farm.with_format(effective)
        program = graph.lower(config=farm.config)
        timing = farm.time_program(program, backend=self.backend)
        self._jobs_timed += program.n_jobs
        total = timing.cycles
        total += self.offload_cycles_per_job * program.n_jobs
        if self.elementwise_cycles_per_element:
            total += self.elementwise_cycles_per_element * sum(
                node.elements for node in program.nodes if not node.is_gemm)
        return total

    def _decode_costs_for(self, spec, effective: str) -> _DecodeCosts:
        key = (spec, effective)
        costs = self._decode_costs.get(key)
        if costs is None:
            costs = self._decode_costs[key] = _DecodeCosts(
                spec, effective, self.batch_cap)
        return costs

    def _decode_signature(self, spec, precision: Optional[str]
                          ) -> _JoinSignature:
        key = (spec, precision)
        signature = self._decode_signatures.get(key)
        if signature is None:
            signature = self._decode_signatures[key] = _JoinSignature(
                self._decode_costs_for(spec,
                                       self._decode_effective(precision)))
        return signature

    def _full_step_cycles(self, costs: _DecodeCosts, position: int) -> int:
        """Rounded cycles of a full single-session step at one KV position:
        ``int(round(farm.time_program(step graph)))`` by construction,
        which is what makes the decode conservation law exact."""
        cycles = costs.full[position]
        if cycles is None:
            cycles = costs.full[position] = int(round(
                self._decode_program_cycles(
                    decode_step_graph(costs.spec, position),
                    costs.effective)))
        else:
            self.memo_hits += 1
        return cycles

    def decode_session_cycles(self, session,
                              precision: Optional[str] = None) -> int:
        """Serial (unbatched) service cycles of one whole decode session.

        The sum of the session's per-step full-graph costs -- what a
        1-session run on one cluster takes, and the service estimate the
        admission policy charges for a decode arrival.
        """
        effective = self._decode_effective(precision)
        key = (session, effective)
        cycles = self._decode_session.get(key)
        if cycles is None:
            costs = self._decode_costs_for(session.spec, effective)
            cycles = sum(self._full_step_cycles(costs, position)
                         for position in session.positions)
            self._decode_session[key] = cycles
        else:
            self.memo_hits += 1
        return cycles

    # -- event plumbing ------------------------------------------------------
    def _push(self, cycle: int, kind: int, payload: object) -> None:
        heapq.heappush(self._events, (cycle, kind, self._sequence, payload))
        self._sequence += 1

    def _arm_autoscaler(self) -> None:
        if (self.autoscaler is not None and not self._eval_scheduled):
            self._push(self._now + self.autoscaler.interval_cycles,
                       _EVENT_EVAL, None)
            self._eval_scheduled = True

    # -- admission -----------------------------------------------------------
    def _admit(self, request: Request, service: int) -> Optional[str]:
        """``None`` to admit, else the rejection reason."""
        policy = self.admission
        if policy is None:
            return None
        if policy.max_queue is not None:
            waiting = len(self._queue) + len(self._decode_queue)
            if waiting >= policy.max_queue:
                return "queue"
            weights = policy.tenant_weights
            if weights is not None:
                total = sum(weights.values())
                share = weights.get(request.tenant, 0.0) / total
            else:
                known = len(self._queued_by_tenant) or 1
                share = 1.0 / known
            cap = max(1, math.ceil(policy.fair_share * share
                                   * policy.max_queue))
            if self._queued_by_tenant.get(request.tenant, 0) >= cap:
                return "fairness"
        if policy.slo_p99_cycles is not None:
            capacity = self.n_clusters + self._pending_provisions
            projected = self._queued_service / capacity + service
            if projected > policy.slo_p99_cycles:
                return "slo"
        return None

    # -- dispatch / completion ----------------------------------------------
    def _dispatch(self, request: Request, service: int) -> None:
        self._idle -= 1
        self._in_flight += 1
        self._busy_cycles += service
        self._push(self._now + service, _EVENT_COMPLETION, request)
        if self._obs.enabled:
            self._obs_dispatched(request)
        self._arm_autoscaler()

    def _obs_claim_lane(self) -> int:
        """Claim the lowest free cluster lane (allocating if none free)."""
        lanes = self._obs_lanes
        if lanes:
            return heapq.heappop(lanes)
        lane = self._obs_next_lane
        self._obs_next_lane += 1
        return lane

    def _obs_dispatched(self, request: Request) -> None:
        """Record the dispatch: claim a lane, sample occupancy gauges."""
        lane = self._obs_claim_lane()
        # Keyed by object identity with a FIFO list per key, so even the
        # degenerate case of one Request object offered twice stays sound.
        self._obs_inflight.setdefault(id(request), []).append(
            (self._now, lane))
        self._obs.sample("serve.in_flight", self._in_flight, ts=self._now,
                         track="serve")

    def _obs_completed(self, request: Request, latency: int) -> None:
        """Close the request's lifecycle span on its cluster lane.

        The span covers dispatch -> completion in simulated cycles; the
        arrive -> dispatch queue wait rides along as an attribute (a
        separate queued span would overlap the lane's previous occupant).
        """
        obs = self._obs
        pending = self._obs_inflight[id(request)]
        dispatched, lane = pending.pop(0)
        if not pending:
            del self._obs_inflight[id(request)]
        heapq.heappush(self._obs_lanes, lane)
        obs.complete_span(
            request.model, dispatched, self._now, track="serve",
            lane=f"cluster{lane}", cat="request",
            tenant=request.tenant,
            precision=request.precision or "default",
            wait_cycles=dispatched - request.arrival_cycle,
            latency_cycles=latency)
        obs.count("serve.completed")
        obs.observe("serve.latency_cycles", latency)
        obs.sample("serve.queue_depth", len(self._queue), ts=self._now,
                   track="serve")
        obs.sample("serve.in_flight", self._in_flight, ts=self._now,
                   track="serve")

    def _record_completion(self, request: Request) -> int:
        """Buffer one finished request's (or decode session's) latency for
        the statistics; returns the arrival-to-completion latency."""
        latency = self._now - request.arrival_cycle
        buffer = self._latency_buffer
        buffer.append(latency)
        self._tenant_buffers[request.tenant].append(latency)
        self._models[request.model] += 1
        if len(buffer) >= _COMPLETION_BUFFER:
            self._fold_completions()
        if self._window is not None:
            self._window.append(latency)
        if self.keep_latencies:
            self.latencies.append(latency)
        return latency

    def _fold_completions(self) -> None:
        """Fold the buffered completions into the streaming statistics."""
        if not self._latency_buffer:
            return
        self._overall.add_many(self._latency_buffer)
        for tenant, latencies in self._tenant_buffers.items():
            stats = self._per_tenant.get(tenant)
            if stats is None:
                stats = self._per_tenant[tenant] = StreamingLatencyStats()
            stats.add_many(latencies)
        self._latency_buffer.clear()
        self._tenant_buffers.clear()

    def _serve_queues(self) -> None:
        """Hand freed (or newly provisioned) capacity to waiting work.

        Atomic requests first (they were admitted against the same bounded
        queue), then decode-queue heads -- each of which seeds a fresh
        batched group, pulling compatible waiting sessions along.
        """
        while self._idle > 0 and self._queue:
            queued, queued_service = self._queue.popleft()
            self._queued_service -= queued_service
            self._queued_by_tenant[queued.tenant] -= 1
            self._dispatch(queued, queued_service)
        while self._idle > 0 and self._decode_queue:
            self._launch_decode_head()

    def _prime_service(self, request: Request) -> int:
        """Service cycles of the first request of a (graph, requested
        precision) pair, aliased so later ones resolve in one lookup."""
        service = self.service_cycles(request.graph, request.precision)
        self._service_fast[(request.graph, request.precision)] = service
        return service

    # -- decode sessions -----------------------------------------------------
    def _admit_decode_session(self, request: Request, service: int) -> None:
        """Place a just-admitted decode session: own cluster, running
        group of the same signature, or the decode queue -- in that order.
        """
        signature = self._decode_signature(request.decode.spec,
                                           request.precision)
        session = _DecodeSession(request, signature)
        self._decode_active += 1
        if self._idle > 0:
            self._start_decode_group(session)
            return
        for group in signature.groups:
            if group.occupancy < self.batch_cap:
                # Absorbed at the group's next step boundary.
                group.joiners.append(session)
                return
        session.queued_service = service
        self._decode_queue.append(session)
        self._queued_service += service
        self._queued_by_tenant[request.tenant] = (
            self._queued_by_tenant.get(request.tenant, 0) + 1)
        if self._obs.enabled:
            self._obs.sample(
                "serve.queue_depth",
                len(self._queue) + len(self._decode_queue),
                ts=self._now, track="serve")
        self._arm_autoscaler()

    def _dequeue_decode(self, session: _DecodeSession) -> None:
        """Undo the queue accounting of a session leaving the decode queue."""
        self._queued_service -= session.queued_service
        session.queued_service = 0
        self._queued_by_tenant[session.request.tenant] -= 1

    def _launch_decode_head(self) -> None:
        """Seed a new group from the decode-queue head (cluster is idle)."""
        session = self._decode_queue.popleft()
        self._dequeue_decode(session)
        self._start_decode_group(session)

    def _start_decode_group(self, first: _DecodeSession) -> None:
        """Occupy an idle cluster with a new group led by ``first``,
        pulling decode-queued sessions of its signature along up to the
        cap."""
        signature = first.signature
        members = [first]
        if self._decode_queue and self.batch_cap > 1:
            remaining: Deque[_DecodeSession] = deque()
            for session in self._decode_queue:
                if (len(members) < self.batch_cap
                        and session.signature is signature):
                    self._dequeue_decode(session)
                    members.append(session)
                else:
                    remaining.append(session)
            self._decode_queue = remaining
        group = _DecodeGroup(signature, members)
        self._idle -= 1
        self._in_flight += 1
        signature.groups.append(group)
        if self._obs.enabled:
            group.lane = self._obs_claim_lane()
            self._obs.sample("serve.in_flight", self._in_flight,
                             ts=self._now, track="serve")
        self._begin_step(group)
        self._arm_autoscaler()

    def _begin_step(self, group: _DecodeGroup) -> None:
        """Schedule the group's next batched step from the current cycle.

        A lone member runs its full step graph (the conservation-exact
        path).  A batch runs the shared half once at ``k = batch`` plus
        each member's own attention half -- the weight-stationary GEMMs
        coalesce, the KV-cache-shaped GEMMs cannot.  The halves are summed
        shared first, then in member order, and rounded once.  Each cost
        read is one memo lookup; an empty slot is timed on the spot.
        """
        costs = group.signature.costs
        members = group.members
        occupancy = len(members)
        if occupancy == 1:
            cost = self._full_step_cycles(costs, members[0].position)
        else:
            hits = occupancy + 1
            total = costs.shared[occupancy]
            if total is None:
                hits -= 1
                total = costs.shared[occupancy] = self._decode_program_cycles(
                    decode_shared_graph(costs.spec, occupancy),
                    costs.effective)
            attn = costs.attn
            for session in members:
                half = attn[session.position]
                if half is None:
                    hits -= 1
                    half = attn[session.position] = (
                        self._decode_program_cycles(
                            decode_attention_graph(costs.spec,
                                                   session.position),
                            costs.effective))
                total += half
            self.memo_hits += hits
            cost = int(round(total))
            self.decode_batched_steps += 1
        now = self._now
        group.step_started = now
        self._busy_cycles += cost
        self.decode_steps += 1
        self._decode_occupancy_sum += occupancy
        if occupancy > self.decode_max_occupancy:
            self.decode_max_occupancy = occupancy
        self._push(now + cost, _EVENT_STEP, group)

    def _on_step(self, group: _DecodeGroup) -> None:
        """A batched step finished: advance every member, retire the done
        ones, absorb joiners, and either step again or free the cluster."""
        obs = self._obs
        members = group.members
        if obs.enabled:
            obs.complete_span(
                f"{group.signature.costs.spec.name}.step", group.step_started,
                self._now, track="serve", lane=f"cluster{group.lane}",
                cat="decode-step", occupancy=len(members),
                positions=",".join(
                    str(session.position) for session in members))
        finished = False
        for session in members:
            session.position += 1
            if session.position == session.stop:
                finished = True
        if not finished and not group.joiners:
            self._begin_step(group)
            return
        if finished:
            group.members = [session for session in members
                             if session.position != session.stop]
            self._last_completion = self._now
            for session in members:
                if session.position != session.stop:
                    continue
                latency = self._record_completion(session.request)
                self.decode_sessions_completed += 1
                self._decode_active -= 1
                if obs.enabled:
                    obs.count("serve.decode_sessions")
                    obs.observe("serve.latency_cycles", latency)
        if group.joiners:
            free = self.batch_cap - len(group.members)
            if free > 0:
                group.members.extend(group.joiners[:free])
                del group.joiners[:free]
        if group.members:
            self._begin_step(group)
            return
        # Drained (joiners are promoted before this point, so an empty
        # member list implies no joiners either): free the cluster.
        group.signature.groups.remove(group)
        self._in_flight -= 1
        self._idle += 1
        if obs.enabled:
            heapq.heappush(self._obs_lanes, group.lane)
            obs.sample("serve.in_flight", self._in_flight, ts=self._now,
                       track="serve")
        self._serve_queues()

    # -- autoscaling ---------------------------------------------------------
    def _resize(self, delta: int) -> int:
        """Apply a pool resize now; returns the delta actually applied.

        Growth is immediate (provisioning delay is modelled by scheduling
        the provision event, not here); shrink retires idle clusters only
        and never drops below one cluster (or the autoscaler's floor).
        """
        if delta > 0:
            self.n_clusters += delta
            self._idle += delta
            self.scale_ups += delta
            if self.n_clusters > self._max_clusters_seen:
                self._max_clusters_seen = self.n_clusters
            if self._obs.enabled:
                self._obs.sample("serve.pool_size", self.n_clusters,
                                 ts=self._now, track="serve")
            # New capacity drains the queues immediately.
            self._serve_queues()
            return delta
        floor = (self.autoscaler.min_clusters
                 if self.autoscaler is not None else 1)
        removable = min(-delta, self._idle, self.n_clusters - floor)
        if removable > 0:
            self.n_clusters -= removable
            self._idle -= removable
            self.scale_downs += removable
            if self.n_clusters < self._min_clusters_seen:
                self._min_clusters_seen = self.n_clusters
            if self._obs.enabled:
                self._obs.sample("serve.pool_size", self.n_clusters,
                                 ts=self._now, track="serve")
        return -removable

    def force_scale(self, delta: int) -> int:
        """Externally resize the pool at the current cycle (deterministic).

        Exists for tests and manual capacity experiments; the applied delta
        is returned (shrinks are limited to idle clusters and a floor of
        one cluster).
        """
        if delta == 0:
            return 0
        self._advance_pool_integral(self._now)
        return self._resize(delta)

    def _window_p99(self) -> Optional[float]:
        if not self._window:
            return None
        return nearest_rank(sorted(self._window), 0.99)

    def _evaluate_scaling(self) -> None:
        policy = self.autoscaler
        self._eval_scheduled = False
        effective = self.n_clusters + self._pending_provisions
        waiting = len(self._queue) + len(self._decode_queue)
        desired = math.ceil(waiting / policy.queue_per_cluster)
        desired = max(policy.min_clusters,
                      min(policy.max_clusters, max(desired, 1)))
        p99 = None
        if policy.slo_p99_cycles is not None:
            p99 = self._window_p99()
            if p99 is not None and p99 > policy.slo_p99_cycles:
                desired = min(policy.max_clusters, max(desired,
                                                       effective + 1))
        decision, amount = "hold", 0
        if desired > effective:
            grow = desired - effective
            self._pending_provisions += grow
            self._push(self._now + policy.provision_delay_cycles,
                       _EVENT_PROVISION, grow)
            decision, amount = "scale_up", grow
        elif (desired < effective and not self._queue
              and not self._decode_queue
              and self._pending_provisions == 0):
            occupancy = (self._in_flight / self.n_clusters
                         if self.n_clusters else 1.0)
            if occupancy <= policy.scale_down_occupancy:
                applied = self._resize(-1)
                if applied:
                    decision, amount = "scale_down", applied
        obs = self._obs
        if obs.enabled:
            obs.count("serve.autoscale_evals")
            obs.instant(
                "serve.autoscale", ts=self._now, track="serve",
                lane="autoscaler", cat="autoscale", decision=decision,
                amount=amount, desired=desired, effective=effective,
                queue_depth=waiting, in_flight=self._in_flight,
                window_p99=-1.0 if p99 is None else p99,
                slo_p99=(-1.0 if policy.slo_p99_cycles is None
                         else policy.slo_p99_cycles))
        # Keep evaluating while there is work (or capacity in flight) --
        # and let the event heap drain to empty otherwise.
        if (self._queue or self._decode_queue or self._in_flight
                or self._pending_provisions):
            self._arm_autoscaler()

    # -- event loop ----------------------------------------------------------
    def _pump(self, limit: int) -> None:
        """Process every event at or before ``limit``.

        The atomic completion -- millions of firings on the hot path -- is
        inlined here; decode steps and the rare provision/eval events take
        the out-of-line branches.
        """
        events = self._events
        heappop = heapq.heappop
        while events and events[0][0] <= limit:
            cycle, kind, _, payload = heappop(events)
            if cycle > self._pool_marker:
                self._pool_cycles += (self.n_clusters
                                      * (cycle - self._pool_marker))
                self._pool_marker = cycle
            self._now = cycle
            if kind == _EVENT_COMPLETION:
                self._in_flight -= 1
                self._idle += 1
                self._last_completion = cycle
                latency = self._record_completion(payload)
                if self._obs.enabled:
                    self._obs_completed(payload, latency)
                # Freed capacity immediately serves the head of the queues.
                if self._queue or self._decode_queue:
                    self._serve_queues()
            elif kind == _EVENT_STEP:
                self._on_step(payload)
            elif kind == _EVENT_PROVISION:
                self._pending_provisions -= payload
                self._resize(payload)
            else:
                self._evaluate_scaling()

    # -- node dispatch -------------------------------------------------------
    def _offer_nodes(self, request: Request) -> bool:
        """Node-dispatch ``offer``: run every pass before the arrival, then
        queue the request as an arrival event of its cycle's pass."""
        if request.decode is not None:
            raise ValueError("node dispatch serves graph requests; decode "
                             "sessions need the atomic mode")
        arrival = request.arrival_cycle
        self._node_passes(arrival)
        self._now = arrival
        self._last_offer = arrival
        self.offered += 1
        self.admitted += 1
        if self._obs.enabled:
            self._obs.count("serve.admitted")
        costs = self._program_costs(request.graph, request.precision)
        self._push(arrival, _EVENT_ARRIVAL,
                   _NodeRequest(request, costs, self.admitted))
        return True

    def _node_passes(self, stop: int) -> None:
        """Run every node-dispatch pass at a cycle below ``stop``.

        A pass handles every completion and then every arrival at its
        cycle, starts the ready host nodes, and hands idle clusters to the
        oldest ready GEMM nodes.
        """
        events = self._events
        heappop = heapq.heappop
        ready_gemm = self._ready_gemm
        ready_host = self._ready_host
        while events and events[0][0] < stop:
            now = self._now = events[0][0]
            while events and events[0][0] <= now:
                _, kind, _, payload = heappop(events)
                if kind == _EVENT_ARRIVAL:
                    if not payload.unfinished:  # a graph without nodes
                        self._node_request_done(payload)
                    for node, waiting in enumerate(payload.waiting):
                        if not waiting:
                            self._node_ready(payload, node)
                    continue
                state, node, lane = payload
                costs = state.costs
                if costs.gemm[node]:
                    self._idle += 1
                    self._in_flight -= 1
                    if self._obs.enabled:
                        heapq.heappush(self._obs_lanes, lane)
                waiting = state.waiting
                for dependent in costs.dependents[node]:
                    waiting[dependent] -= 1
                    if not waiting[dependent]:
                        self._node_ready(state, dependent)
                state.unfinished -= 1
                if not state.unfinished:
                    self._node_request_done(state)
            while ready_host:
                _, _, node, state = heappop(ready_host)
                self._start_node(state, node)
            while self._idle and ready_gemm:
                _, _, node, state = heappop(ready_gemm)
                self._start_node(state, node)

    def _node_ready(self, state: _NodeRequest, node: int) -> None:
        heapq.heappush(
            self._ready_gemm if state.costs.gemm[node] else self._ready_host,
            (state.request.arrival_cycle, state.index, node, state))

    def _start_node(self, state: _NodeRequest, node: int) -> None:
        """Start a ready node now: a GEMM node on an idle cluster, an
        elementwise node on the host cores."""
        now = self._now
        end = now + state.costs.cycles[node]
        gemm = state.costs.gemm[node]
        lane = -1
        if gemm:
            self._idle -= 1
            self._in_flight += 1
            self._busy_cycles += end - now
        obs = self._obs
        if obs.enabled:
            request = state.request
            name = state.costs.program.nodes[node].name
            if gemm:
                lane = self._obs_claim_lane()
                obs.complete_span(
                    name, now, end, track="serve", lane=f"cluster{lane}",
                    cat="node", request_id=request.request_id,
                    tenant=request.tenant)
            else:
                obs.instant(
                    name, ts=now, track="serve", lane="host", cat="node",
                    duration=end - now, request_id=request.request_id,
                    tenant=request.tenant)
        self._push(end, _EVENT_COMPLETION, (state, node, lane))

    def _node_request_done(self, state: _NodeRequest) -> None:
        self._last_completion = self._now
        latency = self._record_completion(state.request)
        if self._obs.enabled:
            self._obs.count("serve.completed")
            self._obs.observe("serve.latency_cycles", latency)

    # -- public API ----------------------------------------------------------
    def offer(self, request: Request) -> bool:
        """Offer one request at its arrival cycle; True if admitted.

        Offers must be arrival-ordered (what the generator's merged stream
        guarantees); the loop advances to the arrival cycle as a side
        effect, so completions scheduled before it are processed first.
        """
        arrival = request.arrival_cycle
        if arrival < self._last_offer:
            raise ValueError(
                "requests must be offered in arrival order; "
                f"got {arrival} after {self._last_offer}")
        if arrival < self._now:
            raise ValueError(
                f"cannot offer a request at past cycle {arrival} "
                f"(clock is at {self._now})")
        if self.node_dispatch:
            return self._offer_nodes(request)
        self._last_offer = arrival
        self.offered += 1
        # Catch the clock up to the arrival before deciding admission, so
        # queue state reflects every completion up to this instant (events
        # *at* the arrival cycle included -- identical ordering to a
        # completions-before-arrivals event heap).
        events = self._events
        if events and events[0][0] <= arrival:
            self._pump(arrival)
        if arrival > self._pool_marker:
            self._pool_cycles += (self.n_clusters
                                  * (arrival - self._pool_marker))
            self._pool_marker = arrival
        self._now = arrival
        decode = request.decode
        if decode is not None:
            service = self.decode_session_cycles(decode, request.precision)
        else:
            service = self._service_fast.get((request.graph,
                                              request.precision))
            if service is None:
                service = self._prime_service(request)
            else:
                self.memo_hits += 1
        if self.admission is not None:
            reason = self._admit(request, service)
            if reason is not None:
                self.rejected += 1
                self.rejected_by_tenant[request.tenant] = (
                    self.rejected_by_tenant.get(request.tenant, 0) + 1)
                self.rejection_reasons[reason] = (
                    self.rejection_reasons.get(reason, 0) + 1)
                obs = self._obs
                if obs.enabled:
                    obs.count("serve.rejected." + reason)
                    obs.instant("serve.shed", ts=arrival, track="serve",
                                lane="admission", cat="admission",
                                tenant=request.tenant, model=request.model,
                                reason=reason)
                return False
        self.admitted += 1
        if self._obs.enabled:
            self._obs.count("serve.admitted")
        if decode is not None:
            self._admit_decode_session(request, service)
            return True
        if self._idle > 0 and not self._queue:
            self._dispatch(request, service)
        else:
            self._queue.append((request, service))
            self._queued_service += service
            self._queued_by_tenant[request.tenant] = (
                self._queued_by_tenant.get(request.tenant, 0) + 1)
            if self._obs.enabled:
                self._obs.sample("serve.queue_depth", len(self._queue),
                                 ts=arrival, track="serve")
            self._arm_autoscaler()
        return True

    def run_until(self, cycle: int) -> None:
        """Advance the loop (and the clock) to ``cycle``, processing every
        event (under node dispatch: every pass) at or before it."""
        if cycle < self._now:
            raise ValueError(f"cannot run backwards to {cycle} "
                             f"(clock is at {self._now})")
        if self.node_dispatch:
            self._node_passes(cycle + 1)
        else:
            self._pump(cycle)
        self._advance_pool_integral(cycle)
        self._now = cycle

    def drain(self) -> None:
        """Run every remaining event (autoscaler evaluations stop arming
        themselves once no work is left, so this terminates)."""
        if self.node_dispatch:
            self._node_passes(_FOREVER)
        else:
            self._pump(_FOREVER)

    def finalize(self, scenario: str = "serve-continuous") -> ContinuousReport:
        """Snapshot the run as a :class:`ContinuousReport` (folding the
        buffered completions in first; the run may go on afterwards)."""
        self._fold_completions()
        self._advance_pool_integral(self._now)
        stats = self.farm.cache.stats
        tenants = {
            name: TenantReport(
                tenant=name, completed=acc.count,
                total_cycles=int(acc.total),
                latency=acc.finalize(),
            )
            for name, acc in self._per_tenant.items()
        }
        pool = ServePoolStats(
            initial_clusters=self._initial_clusters,
            min_clusters=self._min_clusters_seen,
            max_clusters=self._max_clusters_seen,
            final_clusters=self.n_clusters,
            scale_ups=self.scale_ups,
            scale_downs=self.scale_downs,
            pool_cycles=self._pool_cycles,
        )
        return ContinuousReport(
            scenario=scenario, frequency_hz=self.frequency_hz,
            makespan_cycles=self._last_completion,
            offered=self.offered, admitted=self.admitted,
            rejected=self.rejected, completed=self._overall.count,
            latency=self._overall.finalize(), tenants=tenants,
            rejected_by_tenant=dict(self.rejected_by_tenant), pool=pool,
            busy_cycles=self._busy_cycles,
            memo_hits=self.memo_hits, memo_misses=self.memo_misses,
            jobs_timed=self._jobs_timed,
            cache_hits=stats.hits - self._cache_hits0,
            cache_misses=stats.misses - self._cache_misses0,
            models=dict(self._models),
            decode_sessions=self.decode_sessions_completed,
            decode_steps=self.decode_steps,
            decode_batched_steps=self.decode_batched_steps,
            decode_mean_occupancy=(
                self._decode_occupancy_sum / self.decode_steps
                if self.decode_steps else 0.0),
            decode_max_occupancy=self.decode_max_occupancy,
            batch_cap=self.batch_cap,
        )

    def simulate(self, requests: Iterable[Request],
                 scenario: str = "serve-continuous") -> ContinuousReport:
        """Stream requests through the loop, drain, and report.

        ``requests`` must be arrival-ordered (it is not sorted) and is
        consumed lazily -- pair it with :meth:`RequestGenerator.stream` to
        serve million-request windows in O(in-flight) memory.
        """
        offer = self.offer
        for request in requests:
            offer(request)
        self.drain()
        return self.finalize(scenario)
