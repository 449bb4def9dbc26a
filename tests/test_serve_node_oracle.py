"""Differential oracle of node dispatch: the wave scheduler's loop.

``wave_reference`` is the event-driven, dependency-aware list scheduler
that served node-granular requests before node dispatch became a mode of
:class:`~repro.serve.ContinuousServer`.  On every stream without precision
routing, node dispatch must reproduce it field for field: each request's
completion cycle, the makespan, the busy cycles, the latency statistics,
the per-tenant reports, the model counts and the farm cache traffic.
"""

import dataclasses
import heapq
import itertools

import pytest

from benchmarks.bench_serve_scaling import PER_TENANT, _tenants
from repro.farm import SimulationFarm
from repro.graph import build_model
from repro.obs import Telemetry
from repro.serve import (
    ContinuousServer,
    ModelSpec,
    RequestGenerator,
    StreamingLatencyStats,
    TenantReport,
    TenantSpec,
)

_COMPLETION = 0
_ARRIVAL = 1


class _InFlight:
    """One admitted request's progress through its DAG."""

    def __init__(self, request, program, cycles):
        self.request = request
        self.program = program
        self.cycles = cycles
        index_of = {node.name: i for i, node in enumerate(program.nodes)}
        self.waiting = [len(node.deps) for node in program.nodes]
        self.dependents = [[] for _ in program.nodes]
        for i, node in enumerate(program.nodes):
            for dep in node.deps:
                self.dependents[index_of[dep]].append(i)
        self.unfinished = len(program.nodes)


def wave_reference(requests, farm, n_clusters, offload_cycles_per_job=0.0,
                   elementwise_cycles_per_element=0.0):
    """Serve arrival-ordered ``requests`` with the wave scheduler's loop.

    Every pass pops all events of one cycle (completions before arrivals),
    starts the ready host nodes, then hands the lowest-numbered idle
    clusters to the oldest ready GEMM nodes by (arrival, admission index,
    topological index).  Arrivals are staged up front: they sort after the
    completions of their cycle and among themselves in stream order, which
    is the order the original one-request-ahead staging produced.
    """
    stats = farm.cache.stats
    hits0, misses0 = stats.hits, stats.misses
    timed = {}

    def node_cycles(graph):
        if graph not in timed:
            program = graph.lower(config=farm.config)
            jobs = [job for node in program.nodes for job in node.jobs]
            results = (farm.with_format(program.precision).run(jobs)
                       if jobs else [])
            cycles, offset = [], 0
            for node in program.nodes:
                if node.is_gemm:
                    total = sum(result.cycles for result in
                                results[offset:offset + node.n_jobs])
                    total += offload_cycles_per_job * node.n_jobs
                    offset += node.n_jobs
                else:
                    total = elementwise_cycles_per_element * node.elements
                cycles.append(int(round(total)))
            timed[graph] = (program, cycles)
        return timed[graph]

    sequence = itertools.count()
    events = []
    for request in requests:
        heapq.heappush(events, (request.arrival_cycle, _ARRIVAL,
                                next(sequence), request))
    states = {}
    admissions = itertools.count()
    ready_gemm, ready_host = [], []
    idle = list(range(n_clusters))
    busy = makespan = 0
    finished = {}
    overall = StreamingLatencyStats()
    per_tenant, tenant_cycles, models = {}, {}, {}

    def finish(request, cycle):
        latency = cycle - request.arrival_cycle
        finished[request.request_id] = cycle
        overall.add(latency)
        per_tenant.setdefault(request.tenant,
                              StreamingLatencyStats()).add(latency)
        tenant_cycles[request.tenant] = (
            tenant_cycles.get(request.tenant, 0) + latency)
        models[request.model] = models.get(request.model, 0) + 1

    def mark_ready(index, node):
        state = states[index]
        queue = ready_gemm if state.program.nodes[node].is_gemm else ready_host
        heapq.heappush(queue, (state.request.arrival_cycle, index, node))

    def complete_later(index, node, cluster, end):
        nonlocal makespan
        makespan = max(makespan, end)
        heapq.heappush(events, (end, _COMPLETION, next(sequence),
                                (index, node, cluster)))

    while events:
        now = events[0][0]
        while events and events[0][0] == now:
            _, kind, _, payload = heapq.heappop(events)
            if kind == _ARRIVAL:
                state = _InFlight(payload, *node_cycles(payload.graph))
                if not state.unfinished:
                    finish(payload, now)
                    continue
                index = next(admissions)
                states[index] = state
                for node, count in enumerate(state.waiting):
                    if count == 0:
                        mark_ready(index, node)
            else:
                index, node, cluster = payload
                state = states[index]
                if cluster >= 0:
                    heapq.heappush(idle, cluster)
                for dependent in state.dependents[node]:
                    state.waiting[dependent] -= 1
                    if state.waiting[dependent] == 0:
                        mark_ready(index, dependent)
                state.unfinished -= 1
                if state.unfinished == 0:
                    finish(state.request, now)
                    del states[index]
        while ready_host:
            _, index, node = heapq.heappop(ready_host)
            complete_later(index, node, -1, now + states[index].cycles[node])
        while idle and ready_gemm:
            _, index, node = heapq.heappop(ready_gemm)
            cluster = heapq.heappop(idle)
            duration = states[index].cycles[node]
            busy += duration
            complete_later(index, node, cluster, now + duration)

    tenants = {name: TenantReport(tenant=name, completed=acc.count,
                                  total_cycles=tenant_cycles[name],
                                  latency=acc.finalize())
               for name, acc in per_tenant.items()}
    return {
        "finished": finished, "makespan": makespan, "busy": busy,
        "completed": overall.count, "latency": overall.finalize(),
        "tenants": tenants, "models": models,
        "cache": (stats.hits - hits0, stats.misses - misses0),
    }


def node_finish_cycles(telemetry):
    """Each request's completion cycle, read off its node spans/instants."""
    finished = {}
    for _, _, lane, start, length, _, cat, attrs in telemetry.events():
        if cat != "node":
            continue
        end = int(start + (attrs["duration"] if lane == "host" else length))
        request_id = attrs["request_id"]
        finished[request_id] = max(finished.get(request_id, 0), end)
    return finished


def node_dispatch(requests, farm, n_clusters, offload_cycles_per_job=0.0,
                  elementwise_cycles_per_element=0.0):
    """The same outcome fields from a traced node-dispatch run."""
    stats = farm.cache.stats
    hits0, misses0 = stats.hits, stats.misses
    telemetry = Telemetry()
    report = ContinuousServer(
        n_clusters=n_clusters, farm=farm,
        offload_cycles_per_job=offload_cycles_per_job,
        elementwise_cycles_per_element=elementwise_cycles_per_element,
        telemetry=telemetry, node_dispatch=True).simulate(requests)
    assert report.busy_cycles == int(report.busy_cycles)
    return {
        "finished": node_finish_cycles(telemetry),
        "makespan": report.makespan_cycles,
        "busy": int(report.busy_cycles),
        "completed": report.completed, "latency": report.latency,
        "tenants": report.tenants, "models": report.models,
        "cache": (stats.hits - hits0, stats.misses - misses0),
    }


def _farm():
    return SimulationFarm(backend="model")


def _assert_same(requests, n_clusters, **costs):
    expected = wave_reference(requests, _farm(), n_clusters, **costs)
    actual = node_dispatch(requests, _farm(), n_clusters, **costs)
    assert actual == expected
    assert len(actual["finished"]) == len(requests)


@pytest.mark.parametrize("n_clusters", [1, 2, 4, 48])
def test_scaling_burst(n_clusters):
    requests = RequestGenerator(_tenants(), seed=0).burst(PER_TENANT)
    _assert_same(requests, n_clusters)


@pytest.mark.parametrize("n_clusters", [1, 2, 4, 8])
def test_conv_mlp_burst(n_clusters):
    tenant = TenantSpec(name="t", models=(
        ModelSpec("conv-tiny", build_model("conv-tiny")),
        ModelSpec("mlp-tiny", build_model("mlp-tiny")),
    ), rps=100.0)
    requests = RequestGenerator([tenant], seed=0).burst(12)
    _assert_same(requests, n_clusters)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_clusters", [1, 2, 4])
def test_scaling_tenants_poisson(seed, n_clusters):
    """The scaling tenants at 40x their rates for 0.05 s (~430 requests),
    with and without host-side elementwise and per-job offload costs."""
    tenants = [dataclasses.replace(tenant, rps=40 * tenant.rps)
               for tenant in _tenants()]
    requests = RequestGenerator(tenants, seed=seed).generate(0.05)
    assert len(requests) > 300
    for elementwise, offload in itertools.product((0.0, 3.0), (0.0, 30.0)):
        _assert_same(requests, n_clusters, offload_cycles_per_job=offload,
                     elementwise_cycles_per_element=elementwise)


@pytest.mark.parametrize("n_clusters", [1, 3])
def test_graph_precision_models(n_clusters):
    tenant = TenantSpec(name="edge", models=(
        ModelSpec("autoencoder-b1-fp8", build_model("autoencoder-b1-fp8")),
        ModelSpec("mlp-tiny-bf16", build_model("mlp-tiny-bf16")),
        ModelSpec("mlp-tiny", build_model("mlp-tiny")),
    ), rps=100.0)
    requests = RequestGenerator([tenant], seed=2).burst(6)
    _assert_same(requests, n_clusters, elementwise_cycles_per_element=1.0)


def test_telemetry_does_not_change_the_outcome():
    requests = RequestGenerator(_tenants(), seed=0).burst(4)
    traced = node_dispatch(requests, _farm(), 2)
    plain = ContinuousServer(n_clusters=2, farm=_farm(),
                             node_dispatch=True).simulate(requests)
    assert plain.makespan_cycles == traced["makespan"]
    assert plain.latency == traced["latency"]
    assert plain.tenants == traced["tenants"]
