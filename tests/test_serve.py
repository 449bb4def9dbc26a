"""Tests of the multi-tenant serving simulator (requests, server, report)."""

import itertools
import json
import math
from typing import NamedTuple

import pytest

from repro.farm import SimulationFarm
from repro.graph.zoo import build_model, mlp_training_graph
from repro.obs import Telemetry
from repro.obs.validate import validate_chrome_trace
from repro.serve import (
    ARRIVAL_KINDS,
    AdmissionPolicy,
    ArrivalSpec,
    AutoscalePolicy,
    ContinuousServer,
    LatencyStats,
    ModelSpec,
    Request,
    RequestGenerator,
    TenantSpec,
    percentile,
)


def _model_farm():
    return SimulationFarm(backend="model")


def _tenant(name="t0", rps=100.0, models=None):
    if models is None:
        models = (ModelSpec("mlp-tiny", build_model("mlp-tiny")),)
    return TenantSpec(name=name, models=models, rps=rps)


class TestSpecs:
    def test_tenant_validation(self):
        with pytest.raises(ValueError):
            TenantSpec(name="", models=(_tenant().models[0],), rps=1.0)
        with pytest.raises(ValueError):
            TenantSpec(name="t", models=(), rps=1.0)
        with pytest.raises(ValueError):
            _tenant(rps=0.0)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("", build_model("mlp-tiny"))
        with pytest.raises(ValueError):
            ModelSpec("m", build_model("mlp-tiny"), weight=0.0)

    def test_mix_weights_normalised(self):
        tenant = _tenant(models=(
            ModelSpec("a", build_model("mlp-tiny"), weight=3.0),
            ModelSpec("b", build_model("conv-tiny"), weight=1.0),
        ))
        assert tenant.mix_weights == [0.75, 0.25]

    def test_request_validation(self):
        with pytest.raises(ValueError):
            Request(request_id=0, tenant="t", model="m",
                    graph=build_model("mlp-tiny"), arrival_cycle=-1)


class TestGenerator:
    def test_deterministic_under_seed(self):
        tenants = [_tenant()]
        first = RequestGenerator(tenants, seed=3).generate(0.05)
        second = RequestGenerator(tenants, seed=3).generate(0.05)
        assert [(r.arrival_cycle, r.model) for r in first] == \
            [(r.arrival_cycle, r.model) for r in second]

    def test_different_seeds_differ(self):
        tenants = [_tenant(rps=2000.0)]
        first = RequestGenerator(tenants, seed=1).generate(0.05)
        second = RequestGenerator(tenants, seed=2).generate(0.05)
        assert [r.arrival_cycle for r in first] != \
            [r.arrival_cycle for r in second]

    def test_arrivals_sorted_and_renumbered(self):
        tenants = [_tenant("a", rps=500.0), _tenant("b", rps=500.0)]
        requests = RequestGenerator(tenants, seed=0).generate(0.05)
        arrivals = [r.arrival_cycle for r in requests]
        assert arrivals == sorted(arrivals)
        assert [r.request_id for r in requests] == list(range(len(requests)))
        assert {r.tenant for r in requests} == {"a", "b"}

    def test_rate_scales_request_count(self):
        slow = RequestGenerator([_tenant(rps=100.0)], seed=0).generate(0.2)
        fast = RequestGenerator([_tenant(rps=1000.0)], seed=0).generate(0.2)
        assert len(fast) > len(slow) > 0

    def test_mix_follows_weights(self):
        tenant = _tenant(models=(
            ModelSpec("common", build_model("mlp-tiny"), weight=9.0),
            ModelSpec("rare", build_model("conv-tiny"), weight=1.0),
        ), rps=5000.0)
        requests = RequestGenerator([tenant], seed=0).generate(0.1)
        commons = sum(r.model == "common" for r in requests)
        assert commons > len(requests) // 2

    def test_burst_arrives_at_zero(self):
        burst = RequestGenerator([_tenant()], seed=0).burst(5)
        assert len(burst) == 5
        assert all(r.arrival_cycle == 0 for r in burst)

    def test_validation(self):
        with pytest.raises(ValueError):
            RequestGenerator([], seed=0)
        with pytest.raises(ValueError):
            RequestGenerator([_tenant("x"), _tenant("x")], seed=0)
        with pytest.raises(ValueError):
            RequestGenerator([_tenant()], seed=0).generate(0.0)
        with pytest.raises(ValueError):
            RequestGenerator([_tenant()], seed=0).burst(0)


def _nodes(n_clusters, farm, **kwargs):
    """A node-dispatch server on ``farm``."""
    return ContinuousServer(n_clusters=n_clusters, farm=farm,
                            node_dispatch=True, **kwargs)


class _NodeRecord(NamedTuple):
    request_id: int
    node: str
    lane: str
    start: int
    end: int


def _node_trace(telemetry):
    """Every node placement recorded on the ``serve`` track: GEMM spans on
    ``cluster<N>`` lanes, host nodes as instants on lane ``host``."""
    records = []
    for _, track, lane, start, length, name, cat, attrs in telemetry.events():
        if cat != "node":
            continue
        assert track == "serve"
        end = start + (attrs["duration"] if lane == "host" else length)
        records.append(_NodeRecord(attrs["request_id"], name, lane,
                                   int(start), int(end)))
    return records


class TestNodeDispatchParity:
    """Acceptance criterion: one tenant + one cluster == serial farm timing."""

    @pytest.mark.parametrize("model", ["mlp-tiny", "autoencoder-b16",
                                       "transformer-tiny"])
    def test_single_cluster_makespan_equals_serial_timing(self, model):
        farm = _model_farm()
        graph = build_model(model)
        requests = RequestGenerator(
            [_tenant(models=(ModelSpec(model, graph),))], seed=0).burst(1)
        report = _nodes(1, farm).simulate(requests)
        serial = farm.time_program(graph.lower(config=farm.config))
        assert report.makespan_cycles == int(serial.cycles)
        assert report.completed == 1
        assert report.latency.p50 == report.makespan_cycles

    def test_queued_requests_serialise_on_one_cluster(self):
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        requests = RequestGenerator(
            [_tenant(models=(ModelSpec("mlp-tiny", graph),))],
            seed=0).burst(3)
        report = _nodes(1, farm).simulate(requests)
        serial = farm.time_program(graph.lower(config=farm.config))
        assert report.makespan_cycles == 3 * int(serial.cycles)

    @pytest.mark.parametrize("precision", ["bf16", "fp8-e4m3", "fp8-e5m2"])
    def test_routed_precision_is_timed_on_its_farm(self, precision):
        """A tenant-routed request is timed at its precision, exactly as
        the atomic mode and the routed farm's serial timing time it."""
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        routed = farm.with_format(precision)
        serial = int(round(routed.time_program(
            graph.lower(config=routed.config)).cycles))
        report = _nodes(1, farm).simulate([Request(
            request_id=0, tenant="t", model="m", graph=graph,
            arrival_cycle=0, precision=precision)])
        assert report.makespan_cycles == serial
        atomic = ContinuousServer(n_clusters=1, farm=farm)
        assert atomic.service_cycles(graph, precision) == serial


class TestNodeDispatch:
    def test_dependencies_respected_in_trace(self):
        farm = _model_farm()
        graph = build_model("transformer-tiny")
        requests = RequestGenerator(
            [_tenant(models=(ModelSpec("t", graph),))], seed=0).burst(2)
        telemetry = Telemetry()
        _nodes(3, farm, telemetry=telemetry).simulate(requests)
        trace = _node_trace(telemetry)
        program = graph.lower(config=farm.config)
        assert len(trace) == 2 * len(program.nodes)
        deps_of = {node.name: node.deps for node in program.nodes}
        finished = {(r.request_id, r.node): r.end for r in trace}
        for record in trace:
            for dep in deps_of[record.node]:
                assert record.start >= finished[(record.request_id, dep)]

    def test_identical_chain_requests_overlap_on_two_clusters(self):
        farm = _model_farm()
        # A forward-only MLP is a pure chain: no intra-request parallelism,
        # so two requests on two clusters finish in the time of one.
        from repro.graph.zoo import mlp_forward_graph

        graph = mlp_forward_graph((64, 32, 16, 8), batch=8)
        requests = RequestGenerator(
            [_tenant(models=(ModelSpec("m", graph),))], seed=0).burst(2)
        serial = int(farm.time_program(graph.lower(config=farm.config)).cycles)
        report = _nodes(2, farm).simulate(requests)
        assert report.makespan_cycles == serial
        assert report.completed == 2

    def test_training_requests_share_the_pool_productively(self):
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        requests = RequestGenerator(
            [_tenant(models=(ModelSpec("m", graph),))], seed=0).burst(2)
        serial = int(farm.time_program(graph.lower(config=farm.config)).cycles)
        report = _nodes(2, farm).simulate(requests)
        # The training graph has dw/dx parallelism, so the pool is never
        # idle (busy cycles account for every cycle of work) and the
        # makespan lands strictly between the one-request serial time and
        # the fully-serialised two requests.
        assert serial <= report.makespan_cycles < 2 * serial
        assert report.busy_cycles == 2 * serial

    def test_no_cluster_runs_two_nodes_at_once(self):
        farm = _model_farm()
        requests = RequestGenerator([_tenant()], seed=0).burst(4)
        telemetry = Telemetry()
        _nodes(2, farm, telemetry=telemetry).simulate(requests)
        per_lane = {}
        for record in _node_trace(telemetry):
            if record.lane == "host":
                continue  # elementwise nodes run host-side, off the pool
            per_lane.setdefault(record.lane, []).append(
                (record.start, record.end))
        # Lanes number the clusters the way the pool's lowest-free order
        # hands them out.
        assert set(per_lane) == {"cluster0", "cluster1"}
        for spans in per_lane.values():
            spans.sort()
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert start >= end

    def test_arrival_gates_start(self):
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        late = [Request(request_id=0, tenant="t", model="m", graph=graph,
                        arrival_cycle=10_000)]
        telemetry = Telemetry()
        report = _nodes(1, farm, telemetry=telemetry).simulate(late)
        assert min(r.start for r in _node_trace(telemetry)) >= 10_000
        serial = int(farm.time_program(graph.lower(config=farm.config)).cycles)
        assert report.latency.max == serial  # waited for nothing else

    def test_deterministic_simulation(self):
        farm = _model_farm()
        requests = RequestGenerator(
            [_tenant("a", rps=300.0), _tenant("b", rps=300.0)],
            seed=5).generate(0.05)
        first = _nodes(2, farm).simulate(requests)
        second = _nodes(2, farm).simulate(requests)
        assert first.makespan_cycles == second.makespan_cycles
        assert first.latency == second.latency

    def test_elementwise_cost_charged_when_configured(self):
        farm = _model_farm()
        graph = mlp_training_graph((8, 6, 4), batch=2, name="tiny")
        requests = [Request(request_id=0, tenant="t", model="m",
                            graph=graph, arrival_cycle=0)]
        base = _nodes(1, farm).simulate(requests)
        priced = _nodes(1, farm, elementwise_cycles_per_element=2.0
                        ).simulate(requests)
        program = graph.lower(config=farm.config)
        elementwise = sum(node.elements for node in program.nodes
                          if not node.is_gemm)
        assert priced.makespan_cycles == \
            base.makespan_cycles + 2 * elementwise

    def test_offload_cost_charged_per_job(self):
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        requests = [Request(request_id=0, tenant="t", model="m",
                            graph=graph, arrival_cycle=0)]
        base = _nodes(1, farm).simulate(requests)
        priced = _nodes(1, farm, offload_cycles_per_job=30.0
                        ).simulate(requests)
        program = graph.lower(config=farm.config)
        assert priced.makespan_cycles == \
            base.makespan_cycles + 30 * program.n_jobs

    def test_elementwise_nodes_run_host_side(self):
        """Elementwise nodes never occupy a cluster: the trace shows them
        on lane ``host`` and a priced relu does not block another
        request's ready GEMM."""
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        requests = RequestGenerator(
            [_tenant(models=(ModelSpec("m", graph),))], seed=0).burst(2)
        telemetry = Telemetry()
        report = _nodes(1, farm, elementwise_cycles_per_element=50.0,
                        telemetry=telemetry).simulate(requests)
        program = graph.lower(config=farm.config)
        host = [r for r in _node_trace(telemetry) if r.lane == "host"]
        assert {r.node for r in host} == {n.name for n in program.nodes
                                          if not n.is_gemm}
        # Cluster busy cycles account for accelerator work only, so with
        # one cluster and two requests the pool is saturated: while one
        # request sits in its host-side relu, the other's GEMMs run.
        serial_gemm = int(farm.time_program(program).cycles)
        assert report.busy_cycles == 2 * serial_gemm
        assert report.makespan_cycles < 2 * int(
            serial_gemm + 50 * sum(n.elements for n in program.nodes
                                   if not n.is_gemm))

    def test_program_memo_keyed_by_graph_identity(self):
        farm = _model_farm()
        server = _nodes(1, farm)
        graph_a = build_model("mlp-tiny")
        graph_b = build_model("conv-tiny")
        report = server.simulate([
            Request(request_id=0, tenant="t", model="a", graph=graph_a,
                    arrival_cycle=0),
            Request(request_id=1, tenant="t", model="b", graph=graph_b,
                    arrival_cycle=10**9)])
        # The memo retains the graph, so a dropped caller reference cannot
        # let a recycled object id alias a different model.
        assert set(server._programs) == {(graph_a, "fp16"),
                                         (graph_b, "fp16")}
        serial_b = farm.time_program(graph_b.lower(config=farm.config))
        assert report.makespan_cycles == 10**9 + int(serial_b.cycles)

    def test_incremental_api(self):
        """``run_until`` runs every pass at or before its cycle, so stepping
        the clock between arrivals leaves the outcome unchanged."""
        farm = _model_farm()
        requests = RequestGenerator([_tenant(rps=2000.0)],
                                    seed=3).generate(0.01)
        whole = _nodes(2, farm).simulate(requests)
        server = _nodes(2, farm)
        for request in requests:
            if request.arrival_cycle > server.now + 1:
                server.run_until(request.arrival_cycle - 1)
            server.offer(request)
        server.run_until(whole.makespan_cycles)
        assert server.in_flight == 0
        stepped = server.finalize()
        assert stepped.completed == whole.completed == len(requests)
        assert stepped.makespan_cycles == whole.makespan_cycles
        assert stepped.latency == whole.latency
        assert stepped.utilisation == whole.utilisation

    def test_cache_reuse_across_servers(self):
        farm = _model_farm()
        requests = RequestGenerator([_tenant()], seed=0).burst(2)
        _nodes(1, farm).simulate(requests)
        warm = _nodes(1, farm).simulate(requests)
        assert warm.cache_misses == 0
        assert warm.cache_hit_rate == 1.0

    def test_empty_request_list(self):
        report = _nodes(2, _model_farm()).simulate([])
        assert report.completed == 0
        assert report.makespan_cycles == 0
        assert report.utilisation == 0.0

    def test_trace_passes_the_chrome_validator(self):
        telemetry = Telemetry()
        requests = RequestGenerator(
            [_tenant("a"), _tenant("b", models=(
                ModelSpec("conv-tiny", build_model("conv-tiny")),))],
            seed=0).burst(3)
        _nodes(2, _model_farm(), telemetry=telemetry,
               elementwise_cycles_per_element=1.0).simulate(requests)
        trace = json.loads(json.dumps(telemetry.chrome_trace()))
        stats = validate_chrome_trace(trace)
        assert stats["phases"]["X"] > 0 and stats["phases"]["i"] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            _nodes(0, _model_farm())

    @pytest.mark.parametrize("cost", ["offload_cycles_per_job",
                                      "elementwise_cycles_per_element"])
    @pytest.mark.parametrize("value", [-1, math.nan, math.inf],
                             ids=["negative", "nan", "inf"])
    def test_costs_must_be_finite_and_non_negative(self, cost, value):
        with pytest.raises(ValueError, match="finite"):
            _nodes(1, _model_farm(), **{cost: value})

    @pytest.mark.parametrize("policy", [
        {"admission": AdmissionPolicy(max_queue=4)},
        {"autoscaler": AutoscalePolicy(max_clusters=2)},
    ], ids=["admission", "autoscaler"])
    def test_rejects_queueing_policies(self, policy):
        with pytest.raises(ValueError, match="node dispatch"):
            _nodes(1, _model_farm(), **policy)

    def test_rejects_decode_sessions(self):
        from repro.experiments.serve import decode_session_classes
        from repro.serve import decode_burst

        session = decode_session_classes(prefill=2, decode_steps=2)[0]
        server = _nodes(1, _model_farm())
        with pytest.raises(ValueError, match="decode"):
            server.offer(decode_burst([session], 1)[0])


class TestEngineBackend:
    def test_tiny_graph_through_the_cycle_accurate_engine(self):
        farm = SimulationFarm(backend="engine")
        graph = mlp_training_graph((8, 4), batch=2, name="micro")
        requests = [Request(request_id=0, tenant="t", model="micro",
                            graph=graph, arrival_cycle=0)]
        report = _nodes(1, farm).simulate(requests)
        serial = farm.time_program(graph.lower(config=farm.config))
        assert report.makespan_cycles == int(serial.cycles) > 0


class TestReport:
    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.95) == 95
        assert percentile(values, 0.99) == 99
        assert percentile(values, 1.0) == 100
        assert percentile([7.0], 0.5) == 7.0
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)

    def test_latency_stats(self):
        stats = LatencyStats.from_latencies([10, 20, 30, 40])
        assert stats.count == 4
        assert stats.mean == 25
        assert stats.p50 == 20
        assert stats.max == 40
        empty = LatencyStats.from_latencies([])
        assert empty.count == 0 and empty.p99 == 0.0

    def test_per_tenant_breakdown_and_models(self):
        farm = _model_farm()
        tenants = [
            _tenant("alpha", models=(ModelSpec("mlp-tiny",
                                               build_model("mlp-tiny")),)),
            _tenant("beta", models=(ModelSpec("conv-tiny",
                                              build_model("conv-tiny")),)),
        ]
        requests = RequestGenerator(tenants, seed=0).burst(3)
        report = _nodes(2, farm).simulate(requests)
        assert set(report.tenants) == {"alpha", "beta"}
        assert report.tenants["alpha"].completed == 3
        assert report.models == {"mlp-tiny": 3, "conv-tiny": 3}
        assert report.completed == 6

    def test_utilisation_bounds(self):
        farm = _model_farm()
        requests = RequestGenerator([_tenant()], seed=0).burst(6)
        report = _nodes(3, farm).simulate(requests)
        assert 0.0 < report.utilisation <= 1.0
        assert report.pool.pool_cycles == 3 * report.makespan_cycles

    def test_render_mentions_the_headline_numbers(self):
        farm = _model_farm()
        requests = RequestGenerator([_tenant()], seed=0).burst(2)
        report = _nodes(1, farm).simulate(requests, scenario="demo")
        text = report.render()
        assert "demo" in text
        assert "p95" in text
        assert "per tenant" in text
        assert "req/s" in text

    def test_throughput_metrics(self):
        farm = _model_farm()
        requests = RequestGenerator([_tenant()], seed=0).burst(4)
        report = _nodes(2, farm).simulate(requests)
        assert report.throughput_rps == pytest.approx(
            4 * report.frequency_hz / report.makespan_cycles)
        assert report.throughput_rps > 0


def _fields(request):
    return (request.request_id, request.tenant, request.model,
            request.arrival_cycle, request.precision)


class TestStreamingGeneration:
    """The lazy merged stream and the three arrival processes."""

    def _tenants(self):
        return [_tenant("a", rps=2000.0), _tenant("b", rps=1000.0)]

    @pytest.mark.parametrize("arrival", ARRIVAL_KINDS)
    def test_generate_is_the_materialised_stream(self, arrival):
        """Regression pin: the eager API is element-for-element the lazy
        stream under the same seed, for every arrival process."""
        tenants = self._tenants()
        eager = RequestGenerator(tenants, seed=7).generate(0.05, arrival)
        lazy = list(RequestGenerator(tenants, seed=7).stream(0.05, arrival))
        assert [_fields(r) for r in eager] == [_fields(r) for r in lazy]
        assert len(eager) > 0

    @pytest.mark.parametrize("arrival", ARRIVAL_KINDS)
    def test_stream_sorted_renumbered_deterministic(self, arrival):
        tenants = self._tenants()
        first = RequestGenerator(tenants, seed=1).generate(0.05, arrival)
        second = RequestGenerator(tenants, seed=1).generate(0.05, arrival)
        assert [_fields(r) for r in first] == [_fields(r) for r in second]
        arrivals = [r.arrival_cycle for r in first]
        assert arrivals == sorted(arrivals)
        assert all(cycle >= 0 for cycle in arrivals)
        assert [r.request_id for r in first] == list(range(len(first)))

    def test_stream_is_lazy(self):
        """A traffic window holding millions of requests costs nothing
        until pulled: take ten requests off the front and stop."""
        generator = RequestGenerator([_tenant(rps=1e6)], seed=0)
        head = list(itertools.islice(generator.stream(100.0), 10))
        assert len(head) == 10
        assert [r.request_id for r in head] == list(range(10))

    def test_tenant_precision_is_stamped(self):
        tenant = TenantSpec(name="fp8", models=_tenant().models, rps=500.0,
                            precision="fp8-e4m3")
        requests = RequestGenerator([tenant, _tenant("fp16", rps=500.0)],
                                    seed=0).generate(0.05)
        by_tenant = {r.tenant: r.precision for r in requests}
        assert by_tenant == {"fp8": "fp8-e4m3", "fp16": None}
        burst = RequestGenerator([tenant], seed=0).burst(3)
        assert all(r.precision == "fp8-e4m3" for r in burst)

    def test_arrival_kinds_hit_the_mean_rate(self):
        """All three processes are rate-normalised: the realised request
        count stays near rps * duration (deterministic under the seed)."""
        expected = 2000.0 * 0.25
        for arrival in ARRIVAL_KINDS:
            count = len(RequestGenerator([_tenant(rps=2000.0)],
                                         seed=11).generate(0.25, arrival))
            assert 0.7 * expected < count < 1.3 * expected, (arrival, count)

    def test_diurnal_peak_leads_the_trough(self):
        """With one sinusoid period over the window, the first half (rate
        above the mean) must see more arrivals than the second."""
        spec = ArrivalSpec(kind="diurnal", diurnal_amplitude=0.8)
        generator = RequestGenerator([_tenant(rps=2000.0)], seed=2)
        requests = generator.generate(0.2, spec)
        midpoint = 0.1 * generator.frequency_hz
        first = sum(r.arrival_cycle < midpoint for r in requests)
        second = len(requests) - first
        assert first > 1.5 * second

    def test_bursty_is_burstier_than_poisson(self):
        """The MMPP stream concentrates arrivals: its maximum per-window
        count must exceed the Poisson stream's at the same mean rate."""
        generator = RequestGenerator([_tenant(rps=2000.0)], seed=4)
        window = int(0.01 * generator.frequency_hz)

        def peak(arrival):
            counts = {}
            for request in generator.stream(0.5, arrival):
                counts[request.arrival_cycle // window] = (
                    counts.get(request.arrival_cycle // window, 0) + 1)
            return max(counts.values())

        assert peak("bursty") > 1.5 * peak("poisson")

    def test_burst_unchanged_by_streaming_refactor(self):
        """Closed-loop bursts still draw from the historical rng stream, so
        the committed scaling-benchmark baselines stay valid."""
        tenant = _tenant(models=(
            ModelSpec("common", build_model("mlp-tiny"), weight=9.0),
            ModelSpec("rare", build_model("conv-tiny"), weight=1.0),
        ))
        first = RequestGenerator([tenant], seed=3).burst(20)
        second = RequestGenerator([tenant], seed=3).burst(20)
        assert [r.model for r in first] == [r.model for r in second]
        assert all(r.arrival_cycle == 0 for r in first)

    def test_arrival_spec_validation(self):
        with pytest.raises(ValueError):
            ArrivalSpec(kind="lunar")
        with pytest.raises(ValueError):
            ArrivalSpec(kind="diurnal", diurnal_amplitude=1.5)
        with pytest.raises(ValueError):
            ArrivalSpec(kind="diurnal", diurnal_period_s=0.0)
        with pytest.raises(ValueError):
            ArrivalSpec(kind="bursty", burst_factor=1.0)
        with pytest.raises(ValueError):
            ArrivalSpec(kind="bursty", burst_fraction=0.0)
        with pytest.raises(ValueError):
            # fraction * factor >= 1 leaves no quiet-state rate.
            ArrivalSpec(kind="bursty", burst_factor=8.0, burst_fraction=0.2)
        with pytest.raises(ValueError):
            ArrivalSpec(kind="bursty", burst_cycle_s=0.0)
        assert ArrivalSpec.of("poisson").kind == "poisson"
        spec = ArrivalSpec(kind="bursty")
        assert ArrivalSpec.of(spec) is spec

    def test_tenant_precision_validation(self):
        with pytest.raises(ValueError, match="unknown element format"):
            TenantSpec(name="t", models=_tenant().models, rps=1.0,
                       precision="fp4-imaginary")


class TestContinuousServer:
    def _request(self, request_id, graph, arrival, tenant="t",
                 precision=None):
        return Request(request_id=request_id, tenant=tenant, model="m",
                       graph=graph, arrival_cycle=arrival,
                       precision=precision)

    def _serial(self, farm, graph, precision=None):
        timing = farm.with_format(precision) if precision else farm
        program = graph.lower(config=timing.config)
        return int(round(timing.time_program(program).cycles))

    @pytest.mark.parametrize("model", ["mlp-tiny", "autoencoder-b16"])
    def test_conservation_single_request(self, model):
        """One cluster x one request == the serial farm makespan -- the
        conservation law of the atomic mode."""
        farm = _model_farm()
        graph = build_model(model)
        server = ContinuousServer(n_clusters=1, farm=farm, backend="model")
        report = server.simulate([self._request(0, graph, 0)])
        assert report.makespan_cycles == self._serial(farm, graph)
        assert report.completed == 1
        assert report.latency.p50 == report.makespan_cycles

    def test_queued_requests_serialise_on_one_cluster(self):
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        server = ContinuousServer(n_clusters=1, farm=farm, backend="model")
        report = server.simulate(
            [self._request(i, graph, 0) for i in range(3)])
        assert report.makespan_cycles == 3 * self._serial(farm, graph)
        assert report.completed == 3

    def test_two_clusters_overlap(self):
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        server = ContinuousServer(n_clusters=2, farm=farm, backend="model")
        report = server.simulate(
            [self._request(i, graph, 0) for i in range(2)])
        assert report.makespan_cycles == self._serial(farm, graph)

    def test_precision_routing_through_derived_farm(self):
        """An FP8-stamped request is timed through the per-precision farm:
        faster than FP16, and exactly the derived farm's serial timing."""
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        server = ContinuousServer(n_clusters=1, farm=farm, backend="model")
        fp16 = server.service_cycles(graph)
        fp8 = server.service_cycles(graph, "fp8-e4m3")
        assert fp8 < fp16
        assert fp8 == self._serial(farm, graph, "fp8-e4m3")
        report = server.simulate(
            [self._request(0, graph, 0, precision="fp8-e4m3")])
        assert report.makespan_cycles == fp8

    def test_service_memo_skips_the_farm(self):
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        server = ContinuousServer(n_clusters=1, farm=farm, backend="model")
        report = server.simulate(
            [self._request(i, graph, 0) for i in range(5)])
        assert report.memo_misses == 1
        assert report.memo_hits == 4
        assert report.jobs_timed > 0  # only the priming run dispatched

    def test_offers_must_be_arrival_ordered(self):
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        server = ContinuousServer(n_clusters=1, farm=farm, backend="model")
        server.offer(self._request(0, graph, 100))
        with pytest.raises(ValueError):
            server.offer(self._request(1, graph, 50))
        with pytest.raises(ValueError):
            server.run_until(server.now - 1 if server.now else -1)

    def test_incremental_api(self):
        """offer / run_until / drain / finalize compose deterministically."""
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        serial = self._serial(farm, graph)
        server = ContinuousServer(n_clusters=1, farm=farm, backend="model")
        assert server.offer(self._request(0, graph, 0))
        assert server.offer(self._request(1, graph, 0))
        assert server.in_flight == 1 and server.queue_depth == 1
        server.run_until(serial)  # first completion dispatches the queue
        assert server.in_flight == 1 and server.queue_depth == 0
        server.drain()
        assert server.in_flight == 0
        report = server.finalize("demo")
        assert report.scenario == "demo"
        assert report.makespan_cycles == 2 * serial
        assert report.completed == report.admitted == report.offered == 2

    def test_admission_queue_bound(self):
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        server = ContinuousServer(
            n_clusters=1, farm=farm, backend="model",
            admission=AdmissionPolicy(max_queue=1))
        outcomes = [server.offer(self._request(i, graph, 0))
                    for i in range(3)]
        assert outcomes == [True, True, False]  # dispatch, queue, reject
        report = server.simulate([], scenario="x")
        assert report.rejected == 1
        assert report.completed + report.rejected == report.offered
        assert server.rejection_reasons == {"queue": 1}
        assert report.rejected_by_tenant == {"t": 1}

    def test_admission_fairness_caps_a_flooding_tenant(self):
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        server = ContinuousServer(
            n_clusters=1, farm=farm, backend="model",
            admission=AdmissionPolicy(
                max_queue=10, fair_share=1.0,
                tenant_weights={"greedy": 1.0, "polite": 1.0}))
        # Occupy the cluster, then let one tenant flood the queue: its cap
        # is fair_share * (1/2) * max_queue = 5 queued requests.
        server.offer(self._request(0, graph, 0, tenant="polite"))
        outcomes = [server.offer(self._request(1 + i, graph, 0,
                                               tenant="greedy"))
                    for i in range(7)]
        assert outcomes == [True] * 5 + [False] * 2
        assert server.rejection_reasons == {"fairness": 2}
        # The other tenant still gets in below its own cap.
        assert server.offer(self._request(8, graph, 0, tenant="polite"))

    def test_admission_slo_sheds_doomed_requests(self):
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        serial = self._serial(farm, graph)
        server = ContinuousServer(
            n_clusters=1, farm=farm, backend="model",
            admission=AdmissionPolicy(slo_p99_cycles=1.5 * serial))
        first = server.offer(self._request(0, graph, 0))   # dispatches
        second = server.offer(self._request(1, graph, 0))  # queues (1.0x)
        third = server.offer(self._request(2, graph, 0))   # projected 2.0x
        assert (first, second, third) == (True, True, False)
        assert server.rejection_reasons == {"slo": 1}

    def test_autoscaler_grows_after_the_provision_delay(self):
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        server = ContinuousServer(
            n_clusters=1, farm=farm, backend="model",
            autoscaler=AutoscalePolicy(
                min_clusters=1, max_clusters=4, interval_cycles=100,
                queue_per_cluster=1, provision_delay_cycles=1000))
        for i in range(8):
            server.offer(self._request(i, graph, 0))
        server.run_until(100)   # evaluation: decides to grow ...
        assert server.n_clusters == 1
        server.run_until(1099)  # ... but capacity is still provisioning
        assert server.n_clusters == 1
        server.run_until(1100)  # provisioned capacity joins the pool
        assert server.n_clusters == 4
        assert server.in_flight == 4
        server.drain()
        report = server.finalize()
        assert report.completed == 8
        assert report.pool.scale_ups == 3
        assert report.pool.max_clusters == 4

    def test_autoscaler_retires_idle_clusters(self):
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        server = ContinuousServer(
            n_clusters=4, farm=farm, backend="model",
            autoscaler=AutoscalePolicy(
                min_clusters=1, max_clusters=4, interval_cycles=100,
                queue_per_cluster=1, scale_down_occupancy=0.25))
        report = server.simulate([self._request(0, graph, 0)])
        assert report.pool.scale_downs >= 1
        assert report.pool.final_clusters < 4
        assert report.pool.final_clusters >= 1
        assert report.completed == 1

    def test_force_scale_is_bounded(self):
        farm = _model_farm()
        server = ContinuousServer(n_clusters=2, farm=farm, backend="model")
        assert server.force_scale(3) == 3
        assert server.n_clusters == 5
        # Shrinks stop at one cluster even when everything is idle.
        assert server.force_scale(-10) == -4
        assert server.n_clusters == 1

    def test_pool_utilisation_accounts_resizes(self):
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        serial = self._serial(farm, graph)
        server = ContinuousServer(n_clusters=1, farm=farm, backend="model")
        report = server.simulate([self._request(0, graph, 0)])
        assert report.pool.pool_cycles == pytest.approx(serial)
        assert report.utilisation == pytest.approx(1.0)
        assert report.mean_clusters == pytest.approx(1.0)

    def test_streaming_report_matches_exact_for_small_runs(self):
        """Below the reservoir size the streaming percentiles are exact, so
        the continuous report is bit-identical to a kept-everything sort."""
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        requests = [self._request(i, graph, 0) for i in range(9)]
        server = ContinuousServer(n_clusters=2, farm=farm, backend="model",
                                  keep_latencies=True)
        report = server.simulate(requests)
        exact = LatencyStats.from_latencies(server.latencies)
        assert report.latency == exact

    def test_validation(self):
        farm = _model_farm()
        with pytest.raises(ValueError):
            ContinuousServer(n_clusters=0, farm=farm)
        with pytest.raises(ValueError):
            ContinuousServer(n_clusters=8, farm=farm,
                             autoscaler=AutoscalePolicy(max_clusters=4))
        with pytest.raises(ValueError):
            AdmissionPolicy(max_queue=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(fair_share=0.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(tenant_weights={"t": 0.0})
        with pytest.raises(ValueError):
            AutoscalePolicy(min_clusters=0)
        with pytest.raises(ValueError):
            AutoscalePolicy(interval_cycles=0)
        with pytest.raises(ValueError):
            AutoscalePolicy(scale_down_occupancy=1.5)
        with pytest.raises(ValueError):
            AutoscalePolicy(window=4)

    def test_render_mentions_the_headline_numbers(self):
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        server = ContinuousServer(
            n_clusters=1, farm=farm, backend="model",
            admission=AdmissionPolicy(max_queue=1))
        report = server.simulate(
            [self._request(i, graph, 0) for i in range(3)],
            scenario="continuous-demo")
        text = report.render()
        assert "continuous-demo" in text
        assert "rejected" in text
        assert "pool" in text
        assert "memo" in text


class TestWindowP99:
    """Edge cases of the autoscaler's sliding completion-latency window."""

    def _server(self, n_clusters=1, window=8):
        return ContinuousServer(
            n_clusters=n_clusters, farm=_model_farm(), backend="model",
            autoscaler=AutoscalePolicy(
                min_clusters=1, max_clusters=8, interval_cycles=100,
                slo_p99_cycles=1000.0, window=window))

    def test_empty_window_yields_none(self):
        assert self._server()._window_p99() is None

    def test_no_slo_means_no_window_at_all(self):
        server = ContinuousServer(
            n_clusters=1, farm=_model_farm(), backend="model",
            autoscaler=AutoscalePolicy(interval_cycles=100))
        assert server._window is None
        assert server._window_p99() is None

    def test_single_sample_is_its_own_p99(self):
        server = self._server()
        server._window.append(137)
        assert server._window_p99() == 137.0

    def test_p99_rank_over_a_full_window(self):
        server = self._server(window=100)
        server._window.extend(range(1, 101))  # 1..100
        # ceil(0.99 * 100) = 99 -> the 99th order statistic.
        assert server._window_p99() == 99.0

    def test_window_is_bounded_to_the_policy_size(self):
        server = self._server(window=8)
        server._window.extend(range(20))
        assert list(server._window) == list(range(12, 20))
        assert server._window_p99() == 19.0

    def test_window_spans_an_autoscale_resize(self):
        """Samples recorded before a pool resize stay in the window: the
        p99 after ``force_scale`` still reflects the pre-resize latencies
        until they age out of the deque."""
        graph = build_model("mlp-tiny")
        server = self._server(n_clusters=1, window=8)
        server.simulate([Request(request_id=i, tenant="t", model="m",
                                 graph=graph, arrival_cycle=0)
                         for i in range(3)])
        before = list(server._window)
        assert len(before) == 3  # one latency per completion
        applied = server.force_scale(2)
        assert applied == 2
        assert list(server._window) == before  # resize drops no samples
        p99_before = server._window_p99()
        assert p99_before == float(max(before))
        # Completions on the grown pool fold into the same window.
        server._window.append(int(p99_before) * 10)
        assert server._window_p99() == float(int(p99_before) * 10)
