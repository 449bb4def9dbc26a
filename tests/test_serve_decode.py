"""Decode sessions on the continuous loop: conservation, batching, joins."""

import dataclasses
import hashlib

import pytest

from repro.experiments.serve import decode_session_classes
from repro.farm import SimulationFarm
from repro.graph import build_decode_spec, decode_step_graph
from repro.graph.llm import decode_attention_graph, decode_shared_graph
from repro.serve import (
    AdmissionPolicy,
    AutoscalePolicy,
    ContinuousServer,
    DecodeSessionSpec,
    Request,
    decode_burst,
    decode_session_stream,
)

TINY = build_decode_spec("llm-decode-tiny")
KV8 = build_decode_spec("llm-decode-tiny-kv8")


@pytest.fixture(scope="module")
def farm():
    return SimulationFarm(backend="model")


def _serial_cycles(farm, spec, positions, precision=None):
    """The oracle: the serial sum of per-step ``time_program`` makespans."""
    effective = precision or farm.config.format
    pfarm = farm.with_format(effective)
    total = 0
    for position in positions:
        program = decode_step_graph(spec, position).lower(config=pfarm.config)
        total += int(round(pfarm.time_program(program).cycles))
    return total


# -- the conservation law -----------------------------------------------------
@pytest.mark.parametrize("spec", [TINY, KV8],
                         ids=["fp16", "kv8"])
@pytest.mark.parametrize("precision", [None, "fp8-e4m3"],
                         ids=["default", "routed-fp8"])
def test_decode_conservation_one_session_one_cluster(farm, spec, precision):
    """A 1-session run on one cluster takes exactly the serial sum of its
    per-step farm makespans -- for every (spec, routed precision) pair."""
    session = DecodeSessionSpec(spec=spec, prefill=3, decode_steps=5)
    requests = decode_burst([session], 1, precision=precision)
    server = ContinuousServer(n_clusters=1, farm=farm)
    report = server.simulate(requests, scenario="conservation")
    expected = _serial_cycles(farm, spec, session.positions, precision)
    assert report.makespan_cycles == expected
    assert report.decode_sessions == 1
    assert report.decode_steps == session.decode_steps
    assert report.decode_batched_steps == 0
    # The admission-time estimate is the same serial quantity.
    assert server.decode_session_cycles(session, precision) == expected


def test_session_spec_validation():
    with pytest.raises(ValueError, match="context limit"):
        DecodeSessionSpec(spec=TINY, prefill=TINY.context_limit,
                          decode_steps=1)
    with pytest.raises(ValueError, match="at least one"):
        DecodeSessionSpec(spec=TINY, prefill=0, decode_steps=0)
    with pytest.raises(ValueError, match="workload graph or a decode"):
        Request(request_id=0, tenant="t", model="m", graph=None,
                arrival_cycle=0)
    spec = DecodeSessionSpec(spec=TINY, prefill=2, decode_steps=3)
    assert list(spec.positions) == [2, 3, 4]
    assert spec.model == TINY.name


# -- batched step cost model --------------------------------------------------
def test_batched_step_cost_is_shared_plus_attention(farm):
    """Two sessions stepping together cost one shared(2) half plus both
    members' attention halves -- pinned against the graph-level oracle."""
    session = DecodeSessionSpec(spec=TINY, prefill=4, decode_steps=2)
    server = ContinuousServer(n_clusters=1, farm=farm, batch_cap=2)
    report = server.simulate(decode_burst([session], 2), scenario="pair")

    def step_cost(position):
        program = decode_step_graph(TINY, position).lower(config=farm.config)
        return int(round(farm.time_program(program).cycles))

    def shared_cost(batch):
        program = decode_shared_graph(TINY, batch).lower(config=farm.config)
        return farm.time_program(program).cycles

    def attn_cost(position):
        program = decode_attention_graph(TINY, position).lower(
            config=farm.config)
        return farm.time_program(program).cycles

    # Arrival order at cycle 0: the first session starts a solo group, the
    # second joins at the first step boundary.  Steps: A@4 solo, then
    # (A@5, B@4) batched, then B@5 solo.
    expected = (step_cost(4)
                + int(round(shared_cost(2) + attn_cost(5) + attn_cost(4)))
                + step_cost(5))
    assert report.makespan_cycles == expected
    assert report.decode_steps == 3
    assert report.decode_batched_steps == 1
    assert report.decode_max_occupancy == 2


def test_join_and_leave_at_the_same_step_boundary(farm):
    """A session absorbed at the exact boundary where another finishes:
    the group never releases its cluster between them."""
    short = DecodeSessionSpec(spec=TINY, prefill=4, decode_steps=1)
    step4 = _serial_cycles(farm, TINY, [4])
    server = ContinuousServer(n_clusters=1, farm=farm, batch_cap=2)
    server.offer(Request(request_id=0, tenant="t", model=short.model,
                         graph=None, arrival_cycle=0, decode=short))
    # Arrives mid-step; absorbed at the boundary where session 0 leaves.
    server.offer(Request(request_id=1, tenant="t", model=short.model,
                         graph=None, arrival_cycle=step4 // 2, decode=short))
    server.drain()
    report = server.finalize()
    assert report.decode_sessions == 2
    # Both steps ran solo back-to-back on the one uninterrupted group.
    assert report.makespan_cycles == 2 * step4
    assert report.decode_steps == 2
    assert report.decode_batched_steps == 0
    assert server.decode_active == 0
    assert server.in_flight == 0


def test_join_at_exact_boundary_event_cycle(farm):
    """An arrival landing on the same cycle as a step event is ordered
    after it (completions/steps first), so it joins the next step."""
    two = DecodeSessionSpec(spec=TINY, prefill=4, decode_steps=2)
    one = DecodeSessionSpec(spec=TINY, prefill=4, decode_steps=1)
    step4 = _serial_cycles(farm, TINY, [4])
    step5 = _serial_cycles(farm, TINY, [5])
    server = ContinuousServer(n_clusters=1, farm=farm, batch_cap=2)
    server.offer(Request(request_id=0, tenant="t", model=two.model,
                         graph=None, arrival_cycle=0, decode=two))
    server.offer(Request(request_id=1, tenant="t", model=one.model,
                         graph=None, arrival_cycle=step4, decode=one))
    server.drain()
    report = server.finalize()
    # A@4 solo, A@5 solo (joiner absorbed at next boundary), B@4 solo.
    assert report.makespan_cycles == 2 * step4 + step5
    assert report.decode_steps == 3
    assert report.decode_batched_steps == 0
    assert report.decode_sessions == 2


# -- batching throughput ------------------------------------------------------
def test_continuous_batching_beats_serial(farm):
    session = DecodeSessionSpec(spec=TINY, prefill=8, decode_steps=8)
    burst = decode_burst([session], 8)
    unbatched = ContinuousServer(n_clusters=1, farm=farm,
                                 batch_cap=1).simulate(burst)
    batched = ContinuousServer(n_clusters=1, farm=farm,
                               batch_cap=8).simulate(burst)
    assert unbatched.decode_sessions == batched.decode_sessions == 8
    assert unbatched.decode_max_occupancy == 1
    assert batched.decode_max_occupancy == 8
    speedup = unbatched.makespan_cycles / batched.makespan_cycles
    assert speedup >= 2.0, f"batching speedup only {speedup:.2f}x"


def test_batch_groups_keyed_by_spec_and_precision(farm):
    """Different specs (or routed precisions) never share a batch group."""
    a = DecodeSessionSpec(spec=TINY, prefill=4, decode_steps=4)
    b = DecodeSessionSpec(spec=KV8, prefill=4, decode_steps=4)
    requests = decode_burst([a, b], 8)
    server = ContinuousServer(n_clusters=2, farm=farm, batch_cap=8)
    report = server.simulate(requests)
    assert report.decode_sessions == 8
    # Round-robin burst: 4 of each class, so no group ever exceeds 4.
    assert report.decode_max_occupancy <= 4
    assert report.decode_batched_steps > 0


# -- queueing, admission, autoscaling ----------------------------------------
def test_decode_queue_respects_max_queue(farm):
    session = DecodeSessionSpec(spec=TINY, prefill=2, decode_steps=2)
    server = ContinuousServer(
        n_clusters=1, farm=farm, batch_cap=1,
        admission=AdmissionPolicy(max_queue=2))
    report = server.simulate(decode_burst([session], 8))
    assert report.offered == 8
    assert report.admitted + report.rejected == 8
    assert report.rejected > 0
    assert server.rejection_reasons.get("queue", 0) == report.rejected
    assert report.completed == report.admitted == report.decode_sessions


def test_decode_queue_drives_autoscaler(farm):
    session = DecodeSessionSpec(spec=TINY, prefill=2, decode_steps=4)
    server = ContinuousServer(
        n_clusters=1, farm=farm, batch_cap=1,
        autoscaler=AutoscalePolicy(min_clusters=1, max_clusters=4,
                                   interval_cycles=1000,
                                   queue_per_cluster=1))
    report = server.simulate(decode_burst([session], 12))
    assert report.decode_sessions == 12
    assert report.pool.scale_ups > 0
    assert server.decode_queue_depth == 0


def test_decode_session_stream_serves_clean(farm):
    sessions = (DecodeSessionSpec(spec=TINY, prefill=4, decode_steps=4),
                DecodeSessionSpec(spec=KV8, prefill=4, decode_steps=4))
    stream = decode_session_stream(sessions, rps=20_000.0, duration_s=0.002,
                                   seed=3)
    server = ContinuousServer(n_clusters=2, farm=farm, batch_cap=4)
    report = server.simulate(stream, scenario="stream")
    assert report.offered > 0
    assert report.completed == report.admitted == report.offered
    assert report.decode_sessions == report.completed
    assert server.decode_active == 0
    assert server.in_flight == 0
    assert "decode" in report.render()


def test_mixed_atomic_and_decode_traffic(farm):
    """Atomic requests and decode sessions share the pool and the
    accounting closes across both kinds."""
    from repro.graph import build_model

    graph = build_model("mlp-tiny")
    session = DecodeSessionSpec(spec=TINY, prefill=4, decode_steps=3)
    server = ContinuousServer(n_clusters=2, farm=farm, batch_cap=4)
    requests = sorted(
        [Request(request_id=i, tenant="atomic", model="mlp-tiny",
                 graph=graph, arrival_cycle=i * 500) for i in range(6)]
        + [Request(request_id=10 + i, tenant="decode", model=session.model,
                   graph=None, arrival_cycle=250 + i * 700, decode=session)
           for i in range(6)],
        key=lambda request: request.arrival_cycle)
    report = server.simulate(requests, scenario="mixed")
    assert report.offered == 12
    assert report.completed == 12
    assert report.decode_sessions == 6
    assert report.models["mlp-tiny"] == 6
    assert report.models[session.model] == 6
    assert server.in_flight == 0 and server.decode_active == 0


# -- pinned outputs -----------------------------------------------------------
def _pinned_fields(report):
    """The report fields a decode run must reproduce bit for bit."""
    return (report.offered, report.admitted, report.rejected,
            report.completed, report.makespan_cycles,
            dataclasses.astuple(report.latency), report.busy_cycles,
            report.memo_hits, report.memo_misses, report.decode_sessions,
            report.decode_steps, report.decode_batched_steps,
            report.decode_mean_occupancy, report.decode_max_occupancy,
            report.pool.pool_cycles, report.pool.scale_ups)


#: Two 60k sessions/s, 0.02 s streams of the serve-decode session mix:
#: (seed, server keyword arguments, sha256 of ``repr(_pinned_fields)``).
#: A: 1,189 sessions on 4 clusters, makespan 13,416,664, p50 126,755,
#: p99 165,175, 7,691 steps, memo 23,777 hits / 78 misses.  B: 1,231
#: offered on an autoscaled pool, 8 shed, makespan 13,407,475, p50
#: 106,155, p99 126,998, 11,881 steps, memo 24,992 / 70, 5 scale-ups.
_PINNED_DECODE_RUNS = {
    "four-clusters-cap8": (
        11, dict(n_clusters=4, batch_cap=8),
        "19e443390643589b4f5af340deb133bbdca884e126ea2be16079bc5328c5df54"),
    "autoscaled-cap4": (
        12, dict(n_clusters=1, batch_cap=4,
                 admission=AdmissionPolicy(max_queue=3),
                 autoscaler=AutoscalePolicy(
                     min_clusters=1, max_clusters=6, interval_cycles=50_000,
                     queue_per_cluster=1, slo_p99_cycles=150_000)),
        "6cc72d21a88b952588ab41b55ca71d49a4e056f0ac119c5b105aac9625fe2daf"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_DECODE_RUNS))
def test_decode_stream_reproduces_pinned_outputs(farm, name):
    """Admission, batching, step costs and autoscaling of two decode
    streams reproduce the recorded report fields exactly."""
    seed, kwargs, digest = _PINNED_DECODE_RUNS[name]
    stream = decode_session_stream(decode_session_classes(8, 16),
                                   rps=60_000.0, duration_s=0.02, seed=seed)
    report = ContinuousServer(farm=farm, backend="model",
                              **kwargs).simulate(stream)
    fields = _pinned_fields(report)
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == digest, \
        fields
