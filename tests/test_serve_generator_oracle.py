"""Differential oracle of the chunked request generator.

The generator draws each tenant's arrivals and model choices in numpy
chunks and merges tenants through a windowed stable sort.  The reference
here is the scalar formulation it replaced: one Python generator per
arrival process, a lazily drawn model-choice stream and a heap over
per-tenant ``(cycle, tenant)`` heads.  Both consume each tenant's rng in
the same order, so every request must match field for field: same ids,
tenants, models, arrival cycles, precisions and decode sessions.
"""

import hashlib
import heapq
import math

import numpy as np
import pytest

from repro.experiments.serve import decode_session_classes, million_tenants
from repro.graph.zoo import build_model
from repro.serve import (
    ArrivalSpec,
    ModelSpec,
    RequestGenerator,
    TenantSpec,
    decode_session_stream,
)
from repro.serve.requests import _CHUNK, _TAG_TENANT_STREAM

MLP = build_model("mlp-tiny")
CONV = build_model("conv-tiny")


# -- the scalar reference ----------------------------------------------------
def _poisson_times(rng, rps, duration_s):
    clock = 0.0
    scale = 1.0 / rps
    while True:
        for gap in rng.exponential(scale, _CHUNK).tolist():
            clock += gap
            if clock >= duration_s:
                return
            yield clock


def _diurnal_times(rng, rps, duration_s, spec):
    period = spec.diurnal_period_s or duration_s
    amplitude = spec.diurnal_amplitude
    lam_max = rps * (1.0 + amplitude)
    omega = 2.0 * math.pi / period
    clock = 0.0
    while True:
        gaps = rng.exponential(1.0 / lam_max, _CHUNK).tolist()
        accepts = rng.random(_CHUNK).tolist()
        for gap, u in zip(gaps, accepts):
            clock += gap
            if clock >= duration_s:
                return
            rate = rps * (1.0 + amplitude * math.sin(omega * clock))
            if u * lam_max < rate:
                yield clock


def _bursty_times(rng, rps, duration_s, spec):
    lam_burst = rps * spec.burst_factor
    lam_quiet = (rps * (1.0 - spec.burst_fraction * spec.burst_factor)
                 / (1.0 - spec.burst_fraction))
    mean_burst = spec.burst_cycle_s * spec.burst_fraction
    mean_quiet = spec.burst_cycle_s * (1.0 - spec.burst_fraction)
    clock = 0.0
    in_burst = False
    while clock < duration_s:
        sojourn = rng.exponential(mean_burst if in_burst else mean_quiet)
        end = min(clock + sojourn, duration_s)
        scale = 1.0 / (lam_burst if in_burst else lam_quiet)
        t = clock
        over = False
        while not over:
            for gap in rng.exponential(scale, _CHUNK).tolist():
                t += gap
                if t >= end:
                    over = True
                    break
                yield t
        clock = end
        in_burst = not in_burst


def _arrival_times(rng, rps, duration_s, spec):
    if spec.kind == "poisson":
        return _poisson_times(rng, rps, duration_s)
    if spec.kind == "diurnal":
        return _diurnal_times(rng, rps, duration_s, spec)
    return _bursty_times(rng, rps, duration_s, spec)


def _model_indices(rng, weights):
    n_models = len(weights)
    if n_models == 1:
        while True:
            yield 0
    probabilities = np.asarray(weights)
    while True:
        for index in rng.choice(n_models, _CHUNK, p=probabilities).tolist():
            yield int(index)


def _reference_stream(tenants, duration_s, arrival, seed, frequency_hz):
    """Field tuples of the heap-merged scalar stream."""
    spec = ArrivalSpec.of(arrival)
    arrivals, models, heads = [], [], []
    for index, tenant in enumerate(tenants):
        rng = np.random.default_rng(np.random.SeedSequence(
            (seed, _TAG_TENANT_STREAM, index)))
        times = _arrival_times(rng, tenant.rps, duration_s, spec)
        arrivals.append(times)
        models.append(_model_indices(rng, tenant.mix_weights))
        first = next(times, None)
        if first is not None:
            heads.append((int(first * frequency_hz), index))
    heapq.heapify(heads)
    request_id = 0
    while heads:
        cycle, index = heapq.heappop(heads)
        tenant = tenants[index]
        model = tenant.models[next(models[index])]
        yield (request_id, tenant.name, model.name, model.graph, cycle,
               tenant.precision, None)
        request_id += 1
        nxt = next(arrivals[index], None)
        if nxt is not None:
            heapq.heappush(heads, (int(nxt * frequency_hz), index))


def _reference_decode_stream(sessions, rps, duration_s, frequency_hz, seed):
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    choices = _model_indices(rng, [1.0 / len(sessions)] * len(sessions))
    for request_id, time_s in enumerate(_poisson_times(rng, rps,
                                                       duration_s)):
        session = sessions[next(choices)]
        yield (request_id, "decode", session.model, None,
               int(time_s * frequency_hz), None, session)


def _fields(request):
    return (request.request_id, request.tenant, request.model, request.graph,
            request.arrival_cycle, request.precision, request.decode)


def _assert_same(tenants, duration_s, arrival, seed=0):
    generator = RequestGenerator(tenants, seed=seed)
    chunked = [_fields(r) for r in generator.stream(duration_s, arrival)]
    reference = list(_reference_stream(tenants, duration_s, arrival, seed,
                                       generator.frequency_hz))
    assert chunked == reference
    assert chunked, "the case must generate traffic"
    return chunked


# -- cases ---------------------------------------------------------------------
def _mixed_tenants(rps):
    return [
        TenantSpec("mix", (ModelSpec("mlp", MLP, weight=2.0),
                           ModelSpec("conv", CONV, weight=1.0)), rps=rps),
        TenantSpec("one", (ModelSpec("mlp", MLP),), rps=rps * 0.4,
                   precision="fp8-e4m3"),
        TenantSpec("rare", (ModelSpec("conv", CONV, weight=1.0),
                            ModelSpec("mlp", MLP, weight=5.0)),
                   rps=rps * 0.05),
    ]


@pytest.mark.parametrize("arrival", [
    "poisson", "diurnal", "bursty",
    ArrivalSpec(kind="diurnal", diurnal_amplitude=1.0,
                diurnal_period_s=0.01),
    ArrivalSpec(kind="bursty", burst_factor=4.0, burst_fraction=0.2,
                burst_cycle_s=0.002),
])
@pytest.mark.parametrize("seed", [0, 5])
def test_arrival_kinds_match_the_scalar_stream(arrival, seed):
    """One- and multi-model tenants, several thousand requests each, so
    every tenant crosses many model-choice chunks."""
    _assert_same(_mixed_tenants(40_000.0), 0.1, arrival, seed)


def test_single_one_model_tenant():
    _assert_same([TenantSpec("solo", (ModelSpec("mlp", MLP),), rps=3e4)],
                 0.05, "poisson", seed=3)


@pytest.mark.parametrize("arrival", [
    "poisson", ArrivalSpec(kind="bursty", burst_cycle_s=4e-6)])
def test_tie_heavy_pair(arrival):
    """At 5e8 + 3e8 rps most cycles hold several arrivals of both tenants,
    so the merge's (cycle, tenant) tie order carries the whole result."""
    tenants = [
        TenantSpec("a", (ModelSpec("mlp", MLP, weight=1.0),
                         ModelSpec("conv", CONV, weight=1.0)), rps=5e8),
        TenantSpec("b", (ModelSpec("mlp", MLP),), rps=3e8),
    ]
    fields = _assert_same(tenants, 2e-5, arrival, seed=1)
    cycles = [request[4] for request in fields]
    assert len(set(cycles)) < 0.8 * len(cycles)


def test_request_count_an_exact_multiple_of_the_chunk():
    """A tenant with exactly ``2 * _CHUNK`` requests: the scalar stream
    drew a third arrival chunk (to find the end of the window) but only
    two choice chunks."""
    rps, seed = 1e4, 2
    tenants = [TenantSpec("mix", (ModelSpec("mlp", MLP, weight=1.0),
                                  ModelSpec("conv", CONV, weight=3.0)),
                          rps=rps)]
    # Replay the tenant's draws up to its (2 * _CHUNK)-th arrival and end
    # the window one ulp after it.
    rng = np.random.default_rng(np.random.SeedSequence(
        (seed, _TAG_TENANT_STREAM, 0)))
    first = rng.exponential(1.0 / rps, _CHUNK).tolist()
    rng.choice(2, _CHUNK, p=np.asarray(tenants[0].mix_weights))
    second = rng.exponential(1.0 / rps, _CHUNK).tolist()
    clock = 0.0
    for gap in first + second:
        clock += gap
    fields = _assert_same(tenants, math.nextafter(clock, math.inf),
                          "poisson", seed)
    assert len(fields) == 2 * _CHUNK


@pytest.mark.parametrize("n_sessions", [1, 2])
def test_decode_session_stream_matches(n_sessions):
    sessions = decode_session_classes(4, 8)[:n_sessions]
    chunked = [_fields(r) for r in decode_session_stream(
        sessions, rps=60_000.0, duration_s=0.03, seed=4)]
    generator = RequestGenerator([TenantSpec("t", (ModelSpec("m", MLP),),
                                             rps=1.0)])
    reference = list(_reference_decode_stream(
        sessions, 60_000.0, 0.03, generator.frequency_hz, 4))
    assert chunked == reference
    assert len(chunked) > 2 * _CHUNK


def test_serve_mix_stream_digest_is_pinned():
    """The serve-mix benchmark stream (``million_tenants`` at 10^5 rps,
    seed 7, a 0.5 s window): sha256 of every request's fields, recorded
    with the scalar generator."""
    generator = RequestGenerator(million_tenants(100_000.0), seed=7)
    digest = hashlib.sha256()
    count = 0
    for request in generator.stream(0.5):
        digest.update(f"{request.request_id},{request.tenant},"
                      f"{request.model},{request.arrival_cycle},"
                      f"{request.precision}\n".encode())
        count += 1
    assert count == SERVE_MIX_SEED7_REQUESTS
    assert digest.hexdigest() == SERVE_MIX_SEED7_SHA256


SERVE_MIX_SEED7_REQUESTS = 50_142
SERVE_MIX_SEED7_SHA256 = (
    "b1efe96ec0566e7b7fbf5ad21332c458fcb34294793de71b766da915a2f5deb9")
