"""Serving workload description: tenants, mixes, streaming request generation.

A serving scenario is a set of *tenants*, each owning a mix of zoo models
and a mean request rate.  The generator draws arrivals per tenant from a
configurable arrival process and picks a model per request according to the
tenant's mix weights, then merges all tenants into one arrival-ordered
request stream.  Everything is deterministic under a seed, so serving
experiments are exactly repeatable.

Three arrival processes are supported (see :class:`ArrivalSpec`):

* ``poisson`` -- homogeneous Poisson arrivals (exponential inter-arrival
  gaps, the standard open-loop serving model);
* ``diurnal`` -- a non-homogeneous Poisson process whose rate follows a
  sinusoid over the traffic window (the day/night load swing every
  production service sees), sampled by thinning;
* ``bursty`` -- a two-state Markov-modulated Poisson process (MMPP-2):
  quiet periods at a fraction of the mean rate punctuated by bursts at a
  multiple of it, with exponentially-distributed sojourns.  The state rates
  are normalised so the *mean* rate still equals the tenant's ``rps``.

The generation API is **streaming**, and it works per chunk rather than
per request: each tenant draws its arrival gaps and model choices from
numpy 512 at a time, and a windowed merge releases every buffered arrival
that no tenant's next chunk can precede, stably sorted into arrival order.
:meth:`RequestGenerator.stream` therefore holds O(tenants x 512) state, so
a million-request window never materialises a million-element list.  The
eager :meth:`RequestGenerator.generate` is a thin ``list(stream(...))``
wrapper kept for small scenarios and backwards compatibility; a regression
test pins that the two produce identical streams under the same seed.

Time is measured in *cluster clock cycles* throughout the serving simulator;
wall-clock rates (requests/s) are converted through the operating-point
frequency (default: the 22 nm performance point of the paper's cluster).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.graph.ir import WorkloadGraph

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.graph.llm import DecodeSpec
from repro.power.technology import OP_22NM_PERFORMANCE

#: Clock frequency used to convert requests/s into cycles (22 nm, 0.8 V).
DEFAULT_FREQUENCY_HZ = OP_22NM_PERFORMANCE.frequency_hz

#: Arrival-process kinds understood by :class:`ArrivalSpec`.
ARRIVAL_KINDS = ("poisson", "diurnal", "bursty")

#: Random draws are pulled from numpy in chunks of this many values: the
#: streaming generator stays lazy (O(chunk) buffered per tenant) while the
#: per-request cost of the hot million-request path stays amortised-vector.
_CHUNK = 512

#: SeedSequence stream tag of the per-tenant streaming arrival draws
#: (burst() keeps the historical ``spawn(2)[1]`` child, so closed-loop
#: benchmark bursts are bit-identical across this refactor).
_TAG_TENANT_STREAM = 2


@dataclass(frozen=True)
class ArrivalSpec:
    """Parameters of one arrival process (see the module docstring).

    ``diurnal_period_s`` defaults to the traffic window itself (one full
    day/night swing over the simulated duration).  The bursty process
    alternates quiet/burst sojourns with mean cycle ``burst_cycle_s``,
    spending ``burst_fraction`` of the time bursting at ``burst_factor``
    times the mean rate; the quiet rate is derived so the long-run mean
    rate equals the tenant's ``rps`` (which requires
    ``burst_fraction * burst_factor < 1``).
    """

    kind: str = "poisson"
    diurnal_amplitude: float = 0.8
    diurnal_period_s: Optional[float] = None
    burst_factor: float = 8.0
    burst_fraction: float = 0.1
    burst_cycle_s: float = 0.01

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind {self.kind!r}; one of {ARRIVAL_KINDS}")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1]")
        if self.diurnal_period_s is not None and self.diurnal_period_s <= 0:
            raise ValueError("diurnal_period_s must be positive")
        if self.burst_factor <= 1.0:
            raise ValueError("burst_factor must exceed 1")
        if not 0.0 < self.burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in (0, 1)")
        if self.burst_fraction * self.burst_factor >= 1.0:
            raise ValueError(
                "burst_fraction * burst_factor must stay below 1 so the "
                "quiet-state rate normalising the mean remains positive")
        if self.burst_cycle_s <= 0:
            raise ValueError("burst_cycle_s must be positive")

    @classmethod
    def of(cls, value: Union[str, ArrivalSpec]) -> ArrivalSpec:
        """Coerce a kind name or a spec to a spec."""
        if isinstance(value, ArrivalSpec):
            return value
        return cls(kind=value)


@dataclass(frozen=True)
class ModelSpec:
    """One model in a tenant's mix: a workload graph plus a mix weight."""

    name: str
    graph: WorkloadGraph
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a model spec needs a non-empty name")
        if self.weight <= 0:
            raise ValueError(f"model {self.name!r}: mix weight must be positive")


@dataclass(frozen=True)
class TenantSpec:
    """A tenant: a named model mix arriving at a mean request rate.

    ``precision`` is the tenant's serving class for online precision
    routing: when set (a registered element format such as ``"fp8-e4m3"``),
    every request of the tenant is stamped with it and the continuous
    serving loop routes the request's jobs through a farm of that element
    width (throughput tenants ride the packed FP8 line geometry,
    accuracy-critical tenants stay FP16).  ``None`` keeps the model's own
    precision (or the pool's default format).
    """

    name: str
    models: Tuple[ModelSpec, ...]
    rps: float
    precision: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a tenant needs a non-empty name")
        if not self.models:
            raise ValueError(f"tenant {self.name!r} needs at least one model")
        if self.rps <= 0:
            raise ValueError(f"tenant {self.name!r}: rps must be positive")
        if self.precision is not None:
            from repro.fp.formats import get_format

            get_format(self.precision)  # raises on unknown formats
        object.__setattr__(self, "models", tuple(self.models))

    @property
    def mix_weights(self) -> List[float]:
        """Normalised model-mix probabilities."""
        total = sum(model.weight for model in self.models)
        return [model.weight / total for model in self.models]


@dataclass(frozen=True)
class DecodeSessionSpec:
    """An autoregressive decode session class: block shape + step count.

    ``spec`` is the transformer-block shape (a
    :class:`repro.graph.llm.DecodeSpec`); a session arrives with ``prefill``
    tokens already in its KV-cache (the prompt) and generates
    ``decode_steps`` tokens, one decode-step graph per token at KV
    positions ``prefill .. prefill + decode_steps - 1``.  The last position
    must fit the spec's context limit.  Frozen and hashable: the continuous
    batcher keys its step-cost memo and its join-compatibility signature on
    ``(spec, precision)``.
    """

    spec: DecodeSpec
    prefill: int = 0
    decode_steps: int = 1

    def __post_init__(self) -> None:
        from repro.graph.llm import session_positions

        positions = session_positions(self.prefill, self.decode_steps)
        self.spec.check_position(positions[-1])

    @property
    def model(self) -> str:
        """Display/model name of the session class (the spec's name)."""
        return self.spec.name

    @property
    def positions(self) -> Sequence[int]:
        """KV positions of the session's steps, in order."""
        return range(self.prefill, self.prefill + self.decode_steps)


@dataclass(frozen=True)
class Request:
    """One inference/training request entering the serving system.

    Atomic requests carry a ``graph`` and occupy a cluster for its serial
    service time.  Decode *sessions* carry a :class:`DecodeSessionSpec` in
    ``decode`` instead (``graph`` is ``None``): the continuous loop runs
    them step by step and may coalesce concurrent sessions into batched
    steps (see :class:`repro.serve.loop.ContinuousServer`).
    """

    request_id: int
    tenant: str
    model: str
    graph: Optional[WorkloadGraph]
    arrival_cycle: int
    #: Requested element precision (tenant serving class); ``None`` defers
    #: to the graph's own precision or the serving pool's default format.
    precision: Optional[str] = None
    #: Decode-session description; ``None`` for atomic requests.
    decode: Optional[DecodeSessionSpec] = None

    def __post_init__(self) -> None:
        if self.arrival_cycle < 0:
            raise ValueError("arrival_cycle must be non-negative")
        if self.graph is None and self.decode is None:
            raise ValueError(
                "a request needs a workload graph or a decode session")


# -- per-tenant arrival processes: one float64 array per gap draw -----------
def _accumulate(gaps: np.ndarray, clock: float) -> np.ndarray:
    """Arrival times ``clock + g0, clock + g0 + g1, ...`` of one gap draw,
    summed left to right: the values a scalar ``clock += gap`` loop makes."""
    gaps[0] += clock
    return np.add.accumulate(gaps)


def _poisson_draws(rng: np.random.Generator, rps: float,
                   duration_s: float) -> Iterator[np.ndarray]:
    """Homogeneous Poisson arrival times in ``[0, duration_s)``."""
    clock = 0.0
    scale = 1.0 / rps
    while True:
        times = _accumulate(rng.exponential(scale, _CHUNK), clock)
        stop = int(np.searchsorted(times, duration_s))
        yield times[:stop]
        if stop < _CHUNK:
            return
        clock = float(times[-1])


def _diurnal_draws(rng: np.random.Generator, rps: float, duration_s: float,
                   spec: ArrivalSpec) -> Iterator[np.ndarray]:
    """Sinusoidally-modulated Poisson arrivals, sampled by thinning."""
    period = spec.diurnal_period_s or duration_s
    amplitude = spec.diurnal_amplitude
    lam_max = rps * (1.0 + amplitude)
    omega = 2.0 * math.pi / period
    clock = 0.0
    while True:
        candidates = _accumulate(rng.exponential(1.0 / lam_max, _CHUNK),
                                 clock)
        accepts = rng.random(_CHUNK)
        stop = int(np.searchsorted(candidates, duration_s))
        times = candidates[:stop]
        # math.sin per candidate: np.sin need not match it bit for bit.
        sines = np.fromiter(map(math.sin, (omega * times).tolist()),
                            np.float64, stop)
        rate = rps * (1.0 + amplitude * sines)
        yield times[accepts[:stop] * lam_max < rate]
        if stop < _CHUNK:
            return
        clock = float(candidates[-1])


def _bursty_draws(rng: np.random.Generator, rps: float, duration_s: float,
                  spec: ArrivalSpec) -> Iterator[np.ndarray]:
    """Two-state Markov-modulated Poisson arrivals (quiet/burst)."""
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
        while True:
            times = _accumulate(rng.exponential(scale, _CHUNK), t)
            stop = int(np.searchsorted(times, end))
            yield times[:stop]
            if stop < _CHUNK:
                break
            t = float(times[-1])
        clock = end
        in_burst = not in_burst


def _arrival_draws(rng: np.random.Generator, rps: float, duration_s: float,
                   spec: ArrivalSpec) -> Iterator[np.ndarray]:
    if spec.kind == "poisson":
        return _poisson_draws(rng, rps, duration_s)
    if spec.kind == "diurnal":
        return _diurnal_draws(rng, rps, duration_s, spec)
    return _bursty_draws(rng, rps, duration_s, spec)


def _tenant_chunks(rng: np.random.Generator, draws: Iterator[np.ndarray],
                   weights: Sequence[float], frequency_hz: float,
                   base: int = 0) -> Iterator[np.ndarray]:
    """One source's ``[arrival cycles; base + model indices]`` per gap draw.

    Model choices come from the same rng in chunks of ``_CHUNK``: chunk k
    is drawn right after the gap draw that holds the source's request
    ``_CHUNK * k`` and before the next gap draw, so the rng sequence is
    the one a per-request stream drawing each choice on demand consumes.
    A one-model mix draws no choices at all.
    """
    n_models = len(weights)
    probabilities = np.asarray(weights)
    choices = np.empty(0, dtype=np.int64)
    produced = drawn = 0
    for times in draws:
        count = len(times)
        produced += count
        while drawn < produced:
            choices = np.concatenate((choices, rng.choice(
                n_models, _CHUNK, p=probabilities) if n_models > 1
                else np.zeros(_CHUNK, dtype=np.int64)))
            drawn += _CHUNK
        if count:
            yield np.stack(((times * frequency_hz).astype(np.int64),
                            choices[:count] + base))
        choices = choices[count:]


def _merge(sources: Sequence[Iterator[np.ndarray]]) -> Iterator[np.ndarray]:
    """Merge per-source ``[cycles; keys]`` chunks into arrival order.

    A windowed merge: any buffered arrival below the smallest live
    source's last buffered cycle is final (no later chunk can precede it),
    so each pull of that source releases a batch.  A batch is sorted
    stably by cycle over the source-ordered concatenation -- the
    ``(cycle, source)`` order of a heap over per-source heads.  Memory is
    O(sources x chunk).
    """
    pending = [np.empty((2, 0), dtype=np.int64) for _ in sources]
    #: Live source index -> its last buffered cycle (-1 before its first).
    live = {index: -1 for index in range(len(sources))}
    while live:
        index = min(live, key=live.__getitem__)
        chunk = next(sources[index], None)
        if chunk is None:
            del live[index]
        else:
            pending[index] = np.concatenate((pending[index], chunk), axis=1)
            live[index] = int(chunk[0, -1])
        bound = min(live.values(), default=None)
        cuts = [held.shape[1] if bound is None
                else int(np.searchsorted(held[0], bound)) for held in pending]
        if any(cuts):
            ready = np.concatenate([held[:, :cut] for held, cut
                                    in zip(pending, cuts)], axis=1)
            pending = [held[:, cut:] for held, cut in zip(pending, cuts)]
            yield ready[:, np.argsort(ready[0], kind="stable")]


def _requests(batches: Iterator[np.ndarray],
              templates: Sequence[dict]) -> Iterator[Request]:
    """Requests numbered in stream order, one per ``[cycle; key]`` column.

    ``templates[key]`` holds the fields of a :class:`Request` built (and
    validated) once per tenant model; arrival cycles are non-negative by
    construction, so each request copies the template instead of paying
    the frozen dataclass's per-field ``__setattr__`` and ``__post_init__``.
    """
    new = object.__new__
    request_id = 0
    for batch in batches:
        for cycle, key in zip(*batch.tolist()):
            request = new(Request)
            fields = request.__dict__
            fields.update(templates[key])
            fields["request_id"] = request_id
            fields["arrival_cycle"] = cycle
            request_id += 1
            yield request


class RequestGenerator:
    """Deterministic streaming request generator over a set of tenants."""

    def __init__(self, tenants: Sequence[TenantSpec],
                 frequency_hz: float = DEFAULT_FREQUENCY_HZ,
                 seed: int = 0) -> None:
        if not tenants:
            raise ValueError("the generator needs at least one tenant")
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        self.tenants = tuple(tenants)
        self.frequency_hz = frequency_hz
        self.seed = seed

    def _rng(self, stream: int) -> np.random.Generator:
        """An independent child generator for one legacy traffic stream.

        ``burst()`` draws from spawned child 1 of the seed, exactly as it
        did before the streaming refactor, so closed-loop saturation bursts
        (and the committed scaling-benchmark baselines built on them) are
        bit-identical.  The open-loop streams draw from per-tenant children
        instead (see :meth:`_tenant_rng`).
        """
        children = np.random.SeedSequence(self.seed).spawn(2)
        return np.random.default_rng(children[stream])

    def _tenant_rng(self, tenant_index: int) -> np.random.Generator:
        """The independent child stream of one tenant's open-loop traffic.

        Per-tenant children are what make the merged iterator lazy: each
        tenant advances its own stream on demand, so interleaving order
        (which the merge determines) can never perturb the draws.
        """
        return np.random.default_rng(np.random.SeedSequence(
            (self.seed, _TAG_TENANT_STREAM, tenant_index)))

    @property
    def total_rps(self) -> float:
        """Aggregate mean request rate over every tenant."""
        return sum(tenant.rps for tenant in self.tenants)

    def stream(self, duration_s: float,
               arrival: Union[str, ArrivalSpec] = "poisson",
               ) -> Iterator[Request]:
        """The lazy, merged, arrival-ordered request stream.

        Per tenant, arrivals follow ``arrival`` (a kind name or an
        :class:`ArrivalSpec`) at the tenant's mean rate and each request
        picks a model from the tenant's weighted mix; the merged stream is
        ordered by arrival cycle (ties broken by tenant order) and numbered
        in merge order.  Nothing is materialised: each tenant buffers at
        most a chunk of draws (O(tenants x chunk) memory), which is what
        lets the continuous serving loop sustain million-request windows.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        spec = ArrivalSpec.of(arrival)
        templates: List[dict] = []
        sources = []
        for index, tenant in enumerate(self.tenants):
            rng = self._tenant_rng(index)
            sources.append(_tenant_chunks(
                rng, _arrival_draws(rng, tenant.rps, duration_s, spec),
                tenant.mix_weights, self.frequency_hz, base=len(templates)))
            templates.extend(
                vars(Request(request_id=0, tenant=tenant.name,
                             model=model.name, graph=model.graph,
                             arrival_cycle=0, precision=tenant.precision))
                for model in tenant.models)
        return _requests(_merge(sources), templates)

    def generate(self, duration_s: float,
                 arrival: Union[str, ArrivalSpec] = "poisson",
                 ) -> List[Request]:
        """Eagerly materialise :meth:`stream` (small scenarios, tests).

        A thin wrapper: the returned list is element-for-element identical
        to iterating the lazy stream under the same seed (pinned by a
        regression test), so callers that need random access pay the O(n)
        memory knowingly.
        """
        return list(self.stream(duration_s, arrival))

    def burst(self, per_tenant: int) -> List[Request]:
        """A closed-loop saturation burst: every request arrives at cycle 0.

        Models still follow each tenant's mix (deterministically under the
        seed).  This is what the scaling benchmark uses: with the queue full
        from the start, throughput is limited by cluster count and critical
        paths rather than by the arrival process.
        """
        if per_tenant <= 0:
            raise ValueError("per_tenant must be positive")
        rng = self._rng(1)
        requests: List[Request] = []
        for tenant in self.tenants:
            weights = tenant.mix_weights
            for _ in range(per_tenant):
                model = tenant.models[rng.choice(len(tenant.models), p=weights)]
                requests.append(Request(
                    request_id=len(requests), tenant=tenant.name,
                    model=model.name, graph=model.graph, arrival_cycle=0,
                    precision=tenant.precision,
                ))
        return requests


# -- decode-session arrivals --------------------------------------------------
def decode_session_stream(
    sessions: Sequence[DecodeSessionSpec],
    rps: float,
    duration_s: float,
    frequency_hz: float = DEFAULT_FREQUENCY_HZ,
    seed: int = 0,
    tenant: str = "decode",
    precision: Optional[str] = None,
) -> Iterator[Request]:
    """Lazy decode-session arrivals (Poisson at aggregate ``rps``).

    Each arrival picks one of ``sessions`` uniformly (deterministically
    under ``seed``) and is stamped with the tenant name and precision
    class.  Arrival-ordered like :meth:`RequestGenerator.stream`, so it
    feeds :meth:`ContinuousServer.offer` / ``simulate`` directly.
    """
    if not sessions:
        raise ValueError("decode_session_stream needs at least one session")
    if rps <= 0:
        raise ValueError("rps must be positive")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    chunks = _tenant_chunks(rng, _poisson_draws(rng, rps, duration_s),
                            [1.0 / len(sessions)] * len(sessions),
                            frequency_hz)
    templates = [vars(Request(request_id=0, tenant=tenant,
                              model=session.model, graph=None,
                              arrival_cycle=0, precision=precision,
                              decode=session))
                 for session in sessions]
    return _requests(chunks, templates)


def decode_burst(
    sessions: Sequence[DecodeSessionSpec],
    count: int,
    tenant: str = "decode",
    precision: Optional[str] = None,
) -> List[Request]:
    """A closed-loop decode burst: ``count`` sessions all arriving at cycle 0.

    Session classes are assigned round-robin (deterministic without any
    randomness), which is what the batching benchmark uses: with every
    session queued from the start, throughput is limited purely by how well
    steps coalesce under the batch cap.
    """
    if not sessions:
        raise ValueError("decode_burst needs at least one session")
    if count <= 0:
        raise ValueError("count must be positive")
    return [
        Request(
            request_id=index, tenant=tenant,
            model=sessions[index % len(sessions)].model, graph=None,
            arrival_cycle=0, precision=precision,
            decode=sessions[index % len(sessions)],
        )
        for index in range(count)
    ]
