"""Serving scenarios: the farm under multi-tenant request traffic.

Three registered scenarios extend the paper's single-model study toward the
roadmap's serving ambitions:

* ``serve-mlp`` -- a single tenant fine-tuning the paper's auto-encoder
  on-device (batch-1 and batch-16 training steps mixed 3:1, the Fig. 4d
  contrast as live traffic);
* ``serve-mix`` -- four tenants with different model families (the
  auto-encoder tenant, a transformer+conv tenant, a recurrent tenant, and
  an edge-training tenant running reduced-precision FP8/BF16 model
  variants), exercising the scheduler's per-tenant accounting, the
  mixed-precision farm routing and the cache across heterogeneous graphs;
* ``serve-million`` -- the continuous event-loop server under production
  traffic: configurable arrival process (Poisson / diurnal / bursty MMPP),
  SLO-aware admission with tenant fairness, optional queue/p99-driven
  autoscaling, and an FP8-routed throughput tenant next to FP16
  interactive traffic.  The same driver scales from the registry's quick
  default window to the million-request benchmark purely via
  ``duration_s``;
* ``serve-decode`` -- autoregressive LLM decode sessions (one skinny-GEMM
  step graph per token, attention growing with the KV position) streamed
  through the continuous loop with continuous batching: concurrent
  sessions of the same block spec coalesce their weight-stationary halves
  into batched steps up to ``batch_cap``, joining and leaving at step
  boundaries.  Two session classes share the pool: an FP16 block and an
  FP16 block whose KV-cache reads run FP8 via per-node precision
  overrides.

All four run on :class:`~repro.serve.loop.ContinuousServer` and return a
:class:`~repro.serve.report.ContinuousReport`; the first two serve Poisson
arrivals with node dispatch (dependency-aware list scheduling of each
request's graph nodes) on a pool of simulated clusters.  The runner CLI
parameterises them through :func:`set_serve_defaults` (``--clusters`` /
``--rps``), :func:`set_serve_million_defaults` (``--duration`` /
``--arrival`` / ``--autoscale`` / ``--slo-p99-ms``) and
:func:`set_serve_decode_defaults` (``--prefill`` / ``--decode-steps`` /
``--batch-cap``), mirroring how ``--format`` reaches the farm.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.farm import BACKEND_MODEL, SimulationFarm, default_farm
from repro.serve import (
    ARRIVAL_KINDS,
    AdmissionPolicy,
    ArrivalSpec,
    AutoscalePolicy,
    ContinuousReport,
    ContinuousServer,
    ModelSpec,
    RequestGenerator,
    TenantSpec,
)
from repro.graph.zoo import build_model

#: Pool size / aggregate request rate used when the CLI does not override.
DEFAULT_CLUSTERS = 4
DEFAULT_RPS = 200.0

#: Simulated traffic window (seconds of cluster time).
DEFAULT_DURATION_S = 0.05

#: serve-million defaults: a short window at a rate that keeps the default
#: four-cluster pool around 70% utilisation (mean service of the tenant mix
#: is ~161k cycles, so 12k req/s offers ~2.9 erlangs).  The registry's
#: batch run stays quick; the benchmark stretches ``duration_s`` and scales
#: ``rps``/``clusters`` until the same machinery serves 10^6+ requests.
DEFAULT_MILLION_DURATION_S = 0.02
DEFAULT_MILLION_RPS = 12_000.0

#: serve-decode defaults: sessions prefill 8 tokens and generate 16, the
#: pool batches up to 8 sessions per cluster, and the arrival rate keeps
#: the default four-cluster pool busy enough that sessions overlap and
#: steps actually coalesce (~84% utilisation, ~27% of steps batched).
DEFAULT_DECODE_DURATION_S = 0.02
DEFAULT_DECODE_RPS = 40_000.0
DEFAULT_DECODE_PREFILL = 8
DEFAULT_DECODE_STEPS = 16
DEFAULT_DECODE_BATCH_CAP = 8

_DEFAULT_CLUSTERS_OVERRIDE: Optional[int] = None
_DEFAULT_RPS_OVERRIDE: Optional[float] = None
_MILLION_DURATION_OVERRIDE: Optional[float] = None
_MILLION_ARRIVAL_OVERRIDE: Optional[str] = None
_MILLION_AUTOSCALE_OVERRIDE: Optional[bool] = None
_MILLION_SLO_P99_MS_OVERRIDE: Optional[float] = None
_DECODE_PREFILL_OVERRIDE: Optional[int] = None
_DECODE_STEPS_OVERRIDE: Optional[int] = None
_DECODE_BATCH_CAP_OVERRIDE: Optional[int] = None
_DECODE_DURATION_OVERRIDE: Optional[float] = None


def set_serve_defaults(clusters: Optional[int] = None,
                       rps: Optional[float] = None) -> None:
    """Set the pool size / request rate future scenario runs default to.

    This is how the runner CLI's ``--clusters`` and ``--rps`` flags reach
    the zero-argument drivers in the experiment registry.  Pass ``None`` to
    restore the built-in defaults.
    """
    if clusters is not None and clusters < 1:
        raise ValueError("clusters must be >= 1")
    if rps is not None and rps <= 0:
        raise ValueError("rps must be positive")
    global _DEFAULT_CLUSTERS_OVERRIDE, _DEFAULT_RPS_OVERRIDE
    _DEFAULT_CLUSTERS_OVERRIDE = clusters
    _DEFAULT_RPS_OVERRIDE = rps


def _resolve(clusters: Optional[int], rps: Optional[float],
             default_rps: float = DEFAULT_RPS):
    """Explicit arguments win, then the CLI overrides, then the defaults
    (``default_rps`` is the scenario's own rate)."""
    if clusters is None:
        clusters = _DEFAULT_CLUSTERS_OVERRIDE or DEFAULT_CLUSTERS
    if rps is None:
        rps = _DEFAULT_RPS_OVERRIDE or default_rps
    return clusters, rps


def set_serve_million_defaults(
    duration_s: Optional[float] = None,
    arrival: Optional[str] = None,
    autoscale: Optional[bool] = None,
    slo_p99_ms: Optional[float] = None,
) -> None:
    """Set the traffic shape future ``serve-million`` runs default to.

    This is how the runner CLI's ``--duration``, ``--arrival``,
    ``--autoscale`` and ``--slo-p99-ms`` flags reach the zero-argument
    driver in the experiment registry.  Pass ``None`` per parameter to
    restore its built-in default.
    """
    if duration_s is not None and duration_s <= 0:
        raise ValueError("duration must be positive")
    if arrival is not None and arrival not in ARRIVAL_KINDS:
        raise ValueError(
            f"unknown arrival kind {arrival!r}; one of {ARRIVAL_KINDS}")
    if slo_p99_ms is not None and slo_p99_ms <= 0:
        raise ValueError("slo-p99-ms must be positive")
    global _MILLION_DURATION_OVERRIDE, _MILLION_ARRIVAL_OVERRIDE
    global _MILLION_AUTOSCALE_OVERRIDE, _MILLION_SLO_P99_MS_OVERRIDE
    _MILLION_DURATION_OVERRIDE = duration_s
    _MILLION_ARRIVAL_OVERRIDE = arrival
    _MILLION_AUTOSCALE_OVERRIDE = autoscale
    _MILLION_SLO_P99_MS_OVERRIDE = slo_p99_ms


def set_serve_decode_defaults(
    prefill: Optional[int] = None,
    decode_steps: Optional[int] = None,
    batch_cap: Optional[int] = None,
    duration_s: Optional[float] = None,
) -> None:
    """Set the session shape future ``serve-decode`` runs default to.

    This is how the runner CLI's ``--prefill``, ``--decode-steps``,
    ``--batch-cap`` and ``--duration`` flags reach the zero-argument driver
    in the experiment registry.  Pass ``None`` per parameter to restore its
    built-in default.
    """
    if prefill is not None and prefill < 0:
        raise ValueError("prefill must be >= 0")
    if decode_steps is not None and decode_steps < 1:
        raise ValueError("decode-steps must be >= 1")
    if batch_cap is not None and batch_cap < 1:
        raise ValueError("batch-cap must be >= 1")
    if duration_s is not None and duration_s <= 0:
        raise ValueError("duration must be positive")
    global _DECODE_PREFILL_OVERRIDE, _DECODE_STEPS_OVERRIDE
    global _DECODE_BATCH_CAP_OVERRIDE, _DECODE_DURATION_OVERRIDE
    _DECODE_PREFILL_OVERRIDE = prefill
    _DECODE_STEPS_OVERRIDE = decode_steps
    _DECODE_BATCH_CAP_OVERRIDE = batch_cap
    _DECODE_DURATION_OVERRIDE = duration_s


def _simulate(tenants, clusters: int, duration_s: float, seed: int,
              scenario: str,
              farm: Optional[SimulationFarm]) -> ContinuousReport:
    farm = farm if farm is not None else default_farm()
    generator = RequestGenerator(tenants, seed=seed)
    # The analytical backend keeps the scenarios closed-form fast; every
    # distinct shape is still memoised in the shared farm cache.
    server = ContinuousServer(n_clusters=clusters, farm=farm,
                              backend=BACKEND_MODEL,
                              frequency_hz=generator.frequency_hz,
                              node_dispatch=True)
    return server.simulate(generator.stream(duration_s), scenario=scenario)


def serve_mlp(
    clusters: Optional[int] = None,
    rps: Optional[float] = None,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 0,
    farm: Optional[SimulationFarm] = None,
) -> ContinuousReport:
    """Single-tenant auto-encoder serving (batch-1 : batch-16 mixed 3:1)."""
    clusters, rps = _resolve(clusters, rps)
    tenant = TenantSpec(
        name="anomaly-detection",
        models=(
            ModelSpec("autoencoder-b1", build_model("autoencoder-b1"),
                      weight=3.0),
            ModelSpec("autoencoder-b16", build_model("autoencoder-b16"),
                      weight=1.0),
        ),
        rps=rps,
    )
    return _simulate((tenant,), clusters, duration_s, seed, "serve-mlp", farm)


def serve_mix(
    clusters: Optional[int] = None,
    rps: Optional[float] = None,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 0,
    farm: Optional[SimulationFarm] = None,
) -> ContinuousReport:
    """Three tenants, heterogeneous model mix, shared pool and cache."""
    clusters, rps = _resolve(clusters, rps)
    tenants = (
        TenantSpec(
            name="anomaly-detection",
            models=(
                ModelSpec("autoencoder-b1", build_model("autoencoder-b1"),
                          weight=2.0),
                ModelSpec("mlp-tiny", build_model("mlp-tiny"), weight=1.0),
            ),
            rps=rps * 0.5,
        ),
        TenantSpec(
            name="vision-nlp",
            models=(
                ModelSpec("transformer-tiny", build_model("transformer-tiny"),
                          weight=1.0),
                ModelSpec("conv-tiny", build_model("conv-tiny"), weight=1.0),
            ),
            rps=rps * 0.3,
        ),
        TenantSpec(
            name="time-series",
            models=(
                ModelSpec("lstm-tiny", build_model("lstm-tiny"), weight=1.0),
                ModelSpec("gru-tiny", build_model("gru-tiny"), weight=1.0),
            ),
            rps=rps * 0.15,
        ),
        # Reduced-precision tenant: the same auto-encoder/MLP topologies at
        # FP8 / BF16 element width, dispatched through per-precision farms
        # that share the pool and the timing cache with the FP16 tenants.
        TenantSpec(
            name="edge-training-fp8",
            models=(
                ModelSpec("autoencoder-b1-fp8",
                          build_model("autoencoder-b1-fp8"), weight=2.0),
                ModelSpec("mlp-tiny-bf16", build_model("mlp-tiny-bf16"),
                          weight=1.0),
            ),
            rps=rps * 0.05,
        ),
    )
    return _simulate(tenants, clusters, duration_s, seed, "serve-mix", farm)


def million_tenants(rps: float) -> tuple:
    """The ``serve-million`` tenant mix at aggregate rate ``rps``.

    An FP16 interactive tenant (anomaly-detection mix), an FP8-routed
    throughput tenant (same MLP topology, packed FP8 line geometry -- the
    online precision-routing case), and a small batch tenant pushing the
    heavier batch-16 training step.
    """
    return (
        TenantSpec(
            name="interactive",
            models=(
                ModelSpec("autoencoder-b1", build_model("autoencoder-b1"),
                          weight=2.0),
                ModelSpec("mlp-tiny", build_model("mlp-tiny"), weight=1.0),
            ),
            rps=rps * 0.55,
        ),
        TenantSpec(
            name="throughput-fp8",
            models=(ModelSpec("mlp-tiny", build_model("mlp-tiny")),),
            rps=rps * 0.35,
            precision="fp8-e4m3",
        ),
        TenantSpec(
            name="batch",
            models=(ModelSpec("autoencoder-b16",
                              build_model("autoencoder-b16")),),
            rps=rps * 0.10,
        ),
    )


def serve_million(
    duration_s: Optional[float] = None,
    arrival: Optional[Union[str, ArrivalSpec]] = None,
    autoscale: Optional[bool] = None,
    slo_p99_ms: Optional[float] = None,
    clusters: Optional[int] = None,
    rps: Optional[float] = None,
    seed: int = 0,
    farm: Optional[SimulationFarm] = None,
) -> ContinuousReport:
    """Continuous-loop serving: streaming arrivals, admission, autoscaling.

    The registry default is a quick window (~500 requests); the
    million-request benchmark runs the same driver with ``duration_s``
    stretched until the stream exceeds 10^6 requests.  ``autoscale``
    replaces the fixed pool with a queue/p99-driven policy that may grow it
    to four times the base size; ``slo_p99_ms`` turns on SLO-aware
    admission (and gives the autoscaler its p99 target).
    """
    if duration_s is None:
        duration_s = _MILLION_DURATION_OVERRIDE or DEFAULT_MILLION_DURATION_S
    if arrival is None:
        arrival = _MILLION_ARRIVAL_OVERRIDE or "poisson"
    if autoscale is None:
        autoscale = bool(_MILLION_AUTOSCALE_OVERRIDE)
    if slo_p99_ms is None:
        slo_p99_ms = _MILLION_SLO_P99_MS_OVERRIDE
    clusters, rps = _resolve(clusters, rps, DEFAULT_MILLION_RPS)

    farm = farm if farm is not None else default_farm()
    generator = RequestGenerator(million_tenants(rps), seed=seed)
    frequency_hz = generator.frequency_hz
    slo_p99_cycles = (slo_p99_ms * 1e-3 * frequency_hz
                      if slo_p99_ms is not None else None)
    admission = AdmissionPolicy(max_queue=256,
                                slo_p99_cycles=slo_p99_cycles)
    autoscaler = None
    if autoscale:
        autoscaler = AutoscalePolicy(
            min_clusters=clusters,
            max_clusters=clusters * 4,
            interval_cycles=max(1, int(0.0005 * frequency_hz)),
            queue_per_cluster=8,
            provision_delay_cycles=int(0.0002 * frequency_hz),
            slo_p99_cycles=slo_p99_cycles,
        )
    server = ContinuousServer(
        n_clusters=clusters, farm=farm, backend=BACKEND_MODEL,
        frequency_hz=frequency_hz, admission=admission,
        autoscaler=autoscaler,
    )
    return server.simulate(generator.stream(duration_s, arrival),
                           scenario="serve-million")


def decode_session_classes(prefill: int, decode_steps: int) -> tuple:
    """The ``serve-decode`` session mix: FP16 and FP8-KV decode blocks.

    Both classes decode the same tiny transformer block shape; the second
    reads its KV cache at FP8 through per-node precision overrides, so the
    two exercise distinct batch-group signatures on a shared pool.
    """
    from repro.graph.llm import build_decode_spec
    from repro.serve import DecodeSessionSpec

    return (
        DecodeSessionSpec(spec=build_decode_spec("llm-decode-tiny"),
                          prefill=prefill, decode_steps=decode_steps),
        DecodeSessionSpec(spec=build_decode_spec("llm-decode-tiny-kv8"),
                          prefill=prefill, decode_steps=decode_steps),
    )


def serve_decode(
    duration_s: Optional[float] = None,
    prefill: Optional[int] = None,
    decode_steps: Optional[int] = None,
    batch_cap: Optional[int] = None,
    clusters: Optional[int] = None,
    rps: Optional[float] = None,
    seed: int = 0,
    farm: Optional[SimulationFarm] = None,
) -> ContinuousReport:
    """Continuously batched LLM decode serving on the event loop.

    Streams Poisson session arrivals (each a multi-step decode of
    ``decode_steps`` tokens on top of a ``prefill``-token cache) through
    :class:`~repro.serve.loop.ContinuousServer` with ``batch_cap``-bounded
    continuous batching.  The report's ``decode_*`` fields show how much of
    the step traffic actually coalesced.
    """
    from repro.serve import decode_session_stream

    if duration_s is None:
        duration_s = (_DECODE_DURATION_OVERRIDE
                      if _DECODE_DURATION_OVERRIDE is not None
                      else DEFAULT_DECODE_DURATION_S)
    if prefill is None:
        prefill = (_DECODE_PREFILL_OVERRIDE
                   if _DECODE_PREFILL_OVERRIDE is not None
                   else DEFAULT_DECODE_PREFILL)
    if decode_steps is None:
        decode_steps = _DECODE_STEPS_OVERRIDE or DEFAULT_DECODE_STEPS
    if batch_cap is None:
        batch_cap = _DECODE_BATCH_CAP_OVERRIDE or DEFAULT_DECODE_BATCH_CAP
    clusters, rps = _resolve(clusters, rps, DEFAULT_DECODE_RPS)

    farm = farm if farm is not None else default_farm()
    sessions = decode_session_classes(prefill, decode_steps)
    server = ContinuousServer(
        n_clusters=clusters, farm=farm, backend=BACKEND_MODEL,
        batch_cap=batch_cap,
    )
    stream = decode_session_stream(sessions, rps=rps, duration_s=duration_s,
                                   seed=seed)
    return server.simulate(stream, scenario="serve-decode")
