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
request's graph nodes) on a pool of simulated clusters.  Each driver's
keyword defaults are its built-in settings, and each times its jobs on the
shared farm of the reference instance in its ``format``.  The runner CLI
passes each flag given on its command line (``--clusters``, ``--rps``,
``--format``, ...) as the driver keyword of the same name (``--duration``
as ``duration_s``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

from repro.farm import BACKEND_MODEL, SimulationFarm, default_farm
from repro.redmule.config import RedMulEConfig
from repro.serve import (
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

#: Pool size of every serve scenario / aggregate request rate of serve-mlp
#: and serve-mix.
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


def reference_farm(format: str) -> SimulationFarm:
    """The shared farm of the reference instance in element ``format``."""
    return default_farm(replace(RedMulEConfig.reference(), format=format))


def _simulate(tenants, clusters: int, duration_s: float, seed: int,
              scenario: str, format: str) -> ContinuousReport:
    generator = RequestGenerator(tenants, seed=seed)
    # The analytical backend keeps the scenarios closed-form fast; every
    # distinct shape is still memoised in the shared farm cache.
    server = ContinuousServer(n_clusters=clusters,
                              farm=reference_farm(format),
                              backend=BACKEND_MODEL,
                              frequency_hz=generator.frequency_hz,
                              node_dispatch=True)
    return server.simulate(generator.stream(duration_s), scenario=scenario)


def serve_mlp(
    clusters: int = DEFAULT_CLUSTERS,
    rps: float = DEFAULT_RPS,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 0,
    format: str = "fp16",
) -> ContinuousReport:
    """Single-tenant auto-encoder serving (batch-1 : batch-16 mixed 3:1)."""
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
    return _simulate((tenant,), clusters, duration_s, seed, "serve-mlp",
                     format)


def serve_mix(
    clusters: int = DEFAULT_CLUSTERS,
    rps: float = DEFAULT_RPS,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 0,
    format: str = "fp16",
) -> ContinuousReport:
    """Three tenants, heterogeneous model mix, shared pool and cache."""
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
    return _simulate(tenants, clusters, duration_s, seed, "serve-mix", format)


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
    duration_s: float = DEFAULT_MILLION_DURATION_S,
    arrival: Union[str, ArrivalSpec] = "poisson",
    autoscale: bool = False,
    slo_p99_ms: Optional[float] = None,
    clusters: int = DEFAULT_CLUSTERS,
    rps: float = DEFAULT_MILLION_RPS,
    seed: int = 0,
    format: str = "fp16",
) -> ContinuousReport:
    """Continuous-loop serving: streaming arrivals, admission, autoscaling.

    The registry default is a quick window (~500 requests); the
    million-request benchmark runs the same driver with ``duration_s``
    stretched until the stream exceeds 10^6 requests.  ``autoscale``
    replaces the fixed pool with a queue/p99-driven policy that may grow it
    to four times the base size; ``slo_p99_ms`` turns on SLO-aware
    admission (and gives the autoscaler its p99 target).
    """
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
        n_clusters=clusters, farm=reference_farm(format),
        backend=BACKEND_MODEL, frequency_hz=frequency_hz, admission=admission,
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
    duration_s: float = DEFAULT_DECODE_DURATION_S,
    prefill: int = DEFAULT_DECODE_PREFILL,
    decode_steps: int = DEFAULT_DECODE_STEPS,
    batch_cap: int = DEFAULT_DECODE_BATCH_CAP,
    clusters: int = DEFAULT_CLUSTERS,
    rps: float = DEFAULT_DECODE_RPS,
    seed: int = 0,
    format: str = "fp16",
) -> ContinuousReport:
    """Continuously batched LLM decode serving on the event loop.

    Streams Poisson session arrivals (each a multi-step decode of
    ``decode_steps`` tokens on top of a ``prefill``-token cache) through
    :class:`~repro.serve.loop.ContinuousServer` with ``batch_cap``-bounded
    continuous batching.  The report's ``decode_*`` fields show how much of
    the step traffic actually coalesced.
    """
    from repro.serve import decode_session_stream

    sessions = decode_session_classes(prefill, decode_steps)
    server = ContinuousServer(
        n_clusters=clusters, farm=reference_farm(format),
        backend=BACKEND_MODEL, batch_cap=batch_cap,
    )
    stream = decode_session_stream(sessions, rps=rps, duration_s=duration_s,
                                   seed=seed)
    return server.simulate(stream, scenario="serve-decode")
