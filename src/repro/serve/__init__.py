"""Multi-tenant serving simulator over the simulation farm.

``repro.serve`` turns the batched simulation farm into a *serving* study:
how many requests per second can a pool of RedMulE clusters sustain, at what
latency, for which tenant mix?

* :mod:`repro.serve.requests` -- tenants, per-tenant model mixes, and the
  deterministic streaming request generator (Poisson, diurnal and bursty
  MMPP arrival processes, lazily merged across tenants);
* :mod:`repro.serve.loop` -- the serving engine, one event loop with a
  per-(graph, precision) service-time memo so warm models never re-enter
  the farm.  It serves requests atomically -- with SLO-aware admission
  control and tenant fairness, queue/p99-driven autoscaling pools, online
  precision routing, and continuous batching of LLM decode sessions
  (join/leave at step boundaries), sustaining 10^6+ simulated requests at
  interactive wall-clock -- or, with ``node_dispatch=True``, by
  dependency-aware list scheduling of each request's graph nodes onto free
  clusters;
* :mod:`repro.serve.report` -- latency percentiles (p50/p95/p99), exact
  or from a bounded streaming reservoir, throughput, utilisation and
  per-tenant breakdowns.
"""

from repro.serve.loop import (
    AdmissionPolicy,
    AutoscalePolicy,
    ContinuousServer,
)
from repro.serve.report import (
    ContinuousReport,
    LatencyStats,
    ReservoirSampler,
    ServePoolStats,
    StreamingLatencyStats,
    TenantReport,
    percentile,
)
from repro.serve.requests import (
    ARRIVAL_KINDS,
    DEFAULT_FREQUENCY_HZ,
    ArrivalSpec,
    DecodeSessionSpec,
    ModelSpec,
    Request,
    RequestGenerator,
    TenantSpec,
    decode_burst,
    decode_session_stream,
)

__all__ = [
    "ARRIVAL_KINDS",
    "DEFAULT_FREQUENCY_HZ",
    "AdmissionPolicy",
    "ArrivalSpec",
    "AutoscalePolicy",
    "ContinuousReport",
    "ContinuousServer",
    "DecodeSessionSpec",
    "LatencyStats",
    "ModelSpec",
    "Request",
    "RequestGenerator",
    "ReservoirSampler",
    "ServePoolStats",
    "StreamingLatencyStats",
    "TenantReport",
    "TenantSpec",
    "decode_burst",
    "decode_session_stream",
    "percentile",
]
