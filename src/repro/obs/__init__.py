"""repro.obs: zero-dependency observability for the whole stack.

Spans, counters, gauges and histograms threaded through the serving
loop (stamped in simulated cycles), the simulation farm (wall time) and
the RedMulE engine (engine cycles), exported as Chrome ``trace_event``
JSON, flat metrics JSON or a human summary table.  See
:mod:`repro.obs.telemetry` for the model and
:mod:`repro.obs.validate` for the trace schema checker (import
``validate_chrome_trace``/``ChromeTraceError`` from there: the package does
not import it, so ``python -m repro.obs.validate`` runs it exactly once).
"""

from repro.obs.telemetry import (
    DEFAULT_BUCKETS,
    NULL_TELEMETRY,
    Counter,
    Gauge,
    Histogram,
    NullTelemetry,
    Telemetry,
    active,
    install,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Telemetry",
    "active",
    "install",
]
