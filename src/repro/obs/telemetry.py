"""Process-local telemetry: typed instruments, spans and exporters.

The observability layer answers "where did this request's cycles go",
"why did the autoscaler fire" and "which farm batch missed the cache"
without rerunning under a debugger.  It is deliberately zero-dependency
and built from three pieces:

* a :class:`Telemetry` registry of typed instruments -- monotonic
  :class:`Counter` s, last-value :class:`Gauge` s and fixed-bucket
  :class:`Histogram` s;
* a span tracer: :meth:`Telemetry.span` is a context manager stamped in
  wall time, while :meth:`Telemetry.complete_span` /
  :meth:`Telemetry.instant` take explicit timestamps so the serving loop
  can stamp spans in *simulated* cycles and the engine in *engine*
  cycles.  Each (track, lane) pair becomes a (pid, tid) pair in the
  Chrome trace; :meth:`Telemetry.declare_track` names the track's time
  unit so mixed-clock traces stay legible in the viewer;
* a bounded ring-buffer event log (oldest events drop first, the drop
  count is reported in the metrics snapshot) with three exporters:
  Chrome ``trace_event`` JSON (loadable in Perfetto or
  ``chrome://tracing``), a flat metrics JSON document and a human
  summary table.

Instrumented code never imports a concrete telemetry: it calls
:func:`active`, which returns the :data:`NULL_TELEMETRY` singleton until
:func:`install` swaps in a live :class:`Telemetry`.  Every hook in a hot
path is guarded by a single ``if obs.enabled:`` attribute check, which
is the entire disabled-path cost (gated <= 2 % by
``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.report import TextTable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Telemetry",
    "active",
    "install",
]

#: Ring-buffer capacity of the event log (spans + instants + counter
#: samples).  A million-request serve run emits a few events per request,
#: so a bounded log keeps enabled-telemetry memory flat; the metrics
#: snapshot reports how many events were dropped.
DEFAULT_EVENT_CAPACITY = 250_000

#: Default histogram bucket boundaries: powers of four from 1 to ~10^9,
#: wide enough for cycle counts and microsecond wall times alike.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(float(4 ** i) for i in range(16))

# Event kinds in the ring buffer (mapped to Chrome trace phases).
_KIND_SPAN = 0      # complete span -> ph "X"
_KIND_INSTANT = 1   # point event   -> ph "i"
_KIND_SAMPLE = 2    # gauge sample  -> ph "C"


class Counter:
    """A monotonic counter.  ``inc`` is the only mutation."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A last-value instrument that also tracks its min/max envelope."""

    __slots__ = ("name", "value", "min", "max", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.updates = 0

    def set(self, value: float) -> None:
        value = float(value)
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.updates += 1

    def snapshot(self) -> Dict[str, float]:
        if not self.updates:
            return {"value": None, "min": None, "max": None, "updates": 0}
        return {"value": self.value, "min": self.min, "max": self.max,
                "updates": self.updates}


class Histogram:
    """A fixed-bucket histogram: counts per bucket plus sum/min/max.

    Buckets are upper-bound inclusive (``value <= bound``); one overflow
    bucket catches everything above the last bound.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str,
                 bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.bounds = tuple(sorted(float(b) for b in bounds))
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        # First bound >= value; falls off the end into the overflow bucket.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def snapshot(self) -> Dict[str, Any]:
        if not self.count:
            return {"count": 0, "total": 0.0, "mean": None,
                    "min": None, "max": None, "buckets": []}
        buckets = [[bound, self.counts[i]]
                   for i, bound in enumerate(self.bounds) if self.counts[i]]
        if self.counts[-1]:
            buckets.append(["+inf", self.counts[-1]])
        return {"count": self.count, "total": self.total,
                "mean": self.total / self.count,
                "min": self.min, "max": self.max, "buckets": buckets}


class _Span:
    """Reusable wall-clock span context manager (one per ``span()`` call)."""

    __slots__ = ("_telemetry", "name", "cat", "track", "lane", "attrs",
                 "start")

    def __init__(self, telemetry: Telemetry, name: str, cat: str,
                 track: str, lane: str, attrs: Dict[str, Any]) -> None:
        self._telemetry = telemetry
        self.name = name
        self.cat = cat
        self.track = track
        self.lane = lane
        self.attrs = attrs
        self.start = 0.0

    def set(self, **attrs: Any) -> "_Span":
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        self.start = self._telemetry.now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._telemetry.complete_span(
            self.name, self.start, self._telemetry.now(), track=self.track,
            lane=self.lane, cat=self.cat, **self.attrs)


class Telemetry:
    """A live instrument registry + span tracer + ring-buffer event log.

    ``clock`` is the wall-time source for :meth:`span` / :meth:`now`, in
    microseconds; it defaults to ``time.perf_counter_ns() / 1000`` and is
    injectable for deterministic tests.  Tracks using simulated clocks
    (serve cycles, engine cycles) bypass it entirely via the explicit
    timestamps of :meth:`complete_span` / :meth:`instant` /
    :meth:`sample`.
    """

    enabled = True

    def __init__(self, event_capacity: int = DEFAULT_EVENT_CAPACITY,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._events: deque = deque(maxlen=event_capacity)
        self._event_capacity = event_capacity
        self.dropped_events = 0
        self._tracks: Dict[str, str] = {}  # track label -> time unit
        self._clock = clock if clock is not None else (
            lambda: time.perf_counter_ns() / 1000.0)
        self._epoch = self._clock()

    # ------------------------------------------------------------------
    # Clocks and tracks
    # ------------------------------------------------------------------

    def now(self) -> float:
        """Wall time in microseconds since this telemetry was created."""
        return self._clock() - self._epoch

    def declare_track(self, track: str, unit: str = "us") -> None:
        """Name a track's time unit (shown in the trace process name)."""
        self._tracks.setdefault(track, unit)

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        counter.inc(n)

    def gauge(self, name: str, value: float) -> None:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        gauge.set(value)

    def observe(self, name: str, value: float,
                bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        histogram.observe(value)

    # ------------------------------------------------------------------
    # Events (spans, instants, samples)
    # ------------------------------------------------------------------

    def _push(self, event: tuple) -> None:
        if len(self._events) == self._event_capacity:
            self.dropped_events += 1
        self._events.append(event)

    def span(self, name: str, *, cat: str = "", track: str = "host",
             lane: str = "main", **attrs: Any) -> _Span:
        """Open a wall-clock span; closes (and records) on ``__exit__``."""
        return _Span(self, name, cat, track, lane, attrs)

    def complete_span(self, name: str, start: float, end: float, *,
                      track: str = "host", lane: str = "main",
                      cat: str = "", **attrs: Any) -> None:
        """Record a finished span with explicit timestamps (any clock)."""
        if end < start:
            start, end = end, start
        self._push((_KIND_SPAN, track, lane, float(start),
                    float(end) - float(start), name, cat, attrs))

    def instant(self, name: str, *, ts: Optional[float] = None,
                track: str = "host", lane: str = "main", cat: str = "",
                **attrs: Any) -> None:
        """Record a point event (autoscale decision, cache load, ...)."""
        when = self.now() if ts is None else float(ts)
        self._push((_KIND_INSTANT, track, lane, when, 0.0, name, cat, attrs))

    def sample(self, name: str, value: float, *,
               ts: Optional[float] = None, track: str = "host",
               lane: str = "counters") -> None:
        """Update gauge ``name`` and log a counter-track sample for it."""
        self.gauge(name, value)
        when = self.now() if ts is None else float(ts)
        self._push((_KIND_SAMPLE, track, lane, when, 0.0, name, "",
                    float(value)))

    def events(self) -> List[tuple]:
        return list(self._events)

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        """Render the event log as a Chrome ``trace_event`` document.

        Each track becomes a process (pid) labelled with its time unit,
        each lane a thread (tid) within it, so simulated-cycle tracks and
        wall-time tracks land on separate, honestly-labelled timelines.
        """
        pids: Dict[str, int] = {}
        tids: Dict[Tuple[str, str], int] = {}
        trace_events: List[Dict[str, Any]] = []
        for event in self._events:
            kind, track, lane, ts, dur, name, cat, payload = event
            pid = pids.get(track)
            if pid is None:
                pid = pids[track] = len(pids) + 1
            key = (track, lane)
            tid = tids.get(key)
            if tid is None:
                tid = tids[key] = sum(1 for t, _ in tids if t == track) + 1
            if kind == _KIND_SPAN:
                record = {"name": name, "cat": cat or "span", "ph": "X",
                          "ts": ts, "dur": dur, "pid": pid, "tid": tid}
                if payload:
                    record["args"] = dict(payload)
            elif kind == _KIND_INSTANT:
                record = {"name": name, "cat": cat or "event", "ph": "i",
                          "ts": ts, "pid": pid, "tid": tid, "s": "t"}
                if payload:
                    record["args"] = dict(payload)
            else:  # _KIND_SAMPLE
                record = {"name": name, "cat": "metric", "ph": "C",
                          "ts": ts, "pid": pid, "tid": tid,
                          "args": {"value": payload}}
            trace_events.append(record)
        metadata: List[Dict[str, Any]] = []
        for track, pid in pids.items():
            unit = self._tracks.get(track, "us")
            metadata.append({"name": "process_name", "ph": "M", "ts": 0.0,
                             "pid": pid, "tid": 0,
                             "args": {"name": f"{track} ({unit})"}})
        for (track, lane), tid in tids.items():
            metadata.append({"name": "thread_name", "ph": "M", "ts": 0.0,
                             "pid": pids[track], "tid": tid,
                             "args": {"name": lane}})
        trace_events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"],
                                         -e.get("dur", 0.0)))
        return {
            "traceEvents": metadata + trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs",
                "dropped_events": self.dropped_events,
            },
        }

    def export_chrome_trace(self, path: str) -> int:
        """Write the Chrome trace JSON; returns the event count."""
        trace = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle)
        return len(trace["traceEvents"])

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Flat JSON-ready snapshot of every registered instrument."""
        return {
            "counters": {name: c.snapshot()
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.snapshot()
                       for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.snapshot()
                           for name, h in sorted(self._histograms.items())},
            "events": {
                "recorded": len(self._events),
                "dropped": self.dropped_events,
                "capacity": self._event_capacity,
            },
        }

    def export_metrics(self, path: str,
                       extra: Optional[Dict[str, Any]] = None) -> None:
        """Write the metrics snapshot (plus optional extra sections)."""
        payload = self.metrics_snapshot()
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    def summary(self) -> str:
        """Human-readable instrument table (the third exporter)."""
        table = TextTable(["instrument", "kind", "value", "detail"])
        for name, counter in sorted(self._counters.items()):
            table.add_row([name, "counter", counter.value, ""])
        for name, gauge in sorted(self._gauges.items()):
            snap = gauge.snapshot()
            detail = ("" if not snap["updates"] else
                      f"min {snap['min']:g} max {snap['max']:g} "
                      f"n {snap['updates']}")
            value = "-" if snap["value"] is None else f"{snap['value']:g}"
            table.add_row([name, "gauge", value, detail])
        for name, histogram in sorted(self._histograms.items()):
            snap = histogram.snapshot()
            if snap["count"]:
                detail = (f"mean {snap['mean']:g} min {snap['min']:g} "
                          f"max {snap['max']:g}")
            else:
                detail = ""
            table.add_row([name, "histogram", snap["count"], detail])
        table.add_row(["events", "log",
                       len(self._events),
                       f"dropped {self.dropped_events}"])
        return table.render()


class _NullSpan:
    """Shared no-op span: usable as a context manager, records nothing."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled default: every hook is a no-op.

    Hot paths never call these methods -- they guard each hook with a
    single ``if obs.enabled:`` attribute check, which is the entire
    disabled-path overhead.  The methods exist so coarse-grained call
    sites (exporters, summaries) degrade gracefully too.
    """

    enabled = False

    def now(self) -> float:
        return 0.0

    def declare_track(self, track: str, unit: str = "us") -> None:
        return None

    def count(self, name: str, n: int = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float, bounds=DEFAULT_BUCKETS) -> None:
        return None

    def span(self, name: str, **kwargs: Any) -> _NullSpan:
        return _NULL_SPAN

    def complete_span(self, name: str, start: float, end: float,
                      **kwargs: Any) -> None:
        return None

    def instant(self, name: str, **kwargs: Any) -> None:
        return None

    def sample(self, name: str, value: float, **kwargs: Any) -> None:
        return None

    def events(self) -> List[tuple]:
        return []

    def chrome_trace(self) -> Dict[str, Any]:
        return {"traceEvents": []}

    def export_chrome_trace(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
        return 0

    def metrics_snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {},
                "events": {"recorded": 0, "dropped": 0, "capacity": 0}}

    def export_metrics(self, path: str,
                       extra: Optional[Dict[str, Any]] = None) -> None:
        payload = self.metrics_snapshot()
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    def summary(self) -> str:
        return "telemetry disabled"


#: The process-wide disabled singleton; ``active()`` returns it until a
#: live :class:`Telemetry` is installed.
NULL_TELEMETRY = NullTelemetry()

_active = NULL_TELEMETRY


def active():
    """The currently installed telemetry (:data:`NULL_TELEMETRY` default)."""
    return _active


def install(telemetry=None):
    """Install ``telemetry`` process-wide; ``None`` restores the null.

    Returns the installed instance so call sites can chain
    ``tel = install(Telemetry())``.
    """
    global _active
    _active = NULL_TELEMETRY if telemetry is None else telemetry
    return _active
