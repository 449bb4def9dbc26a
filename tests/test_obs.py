"""Tests of the observability subsystem (:mod:`repro.obs`).

Covers the instrument registry (counters, gauges, histograms), the span
tracer under an injected deterministic clock, the Chrome ``trace_event``
exporter plus its schema/nesting validator, the install/active global
hand-off, and the integration hooks of all three instrumented layers:
the serving event loop (simulated-cycle spans), the simulation farm
(wall-time batch spans + cache events) and the engine (per-tile spans
that must be identical between the event-stepped and trace-replay
backends).
"""

import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.farm import SimulationFarm
from repro.graph.llm import build_decode_spec
from repro.graph.zoo import build_model
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    active,
    install,
)
from repro.obs.validate import ChromeTraceError, validate_chrome_trace
from repro.obs.validate import main as validate_main
from repro.serve import (
    AdmissionPolicy,
    AutoscalePolicy,
    ContinuousServer,
    DecodeSessionSpec,
    Request,
    decode_session_stream,
)


REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _no_leaked_install():
    """Every test starts and ends with the null telemetry installed."""
    install(None)
    yield
    install(None)


class FakeClock:
    """Deterministic microsecond clock for span tests."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, us):
        self.t += us


def _model_farm():
    return SimulationFarm(backend="model")


def _request(request_id, graph, arrival, tenant="t", precision=None):
    return Request(request_id=request_id, tenant=tenant, model="m",
                   graph=graph, arrival_cycle=arrival, precision=precision)


class TestInstruments:
    def test_counter_is_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.snapshot() == 5

    def test_gauge_tracks_envelope(self):
        gauge = Gauge("g")
        assert gauge.snapshot() == {"value": None, "min": None,
                                    "max": None, "updates": 0}
        for value in (3.0, -1.0, 2.0):
            gauge.set(value)
        assert gauge.snapshot() == {"value": 2.0, "min": -1.0,
                                    "max": 3.0, "updates": 3}

    def test_histogram_buckets_are_upper_bound_inclusive(self):
        histogram = Histogram("h", bounds=(1.0, 4.0, 16.0))
        for value in (0.5, 1.0, 4.0, 5.0, 100.0):
            histogram.observe(value)
        # 0.5 and 1.0 fall in the <=1 bucket, 4.0 in <=4, 5.0 in <=16,
        # 100.0 overflows.
        assert histogram.counts == [2, 1, 1, 1]
        snap = histogram.snapshot()
        assert snap["count"] == 5
        assert snap["min"] == 0.5 and snap["max"] == 100.0
        assert snap["buckets"][-1] == ["+inf", 1]

    def test_histogram_empty_snapshot(self):
        assert Histogram("h").snapshot()["count"] == 0

    def test_registry_lazily_creates_instruments(self):
        telemetry = Telemetry()
        telemetry.count("jobs", 2)
        telemetry.count("jobs")
        telemetry.gauge("depth", 7)
        telemetry.observe("cycles", 123.0)
        snap = telemetry.metrics_snapshot()
        assert snap["counters"]["jobs"] == 3
        assert snap["gauges"]["depth"]["value"] == 7.0
        assert snap["histograms"]["cycles"]["count"] == 1


class TestSpans:
    def test_span_context_manager_uses_the_injected_clock(self):
        clock = FakeClock()
        telemetry = Telemetry(clock=clock)
        with telemetry.span("work", cat="unit", answer=42):
            clock.advance(250.0)
        (kind, track, lane, ts, dur, name, cat, attrs), = telemetry.events()
        assert (track, lane, name, cat) == ("host", "main", "work", "unit")
        assert (ts, dur) == (0.0, 250.0)
        assert attrs == {"answer": 42}

    def test_span_set_attaches_late_attributes(self):
        telemetry = Telemetry(clock=FakeClock())
        with telemetry.span("work") as span:
            span.set(rows=8)
        assert telemetry.events()[0][-1] == {"rows": 8}

    def test_span_records_the_exception_type(self):
        telemetry = Telemetry(clock=FakeClock())
        with pytest.raises(ValueError):
            with telemetry.span("work"):
                raise ValueError("boom")
        assert telemetry.events()[0][-1] == {"error": "ValueError"}

    def test_complete_span_swaps_reversed_timestamps(self):
        telemetry = Telemetry()
        telemetry.complete_span("s", 100.0, 40.0, track="serve")
        event = telemetry.events()[0]
        assert (event[3], event[4]) == (40.0, 60.0)

    def test_sample_feeds_both_gauge_and_event_log(self):
        telemetry = Telemetry()
        telemetry.sample("depth", 5, ts=10.0, track="serve")
        assert telemetry.metrics_snapshot()["gauges"]["depth"]["value"] == 5.0
        assert telemetry.events()[0][0] == 2  # _KIND_SAMPLE

    def test_ring_buffer_drops_oldest_and_counts(self):
        telemetry = Telemetry(event_capacity=3)
        for i in range(5):
            telemetry.instant(f"e{i}", ts=float(i))
        assert telemetry.dropped_events == 2
        assert [event[5] for event in telemetry.events()] == \
            ["e2", "e3", "e4"]
        snap = telemetry.metrics_snapshot()["events"]
        assert snap == {"recorded": 3, "dropped": 2, "capacity": 3}


class TestChromeExport:
    def _loaded(self, telemetry):
        trace = telemetry.chrome_trace()
        # Round-trip through JSON: what the viewer loads is what we check.
        return json.loads(json.dumps(trace))

    def test_tracks_become_processes_and_lanes_threads(self):
        telemetry = Telemetry()
        telemetry.declare_track("serve", "cycles")
        telemetry.complete_span("outer", 0, 100, track="serve",
                                lane="cluster0")
        telemetry.complete_span("inner", 10, 60, track="serve",
                                lane="cluster0")
        telemetry.complete_span("other", 5, 50, track="engine", lane="job0")
        trace = self._loaded(telemetry)
        stats = validate_chrome_trace(trace)
        # Two data lanes plus each process's tid-0 metadata lane.
        assert stats["lanes"] == 4
        assert stats["phases"]["X"] == 3
        assert stats["max_depth"] == 2  # inner nests in outer
        names = {event["args"]["name"] for event in trace["traceEvents"]
                 if event["ph"] == "M" and event["name"] == "process_name"}
        assert names == {"serve (cycles)", "engine (us)"}

    def test_exports_write_loadable_files(self, tmp_path):
        telemetry = Telemetry(clock=FakeClock())
        with telemetry.span("work"):
            pass
        telemetry.count("jobs")
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert telemetry.export_chrome_trace(str(trace_path)) > 0
        telemetry.export_metrics(str(metrics_path), extra={"run": {"n": 1}})
        validate_chrome_trace(json.loads(trace_path.read_text()))
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["jobs"] == 1
        assert metrics["run"] == {"n": 1}

    def test_summary_lists_every_instrument(self):
        telemetry = Telemetry()
        telemetry.count("farm.jobs", 3)
        telemetry.gauge("serve.queue_depth", 2)
        telemetry.observe("engine.job_cycles", 100.0)
        summary = telemetry.summary()
        for name in ("farm.jobs", "serve.queue_depth", "engine.job_cycles",
                     "dropped"):
            assert name in summary


#: A valid trace with every phase the exporter emits: two nested spans,
#: an instant, a counter and a metadata record.
_VALID_TRACE = [
    {"name": "outer", "cat": "c", "ph": "X", "ts": 0, "dur": 100,
     "pid": 1, "tid": 1},
    {"name": "inner", "cat": "c", "ph": "X", "ts": 10.5, "dur": 20,
     "pid": 1, "tid": 1},
    {"name": "mark", "ph": "i", "ts": 5, "pid": 1, "tid": 1, "s": "t"},
    {"name": "depth", "ph": "C", "ts": 7, "pid": 1, "tid": 2,
     "args": {"value": 3.0}},
    {"name": "thread_name", "ph": "M", "ts": 0, "pid": 1, "tid": 1,
     "args": {"name": "lane"}},
]

#: Every field the validator reads from an event.
_EVENT_FIELDS = ("name", "ph", "ts", "dur", "pid", "tid", "s", "args")

_DELETE = object()

#: The numbers json.load hands over besides plain ones: NaN, the
#: infinities and integers beyond float range; and integers a library
#: caller can pass but ``repr`` refuses to spell out (over 4,300 digits).
#: Those are built by a function, so the strategy's own repr, which
#: hypothesis computes, does not hold one.
_AWKWARD_NUMBERS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 10 ** 400, -(10 ** 400)]) | st.builds(
    lambda digits, sign: sign * 10 ** digits, st.integers(4300, 5000),
    st.sampled_from([1, -1]))

#: JSON-like values.
_JSON_LIKE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | _AWKWARD_NUMBERS | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)

#: Event lists whose events carry the validated fields with arbitrary
#: values (arbitrary documents rarely reach the per-event checks).
_EVENT_SOUP = st.lists(
    st.dictionaries(st.sampled_from(_EVENT_FIELDS), _JSON_LIKE), max_size=4)


def _mutated_trace(index, field, value):
    """``_VALID_TRACE`` with one event field replaced or deleted."""
    events = copy.deepcopy(_VALID_TRACE)
    if value is _DELETE:
        events[index].pop(field, None)
    else:
        events[index][field] = value
    return {"traceEvents": events}


class TestValidator:
    def _span(self, ts, dur, name="s", pid=1, tid=1, **extra):
        record = {"name": name, "cat": "c", "ph": "X", "ts": ts, "dur": dur,
                  "pid": pid, "tid": tid}
        record.update(extra)
        return record

    def test_accepts_a_bare_event_list(self):
        stats = validate_chrome_trace([self._span(0, 10)])
        assert stats == {"events": 1, "phases": {"X": 1}, "lanes": 1,
                         "max_depth": 1}

    def test_rejects_unknown_phase_and_missing_fields(self):
        with pytest.raises(ChromeTraceError) as excinfo:
            validate_chrome_trace([
                {"name": "bad", "ph": "Q", "ts": 0, "pid": 1, "tid": 1},
                {"name": "late", "ph": "X", "ts": -5, "dur": 1,
                 "pid": 1, "tid": 1},
                {"ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1},
            ])
        problems = "\n".join(excinfo.value.problems)
        assert "unknown phase" in problems
        assert "ts" in problems and "name" in problems

    def test_rejects_partially_overlapping_spans(self):
        with pytest.raises(ChromeTraceError, match="overlap"):
            validate_chrome_trace([self._span(0, 10), self._span(5, 10)])

    def test_nested_spans_are_fine_and_depth_is_reported(self):
        stats = validate_chrome_trace([
            self._span(0, 100), self._span(10, 20), self._span(12, 5),
            self._span(50, 10),
        ])
        assert stats["max_depth"] == 3

    def test_lanes_are_independent(self):
        stats = validate_chrome_trace([
            self._span(0, 10, tid=1), self._span(5, 10, tid=2),
        ])
        assert stats["lanes"] == 2 and stats["max_depth"] == 1

    def test_counter_and_instant_phases_are_checked(self):
        validate_chrome_trace([
            {"name": "v", "ph": "C", "ts": 0, "pid": 1, "tid": 1,
             "args": {"value": 3.0}},
            {"name": "e", "ph": "i", "ts": 0, "pid": 1, "tid": 1, "s": "t"},
        ])
        with pytest.raises(ChromeTraceError, match="numeric"):
            validate_chrome_trace([
                {"name": "v", "ph": "C", "ts": 0, "pid": 1, "tid": 1,
                 "args": {"value": "not-a-number"}}])
        with pytest.raises(ChromeTraceError, match="scope"):
            validate_chrome_trace([
                {"name": "e", "ph": "i", "ts": 0, "pid": 1, "tid": 1,
                 "s": "bogus"}])

    @pytest.mark.parametrize("field", ["ts", "dur"])
    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, 10 ** 400, -(10 ** 400)],
        ids=["nan", "inf", "-inf", "huge", "-huge"])
    def test_rejects_non_finite_and_unconvertible_times(self, field, value):
        span = self._span(0, 10)
        span[field] = value
        with pytest.raises(ChromeTraceError, match="finite"):
            validate_chrome_trace([span])

    @pytest.mark.parametrize("value", [10 ** 400, 10 ** 5000, -(10 ** 5000)],
                             ids=["400-digits", "5000-digits", "-5000-digits"])
    @pytest.mark.parametrize("field", ["ts", "dur", "s", "pid"])
    def test_huge_integers_get_a_short_problem_message(self, field, value):
        """Every problem message shows a bounded repr of the value, so an
        int too long for ``repr`` (over 4,300 digits) is reported, not
        raised as ``ValueError``, and a long one is not printed in full."""
        if field == "s":
            events = [{"name": "e", "ph": "i", "ts": 0, "pid": 1, "tid": 1,
                       "s": value}]
        elif field == "pid":
            # A valid pid, shown by the lane's partial-overlap problem.
            events = [self._span(0, 10, pid=value),
                      self._span(5, 10, pid=value)]
        else:
            span = self._span(0, 10)
            span[field] = value
            events = [span]
        with pytest.raises(ChromeTraceError) as excinfo:
            validate_chrome_trace(events)
        (problem,) = excinfo.value.problems
        assert "bits>" in problem or "..." in problem
        assert len(str(excinfo.value)) < 160

    def test_cli_reports_unreadable_files_as_invalid(self, tmp_path,
                                                      capsys):
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps([self._span(10 ** 400, 1)]))
        nan = tmp_path / "nan.json"
        nan.write_text(json.dumps([self._span(0, math.nan)]))
        undecodable = tmp_path / "latin1.json"
        undecodable.write_bytes(b'[{"name": "\xe9"}]')
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        paths = [str(huge), str(nan), str(undecodable), str(deep)]
        assert validate_main(paths) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert all(": INVALID -- " in line for line in lines)
        assert "'ts' must be a finite" in lines[0]
        assert "finite non-negative 'dur'" in lines[1]
        assert "can't decode" in lines[2]
        assert "recursion" in lines[3]

    @settings(max_examples=200, deadline=None)
    @given(document=_JSON_LIKE | _EVENT_SOUP | st.builds(
        _mutated_trace, st.integers(0, len(_VALID_TRACE) - 1),
        st.sampled_from(_EVENT_FIELDS),
        st.just(_DELETE) | _AWKWARD_NUMBERS | _JSON_LIKE))
    def test_returns_a_summary_or_raises_chrome_trace_error(self, document):
        """Arbitrary JSON-like documents, and single-field mutations of a
        valid trace, validate or raise ChromeTraceError -- never another
        error -- and an accepted trace has finite times only."""
        try:
            stats = validate_chrome_trace(document)
        except ChromeTraceError as error:
            assert error.problems
            return
        assert set(stats) == {"events", "phases", "lanes", "max_depth"}
        events = (document["traceEvents"] if isinstance(document, dict)
                  else document)
        for event in events:
            assert math.isfinite(event["ts"])
            if event["ph"] == "X":
                assert math.isfinite(event["dur"])

    def test_the_fuzzed_trace_is_valid(self):
        assert validate_chrome_trace(_VALID_TRACE)["max_depth"] == 2

    @pytest.mark.parametrize("module", ["repro.obs", "repro.obs.validate"])
    def test_module_entry_points_write_nothing_to_stderr(self, tmp_path,
                                                         module):
        """Both CLI spellings validate a trace without runpy finding the
        validator already imported by its own package (which warns on
        stderr and runs the module body twice)."""
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(json.dumps([self._span(0, 10)]))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
            "PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", module, str(trace_path)],
            capture_output=True, text=True, cwd=REPO, env=env)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.startswith(f"{trace_path}: ok -- 1 events")


class TestInstallActive:
    def test_null_telemetry_is_the_default(self):
        assert active() is NULL_TELEMETRY
        assert isinstance(active(), NullTelemetry)
        assert not active().enabled

    def test_install_and_restore(self):
        telemetry = Telemetry()
        assert install(telemetry) is telemetry
        assert active() is telemetry
        assert install(None) is NULL_TELEMETRY
        assert active() is NULL_TELEMETRY

    def test_null_telemetry_is_inert_but_complete(self, tmp_path):
        null = NullTelemetry()
        null.count("x")
        null.gauge("x", 1)
        null.observe("x", 1.0)
        with null.span("work") as span:
            span.set(rows=1)
        null.complete_span("s", 0, 1)
        null.instant("e")
        null.sample("g", 2)
        assert null.events() == []
        assert null.summary() == "telemetry disabled"
        path = tmp_path / "trace.json"
        assert null.export_chrome_trace(str(path)) == 0
        assert json.loads(path.read_text()) == {"traceEvents": []}


class TestServeIntegration:
    def test_request_spans_and_counters_match_the_report(self):
        telemetry = Telemetry()
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        server = ContinuousServer(n_clusters=2, farm=farm, backend="model",
                                  telemetry=telemetry,
                                  admission=AdmissionPolicy(max_queue=1))
        requests = [_request(i, graph, 0) for i in range(5)]
        report = server.simulate(requests)
        assert report.rejected == 2  # 2 dispatch, 1 queues, 2 shed
        snap = telemetry.metrics_snapshot()
        assert snap["counters"]["serve.admitted"] == report.admitted
        assert snap["counters"]["serve.completed"] == report.completed
        assert snap["counters"]["serve.rejected.queue"] == report.rejected
        assert snap["histograms"]["serve.latency_cycles"]["count"] == \
            report.completed
        trace = telemetry.chrome_trace()
        validate_chrome_trace(trace)
        spans = [event for event in trace["traceEvents"]
                 if event["ph"] == "X" and event["cat"] == "request"]
        assert len(spans) == report.completed
        # Concurrent requests never share a lane: with 2 clusters the
        # request spans occupy exactly 2 lanes, and every span carries its
        # queueing delay as an attribute.
        assert len({span["tid"] for span in spans}) == 2
        assert all("wait_cycles" in span["args"] for span in spans)
        shed = [event for event in trace["traceEvents"]
                if event["ph"] == "i" and event["name"] == "serve.shed"]
        assert len(shed) == report.rejected
        assert {event["args"]["reason"] for event in shed} == {"queue"}

    def test_decode_step_spans_and_counters_match_the_report(self):
        sessions = tuple(
            DecodeSessionSpec(spec=build_decode_spec(name), prefill=4,
                              decode_steps=4)
            for name in ("llm-decode-tiny", "llm-decode-tiny-kv8"))
        requests = list(decode_session_stream(sessions, rps=20_000.0,
                                              duration_s=0.002, seed=3))
        farm = _model_farm()

        def serve(telemetry):
            server = ContinuousServer(n_clusters=2, farm=farm,
                                      backend="model", batch_cap=4,
                                      telemetry=telemetry)
            return server.simulate(requests)

        telemetry = Telemetry()
        report = serve(telemetry)  # cold farm
        assert report.decode_batched_steps > 0
        snap = telemetry.metrics_snapshot()
        assert snap["counters"]["serve.decode_sessions"] == \
            report.decode_sessions == len(requests)
        trace = telemetry.chrome_trace()
        validate_chrome_trace(trace)
        steps = [event for event in trace["traceEvents"]
                 if event["ph"] == "X" and event["cat"] == "decode-step"]
        assert len(steps) == report.decode_steps
        assert sum(span["args"]["occupancy"] > 1 for span in steps) == \
            report.decode_batched_steps
        # Telemetry never changes a result: the obs-off run on the now warm
        # farm differs only in the farm-cache traffic, and a second traced
        # run on the warm farm matches it field for field.
        quiet = serve(NULL_TELEMETRY)
        assert dataclasses.replace(report, cache_hits=quiet.cache_hits,
                                   cache_misses=quiet.cache_misses) == quiet
        assert serve(Telemetry()) == quiet

    def test_autoscale_decisions_are_logged_with_the_p99_window(self):
        telemetry = Telemetry()
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        server = ContinuousServer(
            n_clusters=1, farm=farm, backend="model", telemetry=telemetry,
            autoscaler=AutoscalePolicy(
                min_clusters=1, max_clusters=4, interval_cycles=100,
                queue_per_cluster=1, provision_delay_cycles=100))
        report = server.simulate([_request(i, graph, 0) for i in range(8)])
        assert report.pool.scale_ups > 0
        events = telemetry.events()
        decisions = [event[-1] for event in events
                     if event[5] == "serve.autoscale"]
        assert any(d["decision"] == "scale_up" for d in decisions)
        assert all({"desired", "effective", "queue_depth",
                    "window_p99"} <= set(d) for d in decisions)
        pool_samples = [event for event in events
                        if event[5] == "serve.pool_size"]
        assert len(pool_samples) >= 2  # initial size + at least one resize
        validate_chrome_trace(telemetry.chrome_trace())

    def test_serve_spans_are_stamped_in_simulated_cycles(self):
        telemetry = Telemetry()
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        server = ContinuousServer(n_clusters=1, farm=farm, backend="model",
                                  telemetry=telemetry)
        serial = server.service_cycles(graph)
        server.simulate([_request(0, graph, 0)])
        span = next(event for event in telemetry.events()
                    if event[0] == 0 and event[1] == "serve")
        assert (span[3], span[4]) == (0.0, float(serial))


class TestFarmIntegration:
    def test_batch_spans_and_cache_events(self, tmp_path):
        telemetry = install(Telemetry())
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        jobs = [job for node in graph.lower(config=farm.config).nodes
                for job in node.jobs]
        farm.run(jobs)
        farm.run(jobs)  # second batch: all hits
        snap = telemetry.metrics_snapshot()
        assert snap["counters"]["farm.batches"] == 2
        assert snap["counters"]["farm.jobs"] == 2 * len(jobs)
        assert snap["counters"]["farm.cache_hits"] == len(jobs)
        batches = [event for event in telemetry.events()
                   if event[5] == "farm.batch"]
        assert len(batches) == 2
        assert batches[1][-1]["cache_hits"] == len(jobs)
        path = tmp_path / "cache.json"
        farm.save_cache(str(path))
        farm.load_cache(str(path))
        names = [event[5] for event in telemetry.events()]
        assert "farm.cache_save" in names and "farm.cache_load" in names
        validate_chrome_trace(telemetry.chrome_trace())

    def test_farm_records_nothing_by_default(self):
        farm = _model_farm()
        graph = build_model("mlp-tiny")
        jobs = [job for node in graph.lower(config=farm.config).nodes
                for job in node.jobs]
        farm.run(jobs)  # must not raise, must not record
        assert active().events() == []


class TestEngineIntegration:
    """Per-tile spans from the cycle-accurate engine path.

    The trace-replay backend applies recorded timing at tile boundaries,
    so its span timeline must be *identical* to the event-stepped one --
    that is what makes the two backends' traces directly comparable in
    the viewer; only the ``replayed`` attribute may differ.
    """

    M, N, K = 16, 16, 16

    def _offload(self, engine_backend, engine=None):
        from repro.fp.vector import random_matrix
        from repro.interco.hci import Hci, HciConfig
        from repro.mem.layout import MemoryAllocator
        from repro.mem.tcdm import Tcdm, TcdmConfig
        from repro.redmule.config import RedMulEConfig
        from repro.redmule.engine import RedMulE
        from repro.redmule.job import MatmulJob

        telemetry = install(Telemetry())
        try:
            if engine is None:
                tcdm = Tcdm(TcdmConfig())
                engine = RedMulE(RedMulEConfig.reference(),
                                 Hci(tcdm, HciConfig()),
                                 backend=engine_backend)
            tcdm = engine.hci.tcdm
            allocator = MemoryAllocator(tcdm.base, tcdm.size)
            hx = allocator.alloc_matrix(self.M, self.N, "X")
            hw = allocator.alloc_matrix(self.N, self.K, "W")
            hz = allocator.alloc_matrix(self.M, self.K, "Z")
            hx.store(tcdm, random_matrix(self.M, self.N, scale=0.25,
                                         seed=1))
            hw.store(tcdm, random_matrix(self.N, self.K, scale=0.25,
                                         seed=2))
            engine.offload(MatmulJob.from_handles(hx, hw, hz))
        finally:
            install(None)
        tiles = [event for event in telemetry.events()
                 if event[1] == "engine" and event[6] == "tile"]
        job_spans = [event for event in telemetry.events()
                     if event[1] == "engine" and event[6] == "job"]
        return engine, tiles, job_spans

    @staticmethod
    def _timeline(tiles):
        return [(event[5], event[3], event[4]) for event in tiles]

    def test_event_stepped_and_replay_timelines_are_identical(self):
        from repro.redmule.trace import reset_shared_trace_stores

        reset_shared_trace_stores()
        try:
            _, stepped, _ = self._offload("exact-simd")
            trace_engine, recorded, _ = self._offload("trace")
            _, replayed, _ = self._offload("trace", engine=trace_engine)
        finally:
            reset_shared_trace_stores()
        assert len(stepped) > 1  # multiple tiles, or the test proves nothing
        assert self._timeline(stepped) == self._timeline(recorded) \
            == self._timeline(replayed)
        assert {event[-1]["replayed"] for event in stepped} == {False}
        assert {event[-1]["replayed"] for event in recorded} == {False}
        assert {event[-1]["replayed"] for event in replayed} == {True}

    def test_job_span_covers_every_tile_and_the_trace_nests(self):
        telemetry_engine, tiles, job_spans = self._offload("exact-simd")
        result = telemetry_engine.history[-1]
        assert len(job_spans) == 1
        job = job_spans[0]
        assert job[3] == 0.0 and job[4] == float(result.cycles)
        assert job[-1]["tiles"] == result.n_tiles == len(tiles)
        assert job[-1]["stall_cycles"] == result.stall_cycles
