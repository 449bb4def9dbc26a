"""Stateful differential tests (hypothesis rule machines).

Two :class:`~hypothesis.stateful.RuleBasedStateMachine` suites live here:

* :class:`TraceDifferentialMachine` drives random interleaved sequences of
  job submissions, watchdog aborts, warm replays and precision switches
  against three targets at once -- the event-stepped engine (``exact-simd``
  backend, the oracle), the trace-compiled engine (``trace`` backend,
  records then replays), and the golden numpy model
  (:func:`matmul_hw_order_simd_fmt`).  After every command it checks
  bit-equality of the TCDM result images and the cycle statistics, and that
  every resource -- controller context, streamer queues, datapath pipeline,
  trace-session hooks -- has been released.

* :class:`ServeLoopMachine` drives the continuous serving loop with random
  admission/completion/scale-event sequences and checks its conservation
  laws after every command: request accounting closes exactly, the pool's
  idle/in-flight split matches its size, every memoised service time equals
  the serial ``farm.time_program`` makespan, and replaying the recorded
  command log on a fresh server reproduces the identical state.

* :class:`DecodeSessionMachine` extends the same treatment to continuous
  batching: random interleavings of atomic requests, multi-step decode
  sessions (two batch-group signatures), clock advances and forced scale
  events, with the accounting closure spanning both kinds (admitted ==
  completed + queued + occupying), every filled step-cost memo slot (full
  step, attention half, shared half) equal to its graph's serial
  ``farm.time_program`` makespan, and command-log replay determinism.

All runs are bounded (few examples, short command sequences) so they stay
quick CI jobs rather than soak tests.
"""

import dataclasses

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import pytest

from repro.farm import SimulationFarm
from repro.fp.vector import pack_matrix, random_matrix
from repro.graph.llm import (
    build_decode_spec,
    decode_attention_graph,
    decode_shared_graph,
    decode_step_graph,
)
from repro.graph.zoo import build_model
from repro.interco.hci import Hci, HciConfig
from repro.mem.layout import MemoryAllocator
from repro.mem.tcdm import Tcdm, TcdmConfig
from repro.redmule.config import RedMulEConfig
from repro.redmule.engine import RedMulE
from repro.redmule.functional import matmul_hw_order_simd_fmt
from repro.redmule.job import MatmulJob
from repro.redmule.trace import TraceStore, reset_shared_trace_stores
from repro.serve import (
    AdmissionPolicy,
    ContinuousServer,
    DecodeSessionSpec,
    Request,
)

#: Small shapes exercising single ragged tiles, multi-tile sweeps and the
#: Z-backlog handover between tiles, without blowing up per-example runtime.
SHAPES = [(8, 16, 16), (13, 7, 5), (16, 40, 24), (9, 24, 17)]
FORMATS = ["fp16", "bf16", "fp8-e4m3", "fp8-e5m2"]


def _fresh_target(fmt_name):
    """(engine, allocator-source tcdm) pair for one backend/format."""
    config = dataclasses.replace(RedMulEConfig.reference(), format=fmt_name)
    tcdm = Tcdm(TcdmConfig())
    hci = Hci(tcdm, HciConfig(n_wide_ports=config.n_mem_ports))
    return config, tcdm, hci


class TraceDifferentialMachine(RuleBasedStateMachine):
    def _rebuild(self, fmt_name):
        self.fmt_name = fmt_name
        config, tcdm_ref, hci_ref = _fresh_target(fmt_name)
        self.config = config
        self.ref_engine = RedMulE(config, hci_ref, backend="exact-simd")
        config2, tcdm_trc, hci_trc = _fresh_target(fmt_name)
        # One private store per format so precision switches cannot replay a
        # schedule recorded for a different element width.
        store = self.stores.setdefault(fmt_name, TraceStore())
        self.engine = RedMulE(config2, hci_trc, backend="trace",
                              trace_store=store)
        self.store = store
        self.last_job = None

    @initialize()
    def setup(self):
        reset_shared_trace_stores()
        self.stores = {}
        self.seed = 0
        self._rebuild("fp16")

    def _place(self, engine, m, n, k, accumulate, x, w, z0):
        # No memory wipe between jobs: operands are stored fresh each time
        # and the job overwrites its whole Z extent, so stale bytes from a
        # previous command can never leak into a result.
        tcdm = engine.tcdm
        fmt = self.config.format
        allocator = MemoryAllocator(tcdm.base, tcdm.size)
        hx = allocator.alloc_matrix(m, n, "X", fmt=fmt)
        hw = allocator.alloc_matrix(n, k, "W", fmt=fmt)
        hz = allocator.alloc_matrix(m, k, "Z", fmt=fmt)
        hx.store(tcdm, x)
        hw.store(tcdm, w)
        if accumulate:
            hz.store(tcdm, z0)
        job = MatmulJob.from_handles(hx, hw, hz, accumulate=accumulate)
        return job, hz

    def _run_and_check(self, m, n, k, accumulate):
        self.seed += 3
        fmt = self.config.format
        x = random_matrix(m, n, fmt, scale=0.25, seed=self.seed)
        w = random_matrix(n, k, fmt, scale=0.25, seed=self.seed + 1)
        z0 = random_matrix(m, k, fmt, scale=0.25, seed=self.seed + 2)

        ref_job, ref_hz = self._place(self.ref_engine, m, n, k, accumulate,
                                      x, w, z0)
        job, hz = self._place(self.engine, m, n, k, accumulate, x, w, z0)
        ref = self.ref_engine.run_job(ref_job)
        got = self.engine.run_job(job)
        self.last_job = (m, n, k, accumulate)

        n_bytes = m * k * self.config.element_bytes
        ref_image = self.ref_engine.tcdm.dump_image(ref_hz.base, n_bytes)
        got_image = self.engine.tcdm.dump_image(hz.base, n_bytes)
        assert got_image == ref_image
        golden = matmul_hw_order_simd_fmt(
            x, w, self.config.binary_format, z0 if accumulate else None)
        assert got_image == pack_matrix(golden, fmt)
        assert (got.cycles, got.stall_cycles, got.active_cycles,
                got.issued_macs) == (ref.cycles, ref.stall_cycles,
                                     ref.active_cycles, ref.issued_macs)

    @rule(shape=st.sampled_from(SHAPES), accumulate=st.booleans())
    def submit(self, shape, accumulate):
        self._run_and_check(*shape, accumulate)

    @rule(shape=st.sampled_from(SHAPES))
    def abort(self, shape):
        """A watchdog abort mid-recording must leave no partial state."""
        m, n, k = shape
        self.seed += 3
        fmt = self.config.format
        x = random_matrix(m, n, fmt, scale=0.25, seed=self.seed)
        w = random_matrix(n, k, fmt, scale=0.25, seed=self.seed + 1)
        job, _ = self._place(self.engine, m, n, k, False, x, w, None)
        n_before = len(self.store)
        with pytest.raises(RuntimeError, match="exceeded"):
            self.engine.offload(job, max_cycles=4)
        # An abort may never commit a schedule recorded for the killed run.
        assert len(self.store) == n_before

    @rule()
    def replay_last(self):
        """Re-running the previous shape takes the warm-replay path."""
        if self.last_job is None:
            return
        self._run_and_check(*self.last_job)

    @rule(fmt_name=st.sampled_from(FORMATS))
    def switch_precision(self, fmt_name):
        if fmt_name == self.fmt_name:
            return
        self._rebuild(fmt_name)

    @invariant()
    def resources_released(self):
        if not hasattr(self, "engine"):
            return  # before @initialize
        for engine in (self.engine, self.ref_engine):
            assert not engine.controller.busy
            assert engine.streamer.pending() == 0
            assert not engine.datapath.busy
        assert self.engine._session is None

    @invariant()
    def store_consistent(self):
        if not hasattr(self, "store"):
            return
        stats = self.store.stats
        assert stats.recordings - stats.discarded >= 0
        assert len(self.store) <= stats.recordings


TestTraceDifferential = TraceDifferentialMachine.TestCase
TestTraceDifferential.settings = settings(
    max_examples=10,
    stateful_step_count=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- continuous serving loop --------------------------------------------------
#: One shared farm (and timing cache) across examples: the machine tests the
#: loop's bookkeeping, not the farm, so warm lookups keep it fast.
_SERVE_FARM = SimulationFarm(backend="model")
_SERVE_GRAPHS = {
    "mlp-tiny": build_model("mlp-tiny"),
    "conv-tiny": build_model("conv-tiny"),
}
_SERVE_ADMISSION = AdmissionPolicy(max_queue=6, fair_share=2.0)


def _fresh_serve_loop():
    return ContinuousServer(n_clusters=2, farm=_SERVE_FARM, backend="model",
                            admission=_SERVE_ADMISSION)


class ServeLoopMachine(RuleBasedStateMachine):
    """Admission / completion / scale events against the loop's invariants."""

    @initialize()
    def setup(self):
        self.server = _fresh_serve_loop()
        self.log = []  # replayable command log
        self.next_id = 0
        self.last_arrival = 0

    def _state(self, server):
        """Everything a replay must reproduce exactly.

        The completion statistics come from a ``finalize()`` snapshot,
        which folds the buffered completions in: the machine snapshots
        after every command while the replay snapshots once, so equality
        also shows that fold timing never changes a result.
        """
        report = server.finalize()
        return (server.now, server.offered, server.admitted, server.rejected,
                server.queue_depth, server.in_flight, server.n_clusters,
                server.scale_ups, server.scale_downs,
                report.completed, report.latency, report.models,
                dict(server.rejection_reasons),
                sorted(costs.serial for costs in server._programs.values()))

    @rule(model=st.sampled_from(sorted(_SERVE_GRAPHS)),
          precision=st.sampled_from([None, "fp8-e4m3"]),
          tenant=st.sampled_from(["a", "b"]),
          gap=st.integers(min_value=0, max_value=4000))
    def arrive(self, model, precision, tenant, gap):
        arrival = max(self.last_arrival, self.server.now) + gap
        request = Request(request_id=self.next_id, tenant=tenant,
                          model=model, graph=_SERVE_GRAPHS[model],
                          arrival_cycle=arrival, precision=precision)
        self.next_id += 1
        self.last_arrival = arrival
        self.log.append(("arrive", request))
        self.server.offer(request)

    @rule(delta=st.integers(min_value=1, max_value=8000))
    def advance(self, delta):
        target = self.server.now + delta
        self.log.append(("advance", target))
        self.server.run_until(target)

    @rule(delta=st.sampled_from([-2, -1, 1, 2]))
    def scale(self, delta):
        self.log.append(("scale", delta))
        self.server.force_scale(delta)

    @rule()
    def drain(self):
        self.log.append(("drain",))
        self.server.drain()

    @invariant()
    def accounting_closes(self):
        if not hasattr(self, "server"):
            return  # before @initialize
        server = self.server
        assert server.offered == server.admitted + server.rejected
        assert server.admitted == (server.finalize().completed
                                   + server.queue_depth + server.in_flight)
        assert server.in_flight + server._idle == server.n_clusters
        assert 0 <= server.queue_depth <= _SERVE_ADMISSION.max_queue
        assert server.n_clusters >= 1

    @invariant()
    def memoised_service_is_the_serial_makespan(self):
        """Conservation: every memo entry equals ``farm.time_program`` of
        the program lowered for that precision's farm."""
        if not hasattr(self, "server"):
            return
        server = self.server
        for key, costs in server._programs.items():
            farm = server.farm.with_format(key[1])
            assert costs.serial == int(round(
                farm.time_program(costs.program).cycles))

    @invariant()
    def replay_is_deterministic(self):
        """The recorded command log replayed on a fresh server reproduces
        the identical observable state (same heap order, same decisions)."""
        if not hasattr(self, "server") or not self.log:
            return
        replayed = _fresh_serve_loop()
        for command in self.log:
            if command[0] == "arrive":
                replayed.offer(command[1])
            elif command[0] == "advance":
                replayed.run_until(command[1])
            elif command[0] == "scale":
                replayed.force_scale(command[1])
            else:
                replayed.drain()
        assert self._state(replayed) == self._state(self.server)


TestServeLoopStateful = ServeLoopMachine.TestCase
TestServeLoopStateful.settings = settings(
    max_examples=10,
    stateful_step_count=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- continuous batching ------------------------------------------------------
_DECODE_SPECS = {
    "fp16": build_decode_spec("llm-decode-tiny"),
    "kv8": build_decode_spec("llm-decode-tiny-kv8"),
}


#: Graph of each step-cost memo table, by slot index (KV position for
#: ``full`` and ``attn``, batch width for ``shared``).
_STEP_COST_GRAPHS = {
    "full": decode_step_graph,
    "attn": decode_attention_graph,
    "shared": decode_shared_graph,
}


def _fresh_decode_loop():
    return ContinuousServer(n_clusters=2, farm=_SERVE_FARM, backend="model",
                            batch_cap=3)


def _filled_step_costs(server):
    """Every filled step-cost memo slot of ``server``:
    ``{(spec, effective precision, table, index): cycles}``."""
    return {
        (spec, effective, table, index): cycles
        for (spec, effective), costs in server._decode_costs.items()
        for table in _STEP_COST_GRAPHS
        for index, cycles in enumerate(getattr(costs, table))
        if cycles is not None
    }


class DecodeSessionMachine(RuleBasedStateMachine):
    """Mixed atomic + decode-session traffic against the loop's invariants."""

    @initialize()
    def setup(self):
        self.server = _fresh_decode_loop()
        self.log = []  # replayable command log
        self.next_id = 0
        self.last_arrival = 0

    def _state(self, server):
        """Everything a replay must reproduce exactly (completion
        statistics from a ``finalize()`` snapshot, as in
        :class:`ServeLoopMachine`)."""
        report = server.finalize()
        return (server.now, server.offered, server.admitted, server.rejected,
                server.queue_depth, server.in_flight, server.n_clusters,
                server.decode_active, server.decode_queue_depth,
                server.decode_sessions_completed, server.decode_steps,
                server.decode_batched_steps, server.decode_max_occupancy,
                report.completed, report.latency, report.models,
                _filled_step_costs(server))

    def _offer(self, request):
        self.next_id += 1
        self.last_arrival = request.arrival_cycle
        self.log.append(("arrive", request))
        self.server.offer(request)

    @rule(model=st.sampled_from(sorted(_SERVE_GRAPHS)),
          gap=st.integers(min_value=0, max_value=4000))
    def arrive_atomic(self, model, gap):
        arrival = max(self.last_arrival, self.server.now) + gap
        self._offer(Request(request_id=self.next_id, tenant="atomic",
                            model=model, graph=_SERVE_GRAPHS[model],
                            arrival_cycle=arrival))

    @rule(kind=st.sampled_from(sorted(_DECODE_SPECS)),
          prefill=st.integers(min_value=0, max_value=6),
          steps=st.integers(min_value=1, max_value=3),
          gap=st.integers(min_value=0, max_value=4000))
    def arrive_session(self, kind, prefill, steps, gap):
        arrival = max(self.last_arrival, self.server.now) + gap
        session = DecodeSessionSpec(spec=_DECODE_SPECS[kind],
                                    prefill=prefill, decode_steps=steps)
        self._offer(Request(request_id=self.next_id, tenant="decode",
                            model=session.model, graph=None,
                            arrival_cycle=arrival, decode=session))

    @rule(kind=st.sampled_from(sorted(_DECODE_SPECS)),
          count=st.integers(min_value=2, max_value=4),
          prefill=st.integers(min_value=0, max_value=6),
          steps=st.integers(min_value=2, max_value=3),
          gap=st.integers(min_value=0, max_value=4000))
    def arrive_burst(self, kind, count, prefill, steps, gap):
        """Sessions of one signature arriving together: those beyond the
        idle clusters join running groups and step batched, which fills
        attention and shared step-cost slots."""
        arrival = max(self.last_arrival, self.server.now) + gap
        session = DecodeSessionSpec(spec=_DECODE_SPECS[kind],
                                    prefill=prefill, decode_steps=steps)
        for _ in range(count):
            self._offer(Request(request_id=self.next_id, tenant="decode",
                                model=session.model, graph=None,
                                arrival_cycle=arrival, decode=session))

    @rule(delta=st.integers(min_value=1, max_value=8000))
    def advance(self, delta):
        target = self.server.now + delta
        self.log.append(("advance", target))
        self.server.run_until(target)

    @rule(delta=st.sampled_from([-1, 1, 2]))
    def scale(self, delta):
        self.log.append(("scale", delta))
        self.server.force_scale(delta)

    @rule()
    def drain(self):
        self.log.append(("drain",))
        self.server.drain()

    @invariant()
    def accounting_closes_across_kinds(self):
        if not hasattr(self, "server"):
            return  # before @initialize
        server = self.server
        groups = [group for signature in server._decode_signatures.values()
                  for group in signature.groups]
        # A decode group occupies exactly one cluster.
        atomic_in_flight = server.in_flight - len(groups)
        assert atomic_in_flight >= 0
        assert server.offered == server.admitted + server.rejected
        assert server.admitted == (server.finalize().completed
                                   + server.queue_depth + atomic_in_flight
                                   + server.decode_active)
        # Active sessions are either decode-queued or riding a group.
        assert server.decode_active == (
            server.decode_queue_depth
            + sum(group.occupancy for group in groups))
        assert server.in_flight + server._idle == server.n_clusters
        assert server.decode_sessions_completed <= server.admitted

    @invariant()
    def memoised_step_cost_is_the_serial_makespan(self):
        """Conservation: every filled step-cost slot equals the serial
        ``farm.time_program`` makespan of its graph, lowered for the
        effective precision's farm -- rounded for a full step, unrounded
        for the attention and shared halves a batched step sums."""
        if not hasattr(self, "server"):
            return
        server = self.server
        for (spec, effective, table, index), cycles in (
                _filled_step_costs(server).items()):
            farm = server.farm.with_format(effective)
            program = _STEP_COST_GRAPHS[table](spec, index).lower(
                config=farm.config)
            serial = farm.time_program(program, backend="model").cycles
            if table == "full":
                serial = int(round(serial))
            assert cycles == serial

    @invariant()
    def replay_is_deterministic(self):
        if not hasattr(self, "server") or not self.log:
            return
        replayed = _fresh_decode_loop()
        for command in self.log:
            if command[0] == "arrive":
                replayed.offer(command[1])
            elif command[0] == "advance":
                replayed.run_until(command[1])
            elif command[0] == "scale":
                replayed.force_scale(command[1])
            else:
                replayed.drain()
        assert self._state(replayed) == self._state(self.server)


TestDecodeSessionStateful = DecodeSessionMachine.TestCase
TestDecodeSessionStateful.settings = settings(
    max_examples=10,
    stateful_step_count=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
