"""Tests for timing-cache persistence (`TimingCache.save` / `load`)."""

import copy
import json
from dataclasses import asdict, dataclass
from typing import Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.farm import SimulationFarm, TimingCache, TimingKey, TimingRecord
from repro.farm.cache import CACHE_FILE_VERSION
from repro.redmule.trace import reset_shared_trace_stores, shared_trace_store


def _record(cycles=100, backend="engine"):
    return TimingRecord(
        cycles=cycles, stall_cycles=7, active_cycles=80, total_macs=2048,
        issued_macs=4096, n_tiles=2, peak_macs_per_cycle=32,
        ideal_cycles=64, backend=backend,
    )


def _key(m=8, n=16, k=16, backend="engine"):
    return TimingKey(config=(4, 8, 3, 1, 8, "fp16"), m=m, n=n, k=k,
                     accumulate=False, backend=backend)


@dataclass(frozen=True)
class _DataclassKey:
    """The v7 key layout as a frozen dataclass (the old ``TimingKey``)."""

    config: Tuple[int, int, int, int, int, str]
    m: int
    n: int
    k: int
    accumulate: bool
    backend: str


#: A well-formed current-version file holding one engine and one model entry.
_VALID_FILE = json.loads(json.dumps({
    "version": CACHE_FILE_VERSION,
    "entries": [
        {"key": _key()._asdict(), "record": asdict(_record())},
        {"key": _key(m=16, backend="model")._asdict(),
         "record": asdict(_record(55, "model"))},
    ],
}))


def _paths(node, prefix=()):
    """Every path (tuple of keys and indices) into a JSON document."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for name, child in children:
        yield from _paths(child, prefix + (name,))


#: A path into ``_VALID_FILE``: first a depth, then a path of that depth,
#: so the few top-level fields are drawn as often as the many leaves.
_PATHS_BY_DEPTH = {}
for _path in _paths(_VALID_FILE):
    _PATHS_BY_DEPTH.setdefault(len(_path), []).append(_path)
_PATH = st.sampled_from(sorted(_PATHS_BY_DEPTH)).flatmap(
    lambda depth: st.sampled_from(_PATHS_BY_DEPTH[depth]))

_DELETE = object()

#: Arbitrary JSON values (bounded ints: json refuses 4,300-digit ones).
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2 ** 70), 2 ** 70)
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _mutated(path, value):
    """``_VALID_FILE`` with the field at ``path`` replaced or deleted."""
    if not path:
        return None if value is _DELETE else value
    document = copy.deepcopy(_VALID_FILE)
    parent = document
    for name in path[:-1]:
        parent = parent[name]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return document


#: A v6 file's trace table (one trace of the reference configuration).
_V6_TRACES = {"4:8:3:1:8:fp16": {"traces": [dict(
    key=[64, False, 8, 16, 0, 0, "idle"], cycles=90, stall_cycles=0,
    active_cycles=64, w_loads=64, x_loads=8, y_loads=0, z_stores=8,
    idle_cycles=0, z_pushes=8, z_drains=8, zbuf_out=0, pending_z_out=0)]}}


class TestTimingCachePersistence:
    def test_save_creates_missing_parent_directories(self, tmp_path):
        """`save` has mkdir -p semantics: a cache path pointing into a
        not-yet-created artifact directory must not lose the batch."""
        cache = TimingCache()
        cache.store(_key(), _record())
        path = tmp_path / "does" / "not" / "exist" / "cache.json"
        assert cache.save(path) == 1
        loaded = TimingCache()
        assert loaded.load(path) == 1
        assert loaded.peek(_key()) == _record()

    def test_farm_save_cache_into_missing_directory(self, tmp_path):
        farm = SimulationFarm()
        farm.run_gemm(8, 8, 8, backend="model")
        path = tmp_path / "fresh-dir" / "timing.json"
        assert farm.save_cache(path) == 1
        assert path.exists()

    def test_save_load_roundtrip(self, tmp_path):
        cache = TimingCache()
        cache.store(_key(), _record())
        cache.store(_key(m=16, backend="model"), _record(55, "model"))
        path = tmp_path / "cache.json"
        assert cache.save(path) == 2

        loaded = TimingCache()
        assert loaded.load(path) == 2
        assert len(loaded) == 2
        assert loaded.peek(_key()) == _record()
        assert loaded.peek(_key(m=16, backend="model")) == _record(55, "model")

    def test_saved_file_matches_the_dataclass_key_layout(self, tmp_path):
        """A saved file is byte for byte the v7 payload the dataclass key
        wrote through ``dataclasses.asdict``, so v7 files stay valid."""
        entries = [(_key(), _record()),
                   (_key(m=16, backend="model"), _record(55, "model")),
                   (TimingKey((2, 32, 1, 2, 32, "fp8-e4m3"), 640, 1, 128,
                              True, "engine"), _record(42_248))]
        cache = TimingCache()
        for key, record in entries:
            cache.store(key, record)
        path = tmp_path / "cache.json"
        cache.save(path)
        payload = {"version": 7, "entries": [
            {"key": asdict(_DataclassKey(*key)), "record": asdict(record)}
            for key, record in entries]}
        assert CACHE_FILE_VERSION == 7
        assert path.read_bytes() == json.dumps(payload).encode()

    def test_load_merges_into_existing_entries(self, tmp_path):
        path = tmp_path / "cache.json"
        saved = TimingCache()
        saved.store(_key(), _record(111))
        saved.save(path)

        cache = TimingCache()
        cache.store(_key(m=99), _record(999))
        assert cache.load(path) == 1
        assert len(cache) == 2
        assert cache.peek(_key()).cycles == 111
        assert cache.peek(_key(m=99)).cycles == 999

    def test_cache_takes_no_size_bound(self):
        with pytest.raises(TypeError):
            TimingCache(max_entries=2)

    def test_load_cache_takes_only_a_path(self, tmp_path):
        path = tmp_path / "cache.json"
        TimingCache().save(path)
        with pytest.raises(TypeError):
            SimulationFarm().load_cache(path, merge=False)

    def test_load_overwrites_colliding_keys(self, tmp_path):
        path = tmp_path / "cache.json"
        saved = TimingCache()
        saved.store(_key(), _record(222))
        saved.save(path)
        cache = TimingCache()
        cache.store(_key(), _record(1))
        cache.load(path)
        assert cache.peek(_key()).cycles == 222

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError):
            TimingCache().load(path)

    @pytest.mark.parametrize("bad", [
        {"key": {"m": 8}},                                   # no record
        {"record": {"cycles": 1}, "key": {"config": [1]}},   # missing fields
        {"key": dict(_key()._asdict(), m=[8]), "record": asdict(_record())},
        "not-an-object",
        None,
        {"key": _key()._asdict(), "record": dict(asdict(_record()), cycles=None)},
        {"key": dict(_key()._asdict(), m="8"), "record": asdict(_record())},
        {"key": dict(_key()._asdict(), backend="fpga"),
         "record": asdict(_record())},
        {"key": _key()._asdict(), "record": dict(asdict(_record()), cycles=-1)},
        {"key": dict(_key()._asdict(), n=True), "record": asdict(_record())},
        {"key": dict(_key()._asdict(), accumulate=0),
         "record": asdict(_record())},
        {"key": dict(_key()._asdict(), config=[4, 8, 3, 1, 8]),
         "record": asdict(_record())},
        {"key": dict(_key()._asdict(), config=[4, 8, 3, 1, 8, 16]),
         "record": asdict(_record())},
        {"key": _key()._asdict(),
         "record": dict(asdict(_record()), backend="fpga")},
    ], ids=["no-record", "missing-fields", "unhashable", "string", "null",
            "null-cycles", "string-m", "unknown-backend", "negative-cycles",
            "bool-n", "int-accumulate", "five-field-config",
            "numeric-format", "unknown-record-backend"])
    def test_malformed_entry_raises_value_error_and_merges_nothing(
            self, tmp_path, bad):
        path = tmp_path / "cache.json"
        saved = TimingCache()
        saved.store(_key(m=32), _record(5))
        saved.save(path)
        payload = json.loads(path.read_text())
        payload["entries"].append(bad)
        path.write_text(json.dumps(payload))
        cache = TimingCache()
        cache.store(_key(), _record(1))
        with pytest.raises(ValueError, match="entry 1"):
            cache.load(path)
        assert len(cache) == 1 and cache.peek(_key()).cycles == 1

    @pytest.mark.parametrize("payload", [[], {"version": CACHE_FILE_VERSION}, {
        "version": CACHE_FILE_VERSION, "entries": {}}],
        ids=["list", "no-entries", "entries-dict"])
    def test_malformed_layout_raises_value_error(self, tmp_path, payload):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            TimingCache().load(path)

    def test_interrupted_save_keeps_the_previous_file(self, tmp_path,
                                                      monkeypatch):
        path = tmp_path / "cache.json"
        cache = TimingCache()
        cache.store(_key(), _record())
        cache.save(path)
        before = path.read_bytes()

        def interrupted_dump(payload, handle):
            handle.write('{"version": 4, "entr')
            raise KeyboardInterrupt

        monkeypatch.setattr(json, "dump", interrupted_dump)
        cache.store(_key(m=64), _record(3))
        with pytest.raises(KeyboardInterrupt):
            cache.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]

    def test_load_does_not_count_lookups(self, tmp_path):
        path = tmp_path / "cache.json"
        saved = TimingCache()
        saved.store(_key(), _record())
        saved.save(path)
        cache = TimingCache()
        cache.load(path)
        assert cache.stats.lookups == 0

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(document=_JSON | st.builds(_mutated, _PATH,
                                      st.just(_DELETE) | _JSON))
    def test_load_returns_a_count_or_raises_value_error(self, tmp_path,
                                                        document):
        """Arbitrary JSON, and single-field mutations of a valid file, load
        or raise ``ValueError`` -- never another error -- and a raise leaves
        the cache as it was."""
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(document))
        cache = TimingCache()
        cache.store(_key(m=99), _record(9))
        try:
            loaded = cache.load(path)
        except ValueError:
            assert len(cache) == 1 and cache.peek(_key(m=99)) == _record(9)
        else:
            assert loaded == len(document["entries"])
        assert cache.stats.lookups == 0


class TestFarmPersistence:
    def test_trace_farm_rejects_a_v6_trace_file_before_merging(
            self, tmp_path):
        """A v6 file (timing entries plus a trace table) is rejected on its
        version: neither its entries nor its traces reach the farm."""
        path = tmp_path / "cache.json"
        saved = TimingCache()
        saved.store(_key(), _record())
        saved.save(path)
        payload = json.loads(path.read_text())
        payload.update(version=6, traces=_V6_TRACES)
        path.write_text(json.dumps(payload))
        reset_shared_trace_stores()
        try:
            farm = SimulationFarm()
            with pytest.raises(ValueError, match="version 6"):
                farm.load_cache(path)
            assert len(farm.cache) == 0
            assert len(shared_trace_store(farm.config)) == 0
        finally:
            reset_shared_trace_stores()

    def test_repeat_invocation_reuses_timing_across_farms(self, tmp_path):
        """A second farm (a stand-in for a second benchmark process) serves
        everything from the persisted cache: zero engine runs."""
        path = tmp_path / "farm-cache.json"
        first = SimulationFarm()
        first.run_gemm(8, 16, 16)
        first.run_gemm(16, 16, 16)
        assert first.save_cache(path) == 2
        assert first.stats.engine_runs == 2

        second = SimulationFarm()
        assert second.load_cache(path) == 2
        result = second.run_gemm(8, 16, 16)
        assert result.cache_hit
        assert second.stats.engine_runs == 0
        assert result.cycles == first.run_gemm(8, 16, 16).cycles
