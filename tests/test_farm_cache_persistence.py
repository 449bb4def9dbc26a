"""Tests for timing-cache persistence (`TimingCache.save` / `load`)."""

import json
from dataclasses import asdict

import pytest

from repro.farm import SimulationFarm, TimingCache, TimingKey, TimingRecord
from repro.farm.cache import CACHE_FILE_VERSION
from repro.redmule.trace import (
    ScheduleTrace,
    reset_shared_trace_stores,
    shared_trace_store,
    tile_key,
)


def _record(cycles=100, backend="engine"):
    return TimingRecord(
        cycles=cycles, stall_cycles=7, active_cycles=80, total_macs=2048,
        issued_macs=4096, n_tiles=2, peak_macs_per_cycle=32,
        ideal_cycles=64, backend=backend,
    )


def _key(m=8, n=16, k=16, backend="engine"):
    return TimingKey(config=(4, 8, 3, 1, 8, "fp16"), m=m, n=n, k=k,
                     accumulate=False, backend=backend)


#: Trace-table tag of the reference configuration and one well-formed trace.
_TAG = "4:8:3:1:8:fp16"
_TRACE = ScheduleTrace(tile_key(64, False, 8, 16, 0, 0),
                       *range(12)).to_payload()


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
        farm = SimulationFarm(max_workers=1)
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

    def test_load_merge_and_replace(self, tmp_path):
        path = tmp_path / "cache.json"
        saved = TimingCache()
        saved.store(_key(), _record(111))
        saved.save(path)

        cache = TimingCache()
        cache.store(_key(m=99), _record(999))
        cache.load(path)                       # merge (default)
        assert len(cache) == 2
        cache.load(path, merge=False)          # replace
        assert len(cache) == 1
        assert cache.peek(_key()).cycles == 111

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
        {"key": dict(asdict(_key()), m=[8]), "record": asdict(_record())},
        "not-an-object",
        None,
        {"key": asdict(_key()), "record": dict(asdict(_record()), cycles=None)},
        {"key": dict(asdict(_key()), m="8"), "record": asdict(_record())},
        {"key": dict(asdict(_key()), backend="fpga"),
         "record": asdict(_record())},
    ], ids=["no-record", "missing-fields", "unhashable", "string", "null",
            "null-cycles", "string-m", "unknown-backend"])
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
            cache.load(path, merge=False)
        assert len(cache) == 1 and cache.peek(_key()).cycles == 1

    @pytest.mark.parametrize("payload", [[], {"version": CACHE_FILE_VERSION}, {
        "version": CACHE_FILE_VERSION, "entries": [], "traces": []}],
        ids=["list", "no-entries", "traces-list"])
    def test_malformed_layout_raises_value_error(self, tmp_path, payload):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            TimingCache().load(path)

    @pytest.mark.parametrize("bad", [
        {"traces": [dict(_TRACE, cycles=None)]},
        {"traces": [{k: v for k, v in _TRACE.items() if k != "cycles"}]},
        {"traces": [dict(_TRACE, key=[8, "no", 8, 16, 0, 0, "idle"])]},
        {"traces": [dict(_TRACE, z_drains=-2)]},
        {"traces": ["not-a-trace"]},
        {"traces": {}},
        [],
    ], ids=["null-cycles", "no-cycles", "string-accumulate", "negative",
            "string", "traces-dict", "table-list"])
    def test_malformed_trace_raises_value_error_and_merges_nothing(
            self, tmp_path, bad):
        """A malformed trace is rejected at load, before the file's timing
        entries or any of its traces are merged."""
        path = tmp_path / "cache.json"
        saved = TimingCache()
        saved.store(_key(m=32), _record(5))
        saved.traces[_TAG] = {"traces": [_TRACE]}
        saved.traces["2:4:1:1:8:bf16"] = bad
        saved.save(path)
        cache = TimingCache()
        cache.store(_key(), _record(1))
        with pytest.raises(ValueError, match="2:4:1:1:8:bf16"):
            cache.load(path)
        assert len(cache) == 1 and cache.peek(_key()).cycles == 1
        assert cache.traces == {}

    def test_malformed_trace_names_its_index(self, tmp_path):
        path = tmp_path / "cache.json"
        saved = TimingCache()
        saved.traces[_TAG] = {"traces": [_TRACE, dict(_TRACE, y_loads="3")]}
        saved.save(path)
        with pytest.raises(ValueError, match=(
                r"config '4:8:3:1:8:fp16': malformed trace 1: .*y_loads")):
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


class TestFarmPersistence:
    def test_trace_farm_rejects_a_malformed_trace_before_merging(
            self, tmp_path):
        path = tmp_path / "cache.json"
        saved = TimingCache()
        saved.store(_key(), _record())
        saved.traces[_TAG] = {"traces": [
            _TRACE, {k: v for k, v in _TRACE.items() if k != "cycles"}]}
        saved.save(path)
        reset_shared_trace_stores()
        try:
            farm = SimulationFarm(arithmetic="trace", max_workers=1)
            with pytest.raises(ValueError, match="malformed trace 1"):
                farm.load_cache(path)
            assert len(farm.cache) == 0
            assert len(shared_trace_store(farm.config)) == 0
        finally:
            reset_shared_trace_stores()

    def test_repeat_invocation_reuses_timing_across_farms(self, tmp_path):
        """A second farm (a stand-in for a second benchmark process) serves
        everything from the persisted cache: zero engine runs."""
        path = tmp_path / "farm-cache.json"
        first = SimulationFarm(max_workers=1)
        first.run_gemm(8, 16, 16)
        first.run_gemm(16, 16, 16)
        assert first.save_cache(path) == 2
        assert first.stats.engine_runs == 2

        second = SimulationFarm(max_workers=1)
        assert second.load_cache(path) == 2
        result = second.run_gemm(8, 16, 16)
        assert result.cache_hit
        assert second.stats.engine_runs == 0
        assert result.cycles == first.run_gemm(8, 16, 16).cycles
