"""Tests of the experiment runner command line.

The CLI used to validate experiment names lazily, so a typo at the end of a
batch aborted mid-run after earlier experiments had already executed; these
tests pin the fixed behaviour (up-front validation, ``--list``) without
running the heavyweight experiments themselves.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import runner

REPO = Path(__file__).resolve().parent.parent


def _record_calls(monkeypatch, name):
    """Replace a registered driver by a stub with the same signature that
    records the keyword arguments of each call."""
    calls = []

    @functools.wraps(runner.EXPERIMENTS[name])
    def record(**options):
        calls.append(options)
        return "stub"

    monkeypatch.setitem(runner.EXPERIMENTS, name, record)
    return calls


class TestValidation:
    def test_validate_names_accepts_known_names(self):
        runner.validate_names(["fig3a", "table1"])

    def test_validate_names_rejects_unknown_names(self):
        with pytest.raises(KeyError, match="fig9z"):
            runner.validate_names(["fig3a", "fig9z"])

    def test_run_experiment_rejects_unknown_name(self):
        with pytest.raises(KeyError):
            runner.run_experiment("fig9z")

    def test_typo_aborts_before_anything_runs(self, monkeypatch, capsys):
        """A bad name at the END of the list must prevent the first
        experiment from executing at all."""
        executed = []
        monkeypatch.setitem(runner.EXPERIMENTS, "fig3a",
                            lambda: executed.append("fig3a"))
        with pytest.raises(SystemExit):
            runner.main(["fig3a", "fig9z"])
        assert executed == []

    def test_backend_flag_is_rejected(self, monkeypatch, capsys):
        """The farm times every engine miss on one arithmetic backend, so
        the runner has no ``--backend`` to choose it: argparse rejects the
        flag before anything runs."""
        executed = []
        monkeypatch.setitem(runner.EXPERIMENTS, "fig3a",
                            lambda: executed.append("fig3a"))
        with pytest.raises(SystemExit) as exit_info:
            runner.main(["fig3a", "--backend", "trace"])
        assert exit_info.value.code == 2
        assert executed == []
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_valid_names_all_run(self, monkeypatch, capsys):
        executed = []
        monkeypatch.setitem(runner.EXPERIMENTS, "fig3a",
                            lambda: executed.append("a") or "ran-a")
        monkeypatch.setitem(runner.EXPERIMENTS, "fig3b",
                            lambda: executed.append("b") or "ran-b")
        runner.main(["fig3a", "fig3b"])
        assert executed == ["a", "b"]
        out = capsys.readouterr().out
        assert "ran-a" in out and "ran-b" in out


class TestListFlag:
    def test_list_prints_every_identifier(self, capsys):
        runner.main(["--list"])
        out = capsys.readouterr().out.split()
        assert out == runner.list_experiments()
        assert set(out) == set(runner.EXPERIMENTS)

    def test_list_runs_nothing(self, monkeypatch, capsys):
        executed = []
        for name in list(runner.EXPERIMENTS):
            monkeypatch.setitem(runner.EXPERIMENTS, name,
                                lambda name=name: executed.append(name))
        runner.main(["--list"])
        assert executed == []

    def test_module_entry_point_writes_nothing_to_stderr(self):
        """``python -m repro.experiments.runner`` must not find the runner
        already imported by its own package (runpy warns, and the module
        body runs twice)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
            "PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner", "--list"],
            capture_output=True, text=True, cwd=REPO, env=env)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.split() == runner.list_experiments()


class TestFarmStats:
    def test_farm_stats_flag_prints_cache_summary(self, monkeypatch, capsys):
        monkeypatch.setitem(runner.EXPERIMENTS, "fig3a", lambda: "stub")
        runner.main(["fig3a", "--farm-stats"])
        out = capsys.readouterr().out
        assert "timing cache" in out


#: The scenarios whose drivers take ``format``; the other eleven model the
#: paper's FP16 silicon.
FORMAT_SCENARIOS = {"serve-mlp", "serve-mix", "serve-million", "serve-decode"}


class TestDriverOptions:
    """Each driver option given reaches every selected driver as the
    keyword of the same name, or the runner exits 2 before anything runs."""

    def test_driver_flags_are_the_parser_dests(self):
        parser = runner._build_parser()
        argv = []
        for flag in runner.DRIVER_FLAGS.values():
            argv += {"--format": [flag, "bf16"], "--arrival": [flag, "bursty"],
                     "--autoscale": [flag]}.get(flag, [flag, "1"])
        given = vars(parser.parse_args(argv))
        absent = vars(parser.parse_args([]))
        assert set(given) - set(absent) == set(runner.DRIVER_FLAGS)

    def test_every_driver_flag_reaches_some_driver(self):
        import inspect

        for key in runner.DRIVER_FLAGS:
            assert any(key in inspect.signature(driver).parameters
                       for driver in runner.EXPERIMENTS.values()), key

    @pytest.mark.parametrize(
        "name", sorted(set(runner.EXPERIMENTS) - FORMAT_SCENARIOS))
    def test_format_is_refused_where_the_driver_does_not_take_it(self, name,
                                                                 capsys):
        with pytest.raises(SystemExit) as exit_info:
            runner.main([name, "--format", "fp8-e4m3"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--format does not apply to {name} " in captured.err

    @pytest.mark.parametrize("argv, refusal", [
        (["--format", "fp8-e4m3"], "--format does not apply to dse-frontier"),
        (["table1", "--format", "bf16"], "--format does not apply to table1"),
        (["serve-mix", "--arrival", "bursty"],
         "--arrival does not apply to serve-mix (only to serve-million)"),
        (["serve-decode", "--autoscale"], "--autoscale does not apply"),
        (["serve-mlp", "--slo-p99-ms", "2"], "--slo-p99-ms does not apply"),
        (["fig3a", "--clusters", "2"], "--clusters does not apply to fig3a"),
        (["serve-mlp", "dse-memory", "--dse-export", "out"],
         "--dse-export does not apply to serve-mlp"),
    ])
    def test_untaken_flag_aborts_before_anything_runs(self, monkeypatch,
                                                      capsys, argv, refusal):
        calls = [_record_calls(monkeypatch, name)
                 for name in list(runner.EXPERIMENTS)]
        with pytest.raises(SystemExit) as exit_info:
            runner.main(argv)
        assert exit_info.value.code == 2
        assert all(not call for call in calls)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert refusal in captured.err

    def test_format_reaches_the_serve_farm(self, capsys):
        from repro.farm import reset_default_farms

        reset_default_farms()
        try:
            runner.main(["serve-mlp", "--format", "fp8-e4m3", "--farm-stats"])
        finally:
            reset_default_farms()
        assert "simulation farm: RedMulE H=4 L=8 P=3 fp8-e4m3" in \
            capsys.readouterr().out


class TestServeScenarios:
    def test_serve_scenarios_registered(self):
        names = runner.list_experiments()
        assert "serve-mlp" in names and "serve-mix" in names

    def test_clusters_and_rps_flags_reach_the_drivers(self, monkeypatch,
                                                      capsys):
        calls = _record_calls(monkeypatch, "serve-mlp")
        runner.main(["serve-mlp", "--clusters", "7", "--rps", "123.5"])
        assert calls == [{"clusters": 7, "rps": 123.5}]

    def test_duration_reaches_serve_mlp_and_serve_mix(self, monkeypatch,
                                                      capsys):
        mlp = _record_calls(monkeypatch, "serve-mlp")
        mix = _record_calls(monkeypatch, "serve-mix")
        runner.main(["serve-mlp", "serve-mix", "--duration", "0.01"])
        assert mlp == mix == [{"duration_s": 0.01}]

    def test_no_flags_means_no_keywords(self, monkeypatch, capsys):
        calls = _record_calls(monkeypatch, "serve-mix")
        runner.main(["serve-mix"])
        assert calls == [{}]


class TestServeMillionScenario:
    def test_registered_and_listed(self, capsys):
        assert "serve-million" in runner.list_experiments()
        runner.main(["--list"])
        assert "serve-million" in capsys.readouterr().out.split()

    def test_traffic_flags_reach_the_driver(self, monkeypatch, capsys):
        calls = _record_calls(monkeypatch, "serve-million")
        runner.main(["serve-million", "--duration", "0.01",
                     "--arrival", "bursty", "--autoscale",
                     "--slo-p99-ms", "2.5"])
        assert calls == [{"duration_s": 0.01, "arrival": "bursty",
                          "autoscale": True, "slo_p99_ms": 2.5}]

    def test_unknown_arrival_kind_is_rejected_by_argparse(self, monkeypatch,
                                                          capsys):
        executed = []
        monkeypatch.setitem(runner.EXPERIMENTS, "serve-million",
                            lambda: executed.append("ran"))
        with pytest.raises(SystemExit):
            runner.main(["serve-million", "--arrival", "lunar"])
        assert executed == []
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--clusters", "0"],
                                       ["--rps", "-1"],
                                       ["--rps", "nan"],
                                       ["--duration", "-1"],
                                       ["--duration", "0"],
                                       ["--duration", "inf"],
                                       ["--slo-p99-ms", "-2"],
                                       ["--slo-p99-ms", "0"],
                                       ["--prefill", "-1"],
                                       ["--decode-steps", "0"],
                                       ["--batch-cap", "0"],
                                       ["--clusters", "two"]])
    def test_invalid_traffic_values_abort_before_running(self, monkeypatch,
                                                         capsys, flags):
        calls = _record_calls(monkeypatch, "serve-million")
        with pytest.raises(SystemExit) as exit_info:
            runner.main(["serve-million"] + flags)
        assert exit_info.value.code == 2
        assert calls == []
        assert f"argument {flags[0]}: must be" in capsys.readouterr().err

    def test_driver_honours_policies_end_to_end(self):
        """A short bursty window with autoscaling + SLO admission produces
        a coherent continuous report (quick: a few hundred requests)."""
        from repro.experiments import serve

        report = serve.serve_million(duration_s=0.01, arrival="bursty",
                                     autoscale=True, slo_p99_ms=5.0,
                                     clusters=2, seed=1)
        assert report.scenario == "serve-million"
        assert report.offered > 50
        assert report.completed + report.rejected == report.offered
        assert report.pool.initial_clusters == 2
        assert report.pool.max_clusters <= 8  # autoscaler band: 4x base
        assert set(report.tenants) <= {"interactive", "throughput-fp8",
                                       "batch"}


class TestDseScenarios:
    def test_dse_scenarios_registered(self):
        names = runner.list_experiments()
        assert "dse-frontier" in names and "dse-memory" in names

    def test_dse_export_flag_reaches_the_drivers(self, monkeypatch, tmp_path,
                                                 capsys):
        calls = _record_calls(monkeypatch, "dse-memory")
        export_dir = tmp_path / "dse-out"
        runner.main(["dse-memory", "--dse-export", str(export_dir)])
        assert calls == [{"export_dir": str(export_dir)}]

    def test_dse_memory_exports_csv_and_json(self, tmp_path, capsys):
        from repro.experiments import dse

        report = dse.dse_memory(export_dir=str(tmp_path / "out"))
        assert len(report.exported) == 2
        for path in report.exported:
            assert os.path.exists(path)
        text = report.render()
        assert "fastest point per memory latency" in text
        assert "exported" in text


class TestCacheFileFlag:
    def _stub_experiment(self):
        from repro.farm import default_farm

        def run():
            default_farm().run_gemm(8, 16, 16, backend="model")
            return "stub"

        return run

    def test_cache_saved_after_batch(self, monkeypatch, tmp_path, capsys):
        from repro.farm import reset_default_farms

        reset_default_farms()
        cache_file = tmp_path / "timing.json"
        monkeypatch.setitem(runner.EXPERIMENTS, "fig3a",
                            self._stub_experiment())
        runner.main(["fig3a", "--cache-file", str(cache_file)])
        assert cache_file.exists()
        out = capsys.readouterr().out
        assert "saved" in out and "timing-cache" in out
        reset_default_farms()

    def test_cache_loaded_before_batch(self, monkeypatch, tmp_path, capsys):
        from repro.farm import default_farm, reset_default_farms

        cache_file = tmp_path / "timing.json"
        # First invocation populates the file ...
        reset_default_farms()
        monkeypatch.setitem(runner.EXPERIMENTS, "fig3a",
                            self._stub_experiment())
        runner.main(["fig3a", "--cache-file", str(cache_file)])
        # ... the next invocation (fresh farms = fresh process) reloads it
        # and serves the shape from the cache without re-simulating.
        reset_default_farms()
        runner.main(["fig3a", "--cache-file", str(cache_file)])
        out = capsys.readouterr().out
        assert "loaded" in out
        farm = default_farm()
        assert farm.stats.model_runs == 0
        assert farm.cache.stats.hits >= 1
        reset_default_farms()

    def test_stale_cache_version_is_discarded_not_fatal(self, monkeypatch,
                                                        tmp_path, capsys):
        """A cache file from an incompatible revision (e.g. the v1 format
        of the previous release) must not abort the batch: it is ignored
        with a warning and overwritten with fresh records on save."""
        import json

        from repro.farm import reset_default_farms

        reset_default_farms()
        cache_file = tmp_path / "timing.json"
        cache_file.write_text(json.dumps({"version": 1, "entries": []}))
        monkeypatch.setitem(runner.EXPERIMENTS, "fig3a",
                            self._stub_experiment())
        runner.main(["fig3a", "--cache-file", str(cache_file)])
        out = capsys.readouterr().out
        assert "ignoring stale timing cache" in out
        assert "saved" in out
        from repro.farm.cache import CACHE_FILE_VERSION

        assert json.loads(cache_file.read_text())["version"] == \
            CACHE_FILE_VERSION
        reset_default_farms()

    def test_v5_cache_file_is_resimulated(self, monkeypatch, tmp_path,
                                          capsys):
        """A v5 file (event-array traces) is stale: the runner warns,
        simulates the shape again and overwrites the file."""
        import json

        from repro.farm import default_farm, reset_default_farms
        from repro.farm.cache import CACHE_FILE_VERSION

        reset_default_farms()
        cache_file = tmp_path / "timing.json"
        monkeypatch.setitem(runner.EXPERIMENTS, "fig3a",
                            self._stub_experiment())
        runner.main(["fig3a", "--cache-file", str(cache_file)])
        payload = json.loads(cache_file.read_text())
        payload["version"] = 5
        payload["traces"] = {"4:8:3:1:8:fp16": {"traces": [{
            "key": [16, False, 8, 16, 0, 0, "idle"], "cycles": 90,
            "column_issues": 64, "issue_cycles": [0, 1, 2]}]}}
        cache_file.write_text(json.dumps(payload))
        reset_default_farms()
        runner.main(["fig3a", "--cache-file", str(cache_file)])
        out = capsys.readouterr().out
        assert "ignoring stale timing cache" in out and "version 5" in out
        assert default_farm().stats.model_runs == 1
        assert json.loads(cache_file.read_text())["version"] == \
            CACHE_FILE_VERSION
        reset_default_farms()

    def test_v6_trace_file_is_discarded_not_fatal(self, monkeypatch,
                                                  tmp_path, capsys):
        """A trace-backed run whose cache file is a v6 file with a trace
        table warns and starts cold: nothing from the file merges, and the
        file is rewritten as v7 without ``traces``."""
        import json

        from repro.farm import default_farm, reset_default_farms
        from repro.farm.cache import CACHE_FILE_VERSION
        from repro.redmule.trace import (
            reset_shared_trace_stores,
            shared_trace_store,
        )

        reset_default_farms()
        cache_file = tmp_path / "timing.json"
        monkeypatch.setitem(runner.EXPERIMENTS, "fig3a",
                            self._stub_experiment())
        runner.main(["fig3a", "--cache-file", str(cache_file)])
        payload = json.loads(cache_file.read_text())
        config = default_farm().config
        payload["version"] = 6
        payload["traces"] = {"4:8:3:1:8:fp16": {"traces": [{
            "key": [16, False, 8, 16, 0, 0, "idle"], "cycles": 90}]}}
        cache_file.write_text(json.dumps(payload))
        reset_default_farms()
        reset_shared_trace_stores()
        try:
            runner.main(["fig3a", "--cache-file", str(cache_file)])
            out = capsys.readouterr().out
            assert "ignoring stale timing cache" in out and "version 6" in out
            farm = default_farm()
            assert farm.stats.model_runs == 1
            assert len(shared_trace_store(config)) == 0
            saved = json.loads(cache_file.read_text())
            assert saved["version"] == CACHE_FILE_VERSION == 7
            assert "traces" not in saved
        finally:
            reset_default_farms()
            reset_shared_trace_stores()

    def test_trace_backend_reloads_engine_timing(self, monkeypatch,
                                                 tmp_path, capsys):
        """A second invocation serves its engine GEMM from the saved timing
        entry; the file holds no traces."""
        import json

        from repro.farm import default_farm, reset_default_farms
        from repro.redmule.trace import reset_shared_trace_stores

        def engine_gemm():
            default_farm().run_gemm(8, 16, 16, backend="engine")
            return "stub"

        cache_file = tmp_path / "timing.json"
        monkeypatch.setitem(runner.EXPERIMENTS, "fig3a", engine_gemm)
        argv = ["fig3a", "--cache-file", str(cache_file)]
        reset_default_farms()
        reset_shared_trace_stores()
        try:
            runner.main(argv)
            assert default_farm().stats.engine_runs == 1
            reset_default_farms()
            reset_shared_trace_stores()
            runner.main(argv)
            assert "loaded 1 timing-cache entries" in capsys.readouterr().out
            assert default_farm().stats.engine_runs == 0
            assert "traces" not in json.loads(cache_file.read_text())
        finally:
            reset_default_farms()
            reset_shared_trace_stores()

    def test_missing_cache_file_is_not_an_error(self, monkeypatch, tmp_path,
                                                capsys):
        from repro.farm import reset_default_farms

        reset_default_farms()
        cache_file = tmp_path / "fresh" / "timing.json"
        monkeypatch.setitem(runner.EXPERIMENTS, "fig3a", lambda: "stub")
        runner.main(["fig3a", "--cache-file", str(cache_file)])
        assert cache_file.exists()  # directory created, cache saved
        reset_default_farms()


class TestObservabilityFlags:
    def test_trace_and_metrics_out_export_the_run(self, monkeypatch,
                                                  tmp_path, capsys):
        import json

        from repro.obs import NULL_TELEMETRY, active
        from repro.obs.validate import validate_chrome_trace

        seen = []

        def driver():
            obs = active()
            seen.append(obs.enabled)  # the runner installed a live telemetry
            obs.declare_track("serve", "cycles")
            obs.complete_span("req", 0, 50, track="serve", lane="cluster0",
                              cat="request")
            obs.count("serve.completed")
            return "obs-stub-ran"

        monkeypatch.setitem(runner.EXPERIMENTS, "fig3a", driver)
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        runner.main(["fig3a", "--trace-out", str(trace_path),
                     "--metrics-out", str(metrics_path)])
        assert seen == [True]
        out = capsys.readouterr().out
        assert "wrote Chrome trace" in out and "wrote metrics JSON" in out
        stats = validate_chrome_trace(json.loads(trace_path.read_text()))
        assert stats["phases"]["X"] == 1
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["serve.completed"] == 1
        assert "farm" not in metrics  # only embedded under --farm-stats
        # The batch telemetry never leaks past the run.
        assert active() is NULL_TELEMETRY

    def test_metrics_out_with_farm_stats_embeds_the_farm_section(
            self, monkeypatch, tmp_path, capsys):
        import json

        from repro.farm import reset_default_farms

        reset_default_farms()
        monkeypatch.setitem(runner.EXPERIMENTS, "fig3a", lambda: "stub")
        metrics_path = tmp_path / "metrics.json"
        runner.main(["fig3a", "--farm-stats",
                     "--metrics-out", str(metrics_path)])
        metrics = json.loads(metrics_path.read_text())
        assert set(metrics["farm"]) == {"stats", "cache", "cache_entries"}
        assert "batches" in metrics["farm"]["stats"]
        assert "hit_rate" in metrics["farm"]["cache"]
        reset_default_farms()

    def test_metrics_out_records_the_run(self, tmp_path, capsys):
        import json

        from repro.farm import reset_default_farms

        metrics_path = tmp_path / "metrics.json"
        reset_default_farms()
        try:
            runner.main(["serve-decode", "--clusters", "2",
                         "--metrics-out", str(metrics_path)])
        finally:
            reset_default_farms()
        run = json.loads(metrics_path.read_text())["run"]
        assert run == {"scenarios": ["serve-decode"],
                       "options": {"clusters": 2}}

    def test_telemetry_uninstalled_when_an_experiment_fails(
            self, monkeypatch, tmp_path, capsys):
        from repro.obs import NULL_TELEMETRY, active

        def broken():
            raise RuntimeError("driver exploded")

        monkeypatch.setitem(runner.EXPERIMENTS, "fig3a", broken)
        with pytest.raises(RuntimeError):
            runner.main(["fig3a", "--trace-out",
                         str(tmp_path / "trace.json")])
        assert active() is NULL_TELEMETRY

    def test_no_flags_means_no_telemetry(self, monkeypatch, capsys):
        from repro.obs import active

        seen = []
        monkeypatch.setitem(runner.EXPERIMENTS, "fig3a",
                            lambda: seen.append(active().enabled) or "stub")
        runner.main(["fig3a"])
        assert seen == [False]


class TestScenarioRates:
    """An explicit rate always wins; the scenario's own default applies
    only when no rate is given."""

    @pytest.mark.parametrize("scenario", ["serve_million", "serve_decode"])
    def test_explicit_default_valued_rate_is_honoured(self, scenario):
        from repro.experiments import serve
        from repro.farm import reset_default_farms

        run = getattr(serve, scenario)
        try:
            offered = {rps: run(duration_s=0.05, rps=rps).offered
                       for rps in (199.0, serve.DEFAULT_RPS, 201.0)}
            # Without a rate the scenario runs at its own, far higher default.
            scenario_rate = run(duration_s=0.005).offered / 0.005
        finally:
            reset_default_farms()
        assert offered[199.0] <= offered[serve.DEFAULT_RPS] <= offered[201.0]
        assert scenario_rate > 10 * offered[serve.DEFAULT_RPS] / 0.05
