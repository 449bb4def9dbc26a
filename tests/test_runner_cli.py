"""Tests of the experiment runner command line.

The CLI used to validate experiment names lazily, so a typo at the end of a
batch aborted mid-run after earlier experiments had already executed; these
tests pin the fixed behaviour (up-front validation, ``--list``) without
running the heavyweight experiments themselves.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import runner

REPO = Path(__file__).resolve().parent.parent


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


class TestServeScenarios:
    def test_serve_scenarios_registered(self):
        names = runner.list_experiments()
        assert "serve-mlp" in names and "serve-mix" in names

    def test_clusters_and_rps_flags_reach_the_drivers(self, monkeypatch,
                                                      capsys):
        from repro.experiments import serve

        seen = {}

        def fake_resolve(clusters, rps):
            seen["resolved"] = serve._resolve(clusters, rps)
            return seen["resolved"]

        monkeypatch.setitem(runner.EXPERIMENTS, "serve-mlp",
                            lambda: fake_resolve(None, None) and "stub")
        try:
            runner.main(["serve-mlp", "--clusters", "7", "--rps", "123.5"])
        finally:
            serve.set_serve_defaults(None, None)
        assert seen["resolved"] == (7, 123.5)

    def test_set_serve_defaults_validation(self):
        from repro.experiments import serve

        with pytest.raises(ValueError):
            serve.set_serve_defaults(clusters=0)
        with pytest.raises(ValueError):
            serve.set_serve_defaults(rps=-1.0)


class TestServeMillionScenario:
    def _reset(self):
        from repro.experiments import serve

        serve.set_serve_million_defaults(None, None, None, None)

    def test_registered_and_listed(self, capsys):
        assert "serve-million" in runner.list_experiments()
        runner.main(["--list"])
        assert "serve-million" in capsys.readouterr().out.split()

    def test_traffic_flags_reach_the_driver(self, monkeypatch, capsys):
        from repro.experiments import serve

        seen = {}

        def fake_driver():
            seen["duration"] = serve._MILLION_DURATION_OVERRIDE
            seen["arrival"] = serve._MILLION_ARRIVAL_OVERRIDE
            seen["autoscale"] = serve._MILLION_AUTOSCALE_OVERRIDE
            seen["slo"] = serve._MILLION_SLO_P99_MS_OVERRIDE
            return "stub"

        monkeypatch.setitem(runner.EXPERIMENTS, "serve-million", fake_driver)
        try:
            runner.main(["serve-million", "--duration", "0.01",
                         "--arrival", "bursty", "--autoscale",
                         "--slo-p99-ms", "2.5"])
        finally:
            self._reset()
        assert seen == {"duration": 0.01, "arrival": "bursty",
                        "autoscale": True, "slo": 2.5}

    def test_unknown_arrival_kind_is_rejected_by_argparse(self, monkeypatch,
                                                          capsys):
        executed = []
        monkeypatch.setitem(runner.EXPERIMENTS, "serve-million",
                            lambda: executed.append("ran"))
        with pytest.raises(SystemExit):
            runner.main(["serve-million", "--arrival", "lunar"])
        assert executed == []
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--duration", "-1"],
                                       ["--duration", "0"],
                                       ["--slo-p99-ms", "-2"]])
    def test_invalid_traffic_values_abort_before_running(self, monkeypatch,
                                                         flags):
        executed = []
        monkeypatch.setitem(runner.EXPERIMENTS, "serve-million",
                            lambda: executed.append("ran"))
        try:
            with pytest.raises(SystemExit, match="error"):
                runner.main(["serve-million"] + flags)
        finally:
            self._reset()
        assert executed == []

    def test_set_serve_million_defaults_validation(self):
        from repro.experiments import serve

        with pytest.raises(ValueError):
            serve.set_serve_million_defaults(duration_s=0.0)
        with pytest.raises(ValueError):
            serve.set_serve_million_defaults(arrival="lunar")
        with pytest.raises(ValueError):
            serve.set_serve_million_defaults(slo_p99_ms=0.0)

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
        from repro.experiments import dse

        seen = {}

        def fake_driver():
            seen["export_dir"] = dse._EXPORT_DIR_OVERRIDE
            return "stub"

        monkeypatch.setitem(runner.EXPERIMENTS, "dse-memory", fake_driver)
        export_dir = tmp_path / "dse-out"
        try:
            runner.main(["dse-memory", "--dse-export", str(export_dir)])
        finally:
            dse.set_dse_defaults(None)
        assert seen["export_dir"] == str(export_dir)

    def test_dse_memory_exports_csv_and_json(self, tmp_path, capsys):
        from repro.experiments import dse

        try:
            dse.set_dse_defaults(export_dir=str(tmp_path / "out"))
            report = dse.dse_memory()
        finally:
            dse.set_dse_defaults(None)
        assert len(report.exported) == 2
        for path in report.exported:
            import os

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

        from repro.obs import NULL_TELEMETRY, active, validate_chrome_trace

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
    only when no rate is given and no ``--rps`` override is set."""

    @pytest.mark.parametrize("scenario", ["serve_million", "serve_decode"])
    def test_explicit_default_valued_rate_is_honoured(self, scenario):
        from repro.experiments import serve
        from repro.farm import SimulationFarm

        farm = SimulationFarm(backend="model", max_workers=1)
        run = getattr(serve, scenario)
        offered = {rps: run(duration_s=0.05, rps=rps, farm=farm).offered
                   for rps in (199.0, serve.DEFAULT_RPS, 201.0)}
        assert offered[199.0] <= offered[serve.DEFAULT_RPS] <= offered[201.0]
        # Without a rate the scenario runs at its own, far higher default.
        scenario_rate = run(duration_s=0.005, farm=farm).offered / 0.005
        assert scenario_rate > 10 * offered[serve.DEFAULT_RPS] / 0.05
