"""Tests for `repro.lint`: rules on fixtures, manifest round-trip, CLI.

Three layers of coverage:

* **fixtures** -- for each of the five domain rules, a violating file, the
  same violation suppressed-with-reason, and the corrected file (under
  ``tests/lint_fixtures/`` with its own three-layer manifest), proving each
  rule fires where it should and stays silent where it should not;
* **manifest round-trip** -- ``tools/layers.toml`` agrees with the
  subsystem table of ``docs/architecture.md`` in both directions, and the
  3.10 TOML-subset parser agrees with :mod:`tomllib` where available;
* **CLI contract** -- exit codes 0/1/2, JSON report shape, and the
  ``--baseline`` record/compare flow, via real subprocesses.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    Finding,
    ManifestError,
    apply_baseline,
    load_manifest,
    module_name_for,
    parse_toml_subset,
    run_lint,
    scan_suppressions,
)
from repro.lint.reporters import baseline_from

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "lint_fixtures"
FIX_MANIFEST = FIXTURES / "layers.toml"
REAL_MANIFEST = REPO / "tools" / "layers.toml"


@pytest.fixture(scope="module")
def fixture_report():
    manifest = load_manifest(FIX_MANIFEST)
    return run_lint([FIXTURES / "fix"], manifest)


def _by_file(report, stem):
    active = [f for f in report.active if Path(f.path).stem == stem]
    suppressed = [f for f in report.suppressed
                  if Path(f.path).stem == stem]
    return active, suppressed


# ----------------------------------------------------------------------
# Per-rule fixtures: positive + suppressed + clean
# ----------------------------------------------------------------------

@pytest.mark.parametrize("rule, stem, min_findings", [
    ("DET001", "det_bad", 7),
    ("ARCH001", "arch_bad", 2),
    ("CLK001", "clk_bad", 1),
    ("FLT001", "flt_bad", 3),
    ("KEY001", "key_bad", 2),
])
def test_rule_fires_on_violating_fixture(fixture_report, rule, stem,
                                         min_findings):
    active, _ = _by_file(fixture_report, stem)
    assert len(active) >= min_findings
    assert {f.rule for f in active} == {rule}


@pytest.mark.parametrize("rule, stem", [
    ("DET001", "det_suppressed"),
    ("ARCH001", "arch_suppressed"),
    ("CLK001", "clk_suppressed"),
    ("FLT001", "flt_suppressed"),
    ("KEY001", "key_suppressed"),
])
def test_suppressed_fixture_is_silent_but_recorded(fixture_report, rule,
                                                   stem):
    active, suppressed = _by_file(fixture_report, stem)
    assert active == []          # suppression shields the finding...
    assert suppressed, f"no suppressed {rule} recorded for {stem}"
    assert {f.rule for f in suppressed} == {rule}
    assert all(f.reason for f in suppressed)   # ...and carries its reason


@pytest.mark.parametrize("stem", [
    "det_clean", "arch_clean", "clk_clean", "flt_clean", "key_clean",
])
def test_clean_fixture_is_silent(fixture_report, stem):
    active, suppressed = _by_file(fixture_report, stem)
    assert active == []
    assert suppressed == []


def test_det001_facets_all_covered(fixture_report):
    """det_bad triggers every facet: clocks, RNGs, unordered iteration."""
    active, _ = _by_file(fixture_report, "det_bad")
    blob = " \n".join(f.message for f in active)
    for needle in ("time.time", "datetime", "default_rng", "process-global",
                   "ordering-sensitive"):
        assert needle in blob


def test_key001_reports_missing_and_stale(fixture_report):
    active, _ = _by_file(fixture_report, "key_bad")
    messages = " \n".join(f.message for f in active)
    assert "misses compared field BadCfg.depth" in messages
    assert "legacy_mode" in messages and "does not define" in messages


# ----------------------------------------------------------------------
# Suppression hygiene (LNT001-003)
# ----------------------------------------------------------------------

SNIPPET_MANIFEST = """\
[package]
name = "fix"

[layers]
sim = []

[rules.DET001]
paths = ["fix"]
"""


def _lint_snippet(tmp_path, body):
    pkg = tmp_path / "fix" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(body, encoding="utf-8")
    manifest_path = tmp_path / "layers.toml"
    manifest_path.write_text(SNIPPET_MANIFEST, encoding="utf-8")
    return run_lint([tmp_path / "fix"], load_manifest(manifest_path))


def test_reasonless_suppression_does_not_shield(tmp_path):
    report = _lint_snippet(
        tmp_path,
        "import time\n\n"
        "def f():\n"
        "    return time.time()  # lint: ignore[DET001]\n")
    rules = sorted(f.rule for f in report.active)
    assert "DET001" in rules     # the finding stays active...
    assert "LNT001" in rules     # ...and the bare suppression is reported


def test_stale_suppression_reported(tmp_path):
    report = _lint_snippet(
        tmp_path,
        "# lint: ignore[DET001] nothing violates here\n"
        "X = 1\n")
    assert [f.rule for f in report.active] == ["LNT002"]


def test_unknown_rule_id_reported(tmp_path):
    report = _lint_snippet(
        tmp_path,
        "X = 1  # lint: ignore[NOPE001] misspelled\n")
    assert [f.rule for f in report.active] == ["LNT003"]


def test_docstring_mention_is_not_a_suppression():
    lines = ['"""Docs may show # lint: ignore[DET001] examples."""',
             "X = 1  # lint: ignore[DET001] real one"]
    index = scan_suppressions(lines)
    assert list(index.by_line) == [2]


def test_syntax_error_reported_as_lnt000(tmp_path):
    report = _lint_snippet(tmp_path, "def broken(:\n")
    assert [f.rule for f in report.active] == ["LNT000"]


# ----------------------------------------------------------------------
# Manifest: loading, validation, round-trip against the docs
# ----------------------------------------------------------------------

def test_real_manifest_loads_and_matches_tree():
    manifest = load_manifest(REAL_MANIFEST)
    assert manifest.package == "repro"
    declared = set(manifest.layers)
    on_disk = {p.name for p in (REPO / "src" / "repro").iterdir()
               if p.is_dir() and (p / "__init__.py").exists()}
    assert declared == on_disk, (
        "tools/layers.toml and src/repro/ disagree on the subsystem list")


def test_manifest_round_trips_architecture_doc():
    """Every subsystem row of docs/architecture.md exists in the manifest
    and only claims dependencies the manifest also declares."""
    manifest = load_manifest(REAL_MANIFEST)
    doc = (REPO / "docs" / "architecture.md").read_text(encoding="utf-8")
    rows = re.findall(
        r"^\|\s*`repro\.(\w+)`\s*\|.*?\|(.*?)\|\s*$", doc, re.MULTILINE)
    assert len(rows) >= 9, "subsystem table not found in architecture.md"
    for name, deps_cell in rows:
        assert name in manifest.layers, (
            f"doc table row `repro.{name}` missing from tools/layers.toml")
        doc_deps = {tok for tok in re.findall(r"`(\w+)`", deps_cell)
                    if tok in manifest.layers}
        declared = set(manifest.layers[name])
        assert doc_deps <= declared or "*" in declared, (
            f"doc claims repro.{name} depends on "
            f"{sorted(doc_deps - declared)} but the manifest does not")


def test_subset_parser_agrees_with_tomllib():
    tomllib = pytest.importorskip("tomllib")
    for path in (REAL_MANIFEST, FIX_MANIFEST):
        text = path.read_text(encoding="utf-8")
        assert parse_toml_subset(text) == tomllib.loads(text)


def test_manifest_rejects_forward_layer_reference(tmp_path):
    bad = tmp_path / "layers.toml"
    bad.write_text(
        '[package]\nname = "x"\n[layers]\nlow = ["high"]\nhigh = []\n',
        encoding="utf-8")
    with pytest.raises(ManifestError, match="bottom-up"):
        load_manifest(bad)


def test_manifest_queries():
    manifest = load_manifest(REAL_MANIFEST)
    assert manifest.subsystem_of("repro.farm.cache") == "farm"
    assert manifest.subsystem_of("repro") == "root"
    assert manifest.subsystem_of("numpy.random") is None
    assert manifest.allowed("serve", "farm")
    assert not manifest.allowed("fp", "redmule")
    assert not manifest.allowed("obs", "perf")
    assert not manifest.allowed("root", "experiments")
    assert manifest.allowed("experiments", "serve")
    assert manifest.clock_of("repro.serve.loop") == "sim-cycles"
    assert manifest.clock_of("repro.redmule.engine") == "engine-cycles"
    assert manifest.clock_of("repro.farm.farm") == "wall"
    assert manifest.clock_of("repro.fp.simd_formats") is None


def test_module_name_resolution():
    assert module_name_for(Path("src/repro/farm/cache.py"), "repro") == (
        "repro.farm.cache", False)
    assert module_name_for(Path("src/repro/__init__.py"), "repro") == (
        "repro", True)
    assert module_name_for(Path("elsewhere/util.py"), "repro") == (
        None, False)


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------

def test_baseline_masks_old_but_not_new_findings(fixture_report):
    allowed = baseline_from(fixture_report)["findings"]
    assert apply_baseline(fixture_report, dict(allowed)) == []
    extra = Finding("DET001", "fix/sim/other.py", 1, 0, "brand new")
    fixture_report.findings.append(extra)
    try:
        new = apply_baseline(fixture_report, dict(allowed))
        assert new == [extra]
    finally:
        fixture_report.findings.remove(extra)


# ----------------------------------------------------------------------
# The repository itself stays clean (the CI wall, pinned here too)
# ----------------------------------------------------------------------

def test_src_tree_is_clean_under_real_manifest():
    manifest = load_manifest(REAL_MANIFEST)
    report = run_lint([REPO / "src"], manifest)
    assert report.active == [], (
        "unsuppressed lint findings in src/:\n" + "\n".join(
            f"{f.path}:{f.line}: {f.rule} {f.message}"
            for f in report.active))
    assert all(f.reason for f in report.suppressed)


# ----------------------------------------------------------------------
# CLI contract
# ----------------------------------------------------------------------

def _run_cli(*args, cwd=REPO):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True, text=True, cwd=cwd, env=env)


def test_cli_exit_zero_on_clean_tree():
    proc = _run_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 findings" in proc.stdout


def test_cli_exit_one_on_findings():
    proc = _run_cli(str(FIXTURES / "fix"), "--manifest", str(FIX_MANIFEST))
    assert proc.returncode == 1
    assert "DET001" in proc.stdout


def test_cli_exit_two_on_usage_errors(tmp_path):
    assert _run_cli("no/such/path").returncode == 2
    assert _run_cli().returncode == 2
    bad_manifest = tmp_path / "broken.toml"
    bad_manifest.write_text("[layers\n", encoding="utf-8")
    assert _run_cli("src", "--manifest", str(bad_manifest)).returncode == 2


def test_cli_json_report_and_artifact(tmp_path):
    out = tmp_path / "lint-report.json"
    proc = _run_cli(str(FIXTURES / "fix"), "--manifest", str(FIX_MANIFEST),
                    "--format", "json", "--output", str(out))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    artifact = json.loads(out.read_text(encoding="utf-8"))
    assert payload == artifact
    assert payload["version"] == 1
    rules_seen = {f["rule"] for f in payload["findings"]}
    assert {"DET001", "ARCH001", "CLK001", "KEY001", "FLT001"} <= rules_seen
    assert all(f["reason"] for f in payload["suppressed"])


def test_cli_baseline_flow(tmp_path):
    base = tmp_path / "baseline.json"
    rec = _run_cli(str(FIXTURES / "fix"), "--manifest", str(FIX_MANIFEST),
                   "--write-baseline", str(base))
    assert rec.returncode == 0
    assert "recorded" in rec.stdout
    cmp_ok = _run_cli(str(FIXTURES / "fix"), "--manifest",
                      str(FIX_MANIFEST), "--baseline", str(base))
    assert cmp_ok.returncode == 0
    assert "no new findings" in cmp_ok.stdout
    # A fresh violation not in the baseline must fail the run.
    extra_pkg = tmp_path / "fix" / "sim"
    extra_pkg.mkdir(parents=True)
    (extra_pkg / "fresh.py").write_text(
        "import time\nT = time.time()\n", encoding="utf-8")
    cmp_new = _run_cli(str(FIXTURES / "fix"), str(tmp_path / "fix"),
                       "--manifest", str(FIX_MANIFEST),
                       "--baseline", str(base))
    assert cmp_new.returncode == 1
    assert "new finding" in cmp_new.stdout


def test_cli_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for rule in ("DET001", "ARCH001", "CLK001", "KEY001", "FLT001"):
        assert rule in proc.stdout


def test_reprolint_wrapper_runs_without_pythonpath():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "reprolint.py"), "src"],
        capture_output=True, text=True, cwd=REPO, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
