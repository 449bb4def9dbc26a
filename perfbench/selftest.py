"""Smoke-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload on shrunken inputs, untraced and traced, and checks:

* every metric ``BENCHMARK.json`` names is printed, with its unit, and
  ``run.py``'s metric tables match ``BENCHMARK.json`` exactly;
* every per-layer metric has a prediction in ``manifest.json``;
* the traced run's parts plus ``bench.other_s`` sum to its wall time;
* traced and untraced runs print the same ``sim_digest``;
* an injected TCDM image mismatch on ``engine-gemm`` counts as a failure;
* a directory holding only ``BENCHMARK.json`` and ``perfbench/`` makes
  ``run.py`` exit non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (needs src/ on the path first)

SMOKE = {
    "serve-mix": {"rps": 100_000.0, "target_utilisation": 0.75,
                  "requests_per_round": 2000, "chunk": 512},
    "serve-decode": {"prefill": 8, "decode_steps": 16, "batch_cap": 8,
                     "clusters": 4, "rps": 60_000.0,
                     "sessions_per_round": 300, "chunk": 128},
    "engine-gemm": {"jobs": [["fp16", 16, 32, 16, False],
                             ["fp8-e4m3", 8, 32, 32, True]],
                    "replays": 2},
    "dse-sweep": {"axes": {"height": [4, 8], "length": [4, 8],
                           "memory_latency": [0, 2],
                           "precision": ["fp16", "fp8-e4m3"]},
                  "graphs": ["mlp-tiny"], "sample": 3},
}


def _check(ok: bool, what: str, failures: list) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return spec, end_to_end, per_layer


def main() -> int:
    failures: list = []
    spec, end_to_end, per_layer = _declared()
    _check(end_to_end == dict(run.END_TO_END),
           "run.py end-to-end table matches BENCHMARK.json", failures)
    _check(per_layer == dict(run.PER_LAYER),
           "run.py per-layer table matches BENCHMARK.json", failures)
    manifest = json.loads((HERE / "manifest.json").read_text())
    predicted = {name for entry in manifest["predictions"]
                 for name in entry["layer_metrics"]}
    _check(predicted == set(per_layer),
           "manifest.json predicts every per-layer metric", failures)
    _check(sorted(manifest["workloads"]) == sorted(
        w["name"] for w in spec["workloads"]),
        "manifest.json describes every workload", failures)

    out_dir = HERE / "out" / "selftest"
    for name, params in SMOKE.items():
        digests = []
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            report, result = run.run(name, seed=3, seconds=0.01, trace=trace,
                                     params=params, out_dir=out_dir)
            digests.append(report["sim_digest"])
            metrics = result["metrics"]
            _check(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{name} trace={trace}: correct, nothing failed", failures)
            _check(set(metrics) == set(declared) and all(
                metrics[key]["unit"] == unit
                and math.isfinite(metrics[key]["value"])
                for key, unit in declared.items()),
                f"{name} trace={trace}: every declared metric with its unit",
                failures)
            if trace:
                parts = sum(value["value"] for key, value in metrics.items()
                            if key.endswith("_s") and key != "setup_s"
                            and ".self_s" not in key
                            and key != "bench.traced_wall_s")
                wall = metrics["bench.traced_wall_s"]["value"]
                _check(abs(parts - wall) <= 1e-9 * max(1.0, wall),
                       f"{name}: traced parts + bench.other_s == wall "
                       f"({parts:.6f} vs {wall:.6f} s)", failures)
        _check(digests[0] == digests[1],
               f"{name}: traced and untraced sim_digest agree", failures)

    # An injected image mismatch must count as a failure.
    from repro.mem.tcdm import Tcdm

    original = Tcdm.dump_image

    def corrupted(self, addr, nbytes):
        image = bytearray(original(self, addr, nbytes))
        image[0] ^= 1
        return bytes(image)

    Tcdm.dump_image = corrupted
    try:
        _, result = run.run("engine-gemm", seed=3, seconds=0.01, trace=0,
                            params=SMOKE["engine-gemm"], out_dir=out_dir)
    finally:
        Tcdm.dump_image = original
    _check(not result["correct"] and result["failed"] > 0,
           f"injected image mismatch counted ({result['failed']} failed of "
           f"{result['attempted']})", failures)

    # Without the repro sources the command must refuse to run.
    bare = out_dir / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    _check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"bare directory exits {proc.returncode} without a result",
           failures)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
