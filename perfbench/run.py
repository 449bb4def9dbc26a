"""The repository benchmark: one command, four named workloads.

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 25 --trace 0

Runs one workload (``serve-mix``, ``serve-decode``, ``engine-gemm`` or
``dse-sweep``) in this process with one thread, checks its simulated
outputs, and prints two JSON lines on standard output:

* a report: provenance (git rev, Python/NumPy versions, nproc, seed,
  workload parameters), the workload's named metrics with units, the
  deterministic simulated results and their ``sim_digest``, the check
  counts, and (traced runs) where the span file was written;
* last, the result: ``{"correct", "attempted", "failed", "metrics"}``.
  Untraced runs (``--trace 0``) carry the end-to-end metrics, traced runs
  (``--trace 1``) the per-layer metrics.

Set-up runs at least ``SETUP_REPEATS`` times and ``setup_s`` is the
median; the timed rounds then repeat until ``--seconds`` have passed (at
least ``MIN_ROUNDS``), and each throughput counts every timed piece of a
round at its median repetition (:func:`median_rate`).  Set-up and pieces
are timed in this thread's CPU seconds and scaled to a reference host
speed (:func:`calibration_slice`).  A traced run
alternates untraced and traced rounds, so ``bench.trace_overhead`` compares
the median of each on the same warm state.  Any failed check exits with
status 1; a directory without the ``repro`` sources exits with status 2.

See ``perfbench/README.md`` for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Set-up repeats at least this often, and until ``SETUP_MIN_S`` seconds
#: are spent, so a millisecond set-up still yields a steady median.
SETUP_REPEATS = 5
SETUP_MIN_S = 0.5
SETUP_MAX_REPEATS = 100
MIN_ROUNDS = 3

#: Host-speed calibration.  Other tenants of a shared host slow this thread
#: down by up to ~2x from one run to the next, and its CPU clock sees only
#: part of that.  Fixed slices of reference work (:func:`calibration_slice`)
#: run after every set-up repeat, and ``CALIBRATION_SLICES`` of them before
#: set-up, before the first round and after every round.  A phase's median
#: slice time over ``CALIBRATION_REFERENCE_S``, raised to
#: ``CALIBRATION_EXPONENT``, is its slowdown: the rounds' slowdown
#: multiplies the throughputs and the set-up's divides ``setup_s``,
#: so every figure reads as on a host that runs one slice in the reference
#: time (about an unloaded x86-64 core's, so the figures stay near real
#: seconds).
CALIBRATION_SLICES = 4
CALIBRATION_REFERENCE_S = 0.0045
#: The slice, a tight cache-resident loop, loses more speed to a contended
#: core than the workloads do: in log terms about 1.2x as much as the serve
#: workloads and 1.5-2x as much as dse-sweep and engine-gemm, measured over
#: twenty runs of each on a shared 2-core x86-64 host.  2/3 is the single
#: power that kept every workload's spread lowest.
CALIBRATION_EXPONENT = 2 / 3

# One thread, as the workloads promise: a BLAS pool would do work that
# this thread's CPU clock does not see.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

#: End-to-end metrics: (name, unit), printed by untraced runs.
END_TO_END = (
    ("primary_per_s", "1/s"),
    ("secondary_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics: (name, unit), printed by traced runs.  ``*_s`` names
#: of spans are self times (seconds), summed over the traced segments;
#: simulated counts are those of one traced round.
PER_LAYER = (
    ("serve.gen_s", "s"), ("serve.offer_s", "s"),
    ("serve.offer_us_p50", "us"), ("serve.offer_us_p99", "us"),
    ("serve.drain_s", "s"), ("serve.finalize_s", "s"),
    ("serve.memo_hit_rate", "ratio"), ("serve.memo_misses", "count"),
    ("serve.queue_depth_max", "count"), ("serve.utilisation", "ratio"),
    ("serve.decode_steps", "count"),
    ("serve.decode_mean_occupancy", "sessions"),
    ("serve.decode_batched_fraction", "ratio"),
    ("graph.lower_calls", "count"), ("graph.lower_s", "s"),
    ("farm.run_calls", "count"), ("farm.run_s", "s"),
    ("farm.time_program_s", "s"), ("farm.jobs", "count"),
    ("farm.cache_hit_rate", "ratio"),
    ("redmule.exact_simd.job_s", "s"), ("redmule.trace.record_s", "s"),
    ("redmule.trace.replay_s", "s"), ("redmule.trace.hits", "count"),
    ("redmule.trace.misses", "count"), ("redmule.tiles", "count"),
    ("redmule.stall_cycles", "cycles"), ("redmule.active_cycles", "cycles"),
    ("redmule.issued_macs", "count"), ("redmule.streamer.port_util", "ratio"),
    ("mem.stage_s", "s"), ("fp.golden_s", "s"), ("fp.operands_s", "s"),
    ("redmule.engine.self_s", "s"), ("redmule.datapath.self_s", "s"),
    ("redmule.vector_ops.self_s", "s"), ("redmule.streamer.self_s", "s"),
    ("redmule.trace.self_s", "s"), ("redmule.other.self_s", "s"),
    ("interco.self_s", "s"), ("mem.self_s", "s"), ("fp.self_s", "s"),
    ("unattributed.self_s", "s"),
    ("dse.sweep_s", "s"), ("dse.configs", "count"),
    ("dse.trusted_frac", "ratio"), ("perf.is_exact_s", "s"),
    ("perf.estimate_s", "s"), ("power.models_s", "s"),
    ("bench.check_s", "s"), ("bench.other_s", "s"),
    ("bench.traced_wall_s", "s"), ("bench.trace_overhead", "ratio"),
)

#: Engine modules reported on their own; the rest of ``repro.redmule``
#: lands in ``redmule.other``.
ENGINE_SUBLAYERS = ("engine", "datapath", "vector_ops", "streamer", "trace")
PROFILED_LAYERS = ("interco", "mem", "fp")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_rev(root: Path) -> str:
    """HEAD's commit, read from ``.git`` without starting a process."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(name: str, seed: int, seconds: float, trace: int,
               params) -> dict:
    import numpy

    return {
        "git_rev": git_rev(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_slice() -> float:
    """CPU seconds of one fixed slice of reference work.

    The slice mixes what the workloads spend their time on -- integer and
    float arithmetic, list indexing, heap operations and small NumPy calls
    -- and runs no ``repro`` code, so only the host moves it.  Past its
    first two lists it creates no object the cyclic collector tracks, so
    the program's heap cannot charge it collector work.
    """
    import numpy

    start = time.thread_time()
    counts = [0] * 1021
    heap: list = []
    vec = numpy.linspace(0.0, 1.0, 64)
    total = 0.0
    for i in range(8000):
        key = i * 7919 % 1021
        counts[key] += 1
        heapq.heappush(heap, key * 8192 + (i & 8191))
        if len(heap) > 64:
            total += heapq.heappop(heap) * 0.5
        if not i & 31:
            vec = numpy.sqrt(vec * 1.0001 + total % 3.0)
    return time.thread_time() - start


def profile_layers(tracer) -> dict:
    """Engine sub-layer self time from the run's profile, keyed by metric."""
    from repro.lint.manifest import load_manifest

    manifest = load_manifest(ROOT / "tools" / "layers.toml")
    src = str(ROOT / "src") + os.sep

    def module_of(filename: str):
        if not filename.startswith(src) or not filename.endswith(".py"):
            return None
        module = filename[len(src):-3].replace(os.sep, ".")
        layer = manifest.subsystem_of(module)
        if layer == "redmule":
            sub = module.split(".")[2] if module.count(".") >= 2 else ""
            return ("redmule." + sub if sub in ENGINE_SUBLAYERS
                    else "redmule.other")
        if layer in PROFILED_LAYERS:
            return layer
        return "unattributed"

    metrics = {f"redmule.{sub}.self_s": 0.0 for sub in ENGINE_SUBLAYERS}
    metrics.update({f"{layer}.self_s": 0.0
                    for layer in PROFILED_LAYERS + ("redmule.other",
                                                    "unattributed")})
    stats = tracer.profile_stats()
    if stats is not None:
        from spans import module_self_times

        for name, seconds in module_self_times(stats, module_of).items():
            key = ("unattributed" if name == "other" else name) + ".self_s"
            metrics[key] += seconds
    return metrics


def run(name: str, seed: int, seconds: float, trace: int,
        params=None, out_dir: Path = OUT_DIR):
    """Run one workload; returns ``(report, result)`` dictionaries."""
    from spans import Tracer
    from workloads import SPAN_NAMES, WORKLOADS, layer_patches

    # Slices and pieces must share a core: the cores of a shared host run
    # at different speeds, and a thread moving between them would time
    # its pieces on one and its calibration slices on another.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cls = WORKLOADS[name]
    tracer = Tracer(known=SPAN_NAMES)
    patches = layer_patches(tracer)

    setup_s = []
    setup_slices = [calibration_slice() for _ in range(CALIBRATION_SLICES)]
    while not trace and (len(setup_s) < SETUP_REPEATS
                         or (sum(setup_s) < SETUP_MIN_S
                             and len(setup_s) < SETUP_MAX_REPEATS)):
        workload = cls(seed, tracer, params)
        gc.collect()  # the previous repeat's garbage is not this one's cost
        start = time.thread_time()
        workload.setup()
        setup_s.append(time.thread_time() - start)
        setup_slices.append(calibration_slice())
    if trace:
        workload = cls(seed, tracer, params)
        start = time.thread_time()
        with tracer.segment(patches):
            workload.setup()
        setup_s.append(time.thread_time() - start)

    slices = [calibration_slice() for _ in range(CALIBRATION_SLICES)]
    rounds = []  # (traced, wall seconds, Round)
    deadline = time.perf_counter() + seconds
    min_rounds = 2 * MIN_ROUNDS if trace else MIN_ROUNDS
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        traced = bool(trace) and len(rounds) % 2 == 1
        # Identical rounds from a collected heap pay identical collector
        # work, so a repetition differs only by what the host adds.
        gc.collect()
        start = time.perf_counter()
        if traced:
            with tracer.segment(patches):
                outcome = workload.run_round()
        else:
            outcome = workload.run_round()
        rounds.append((traced, time.perf_counter() - start, outcome))
        slices.extend(calibration_slice()
                      for _ in range(CALIBRATION_SLICES))

    if trace:
        with tracer.segment(patches), tracer.span("bench.check"):
            check_attempted, check_failed = workload.check()
    else:
        check_attempted, check_failed = workload.check()

    first = rounds[0][2]
    attempted = check_attempted + sum(r.attempted for _, _, r in rounds)
    failed = check_failed + sum(r.failed for _, _, r in rounds)
    # Rounds repeat identical inputs: any other digest is a failure.
    mismatched = sum(r.digest != first.digest for _, _, r in rounds)
    failed += mismatched

    timed = [r for traced, _, r in rounds if not traced]
    calibration = statistics.median(slices)
    slowdown = (calibration / CALIBRATION_REFERENCE_S) ** CALIBRATION_EXPONENT
    unscaled = {"primary_per_s": median_rate(r.primary for r in timed),
                "secondary_per_s": median_rate(r.secondary for r in timed),
                "setup_s": statistics.median(setup_s)}
    primary = unscaled["primary_per_s"] * slowdown
    secondary = unscaled["secondary_per_s"] * slowdown
    setup_slowdown = (statistics.median(setup_slices)
                      / CALIBRATION_REFERENCE_S) ** CALIBRATION_EXPONENT
    setup = unscaled["setup_s"] / setup_slowdown
    named = {
        cls.primary_metric[0]: {"value": primary,
                                "unit": cls.primary_metric[1]},
        cls.secondary_metric[0]: {"value": secondary,
                                  "unit": cls.secondary_metric[1]},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
    }
    sim = {key: {"value": value, "unit": unit}
           for key, (value, unit) in first.sim.items()}
    named.update(sim)

    report = {
        "provenance": provenance(name, seed, seconds, trace, workload.p),
        "named_metrics": named,
        "sim_digest": first.digest,
        "checks": {"attempted": attempted, "failed": failed,
                   "digest_mismatches": mismatched,
                   "conservation_or_retime": [check_attempted,
                                              check_failed]},
        "rounds": {"count": len(rounds),
                   "traced": sum(traced for traced, _, _ in rounds),
                   "setup_repeats": len(setup_s)},
        "host_speed": {"calibration_slice_s": calibration,
                       "reference_slice_s": CALIBRATION_REFERENCE_S,
                       "slowdown": slowdown, "slices": len(slices),
                       "setup_slowdown": setup_slowdown,
                       "unscaled": unscaled},
    }

    if trace:
        metrics = trace_metrics(tracer, workload, rounds)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{name}-seed{seed}-spans.json"
        report["spans"] = {
            "path": os.path.relpath(path, ROOT),
            "count": tracer.write_chrome(path, report["provenance"]),
        }
        units = dict(PER_LAYER)
    else:
        metrics = {
            "primary_per_s": primary,
            "secondary_per_s": secondary,
            "setup_s": named["setup_s"]["value"],
            "peak_rss_mb": named["peak_rss_mb"]["value"],
        }
        units = dict(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }
    return report, result


def median_rate(rounds) -> float:
    """Work units per second over the median repetition of every piece.

    Rounds repeat identical work piece by piece, so each piece's median
    over the rounds is its typical cost, robust to the bursts in which
    other tenants of a shared host slow single repetitions down.
    """
    units: dict = {}
    seconds: dict = {}
    for pieces in rounds:
        for key, (amount, spent) in pieces.items():
            units[key] = amount
            seconds.setdefault(key, []).append(spent)
    return (sum(units.values())
            / sum(statistics.median(spent) for spent in seconds.values()))


def trace_metrics(tracer, workload, rounds) -> dict:
    """Every per-layer metric of a traced run (zero where a layer idles)."""
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    for span, seconds in tracer.self_s.items():
        metrics[span + "_s"] = seconds
    counts = tracer.counts
    for key in ("graph.lower_calls", "farm.run_calls", "farm.jobs"):
        metrics[key] = counts.get(key, 0)
    lookups = counts.get("farm.cache_hits", 0) + counts.get(
        "farm.cache_misses", 0)
    metrics["farm.cache_hit_rate"] = (counts.get("farm.cache_hits", 0)
                                      / lookups if lookups else 0.0)
    traced = [r for is_traced, _, r in rounds if is_traced]
    metrics.update(traced[0].layer)
    offers = getattr(workload, "offer_times", None)
    if offers:
        import numpy

        p50, p99 = numpy.percentile(numpy.frombuffer(offers), [50, 99])
        metrics["serve.offer_us_p50"] = float(p50) * 1e6
        metrics["serve.offer_us_p99"] = float(p99) * 1e6
    metrics.update(profile_layers(tracer))
    metrics["bench.traced_wall_s"] = tracer.wall_s
    metrics["bench.other_s"] = tracer.wall_s - sum(tracer.self_s.values())
    if metrics["bench.other_s"] < -1e-9:
        raise RuntimeError("span self times exceed the traced wall time")
    walls = [wall for is_traced, wall, _ in rounds if is_traced]
    plain = [wall for is_traced, wall, _ in rounds if not is_traced]
    metrics["bench.trace_overhead"] = (statistics.median(walls)
                                       / statistics.median(plain) - 1.0)
    unknown = set(metrics) - {name for name, _ in PER_LAYER}
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              "a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("perfbench: --seconds must be positive and --seed "
              "non-negative", file=sys.stderr)
        return 2
    report, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
