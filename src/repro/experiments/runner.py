"""Experiment registry and batch runner.

Maps the paper's table/figure identifiers to their driver functions so the
examples and the command line (``python -m repro.experiments.runner``) can
regenerate everything in one go.  Every driver times its matmul jobs through
the shared :func:`repro.farm.default_farm`, so a batch run reuses one timing
cache across figures (the Fig. 3c/3d/4a sweeps share their square shapes).

The driver options (``--format``, ``--clusters``, ``--duration``, ...) are
passed to every selected driver as the keyword their ``dest`` names.  A
driver whose signature does not declare a given option makes the runner
exit with status 2 before anything runs, so a flag is either honoured or
refused, never dropped.

Observability: ``--trace-out PATH`` / ``--metrics-out PATH`` install a live
:class:`repro.obs.Telemetry` around the whole batch and export a Chrome
``trace_event`` JSON (open it in Perfetto or ``chrome://tracing``) and a
flat metrics JSON after the last experiment.  Both flags work for *every*
scenario -- serve spans land in simulated cycles, engine tile spans in
engine cycles, farm batches in wall time, each on its own labelled track.
The metrics JSON's ``run`` section records the scenarios and the options
their drivers received.
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments import dse, fig3, fig4, serve, table1
from repro.farm import SimulationFarm
from repro.obs.report import write_out
from repro.serve import ARRIVAL_KINDS

#: Registry of experiment drivers keyed by the paper's identifier, plus the
#: serving (``serve-*``) and design-space (``dse-*``) scenarios that go
#: beyond the paper.
EXPERIMENTS: Dict[str, Callable[..., object]] = {
    "table1": table1.build_table1,
    "fig3a": fig3.area_breakdown,
    "fig3b": fig3.power_breakdown,
    "fig3c": fig3.energy_per_mac_sweep,
    "fig3d": fig3.throughput_sweep,
    "fig4a": fig4.hw_vs_sw_sweep,
    "fig4b": fig4.area_sweep,
    "fig4c": fig4.autoencoder_training,
    "fig4d": fig4.autoencoder_batching,
    "serve-mlp": serve.serve_mlp,
    "serve-mix": serve.serve_mix,
    "serve-million": serve.serve_million,
    "serve-decode": serve.serve_decode,
    "dse-frontier": dse.dse_frontier,
    "dse-memory": dse.dse_memory,
}

#: The runner flags that are driver keywords: keyword (the flag's argparse
#: ``dest``) -> flag.
DRIVER_FLAGS: Dict[str, str] = {
    "format": "--format",
    "clusters": "--clusters",
    "rps": "--rps",
    "duration_s": "--duration",
    "arrival": "--arrival",
    "autoscale": "--autoscale",
    "slo_p99_ms": "--slo-p99-ms",
    "prefill": "--prefill",
    "decode_steps": "--decode-steps",
    "batch_cap": "--batch-cap",
    "export_dir": "--dse-export",
}


def list_experiments() -> List[str]:
    """Sorted experiment identifiers (the ``--list`` payload)."""
    return sorted(EXPERIMENTS)


def validate_names(names: Sequence[str]) -> None:
    """Reject unknown experiment names *before* anything runs.

    The runner used to validate lazily, one experiment at a time, so a typo
    at the end of the list aborted a batch mid-run after earlier experiments
    had already executed.
    """
    unknown = sorted(set(name for name in names if name not in EXPERIMENTS))
    if unknown:
        raise KeyError(
            f"unknown experiment(s) {', '.join(repr(n) for n in unknown)}; "
            f"available: {list_experiments()}"
        )


def run_experiment(name: str, **options: object) -> object:
    """Run one experiment by its identifier (e.g. ``"fig4a"``), passing
    ``options`` to its driver as keyword arguments."""
    validate_names([name])
    return EXPERIMENTS[name](**options)


def run_all() -> Dict[str, object]:
    """Run every experiment and return the results keyed by identifier."""
    return {name: driver() for name, driver in EXPERIMENTS.items()}


def _render(name: str, result: object) -> str:
    if name == "table1":
        return table1.render_table1(result)  # type: ignore[arg-type]
    if hasattr(result, "render"):
        return result.render()  # Breakdown
    if isinstance(result, list):
        lines = [f"{name}:"]
        lines.extend(f"  {record}" for record in result)
        return "\n".join(lines)
    return f"{name}: {result}"


def _checked(parse: Callable[[str], float], test: Callable[[float], bool],
             requirement: str) -> Callable[[str], float]:
    """An argparse ``type``: ``parse`` the text, then require ``test``."""
    def convert(text: str) -> float:
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not test(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value
    return convert


_POSITIVE_INT = _checked(int, lambda value: value >= 1,
                         "must be an integer >= 1")
_NON_NEGATIVE_INT = _checked(int, lambda value: value >= 0,
                             "must be an integer >= 0")
_POSITIVE_FLOAT = _checked(float, lambda value: 0 < value < math.inf,
                           "must be a positive finite number")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "names",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment identifiers to run (default: all of them)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the available experiment identifiers and exit",
    )
    parser.add_argument(
        "--farm-stats",
        action="store_true",
        help="print the shared simulation-farm statistics after running "
        "(with --metrics-out the snapshot is also embedded in the "
        "metrics JSON under the 'farm' key)",
    )
    options = parser.add_argument_group(
        "driver options",
        "each option given is passed to every selected driver as the keyword "
        "its flag names (--duration as duration_s, --dse-export as "
        "export_dir); a selected driver that does not take it makes the "
        "runner exit with status 2 before anything runs",
        argument_default=argparse.SUPPRESS,
    )
    options.add_argument(
        "--format",
        choices=["fp16", "bf16", "fp8-e4m3", "fp8-e5m2"],
        help="element format of the reference instance the serve-* "
        "scenarios time on (fp16 is the paper's baseline; the fp8 formats "
        "pack two elements per line slot and double peak throughput)",
    )
    options.add_argument(
        "--clusters",
        type=_POSITIVE_INT,
        metavar="N",
        help="cluster-pool size of the serve-* scenarios",
    )
    options.add_argument(
        "--rps",
        type=_POSITIVE_FLOAT,
        metavar="RATE",
        help="aggregate request rate (requests/s) of the serve-* scenarios",
    )
    options.add_argument(
        "--duration",
        dest="duration_s",
        type=_POSITIVE_FLOAT,
        metavar="SECONDS",
        help="simulated traffic window of the serve-* scenarios (stretch "
        "serve-million's until the stream holds 10^6+ requests -- "
        "generation is lazy, so memory stays flat)",
    )
    options.add_argument(
        "--arrival",
        choices=list(ARRIVAL_KINDS),
        help="arrival process of the serve-million scenario (poisson: "
        "memoryless; diurnal: sinusoidal day/night rate; bursty: "
        "two-state Markov-modulated bursts)",
    )
    options.add_argument(
        "--autoscale",
        action="store_true",
        help="let serve-million scale its cluster pool on queue depth "
        "and windowed p99 instead of serving from a fixed pool",
    )
    options.add_argument(
        "--slo-p99-ms",
        type=_POSITIVE_FLOAT,
        metavar="MS",
        help="p99 latency target of the serve-million scenario: enables "
        "SLO-aware admission (shed requests projected to miss it) and "
        "gives the autoscaler its scale-up trigger",
    )
    options.add_argument(
        "--prefill",
        type=_NON_NEGATIVE_INT,
        metavar="TOKENS",
        help="KV-cache length serve-decode sessions start from (the "
        "already-prefilled context)",
    )
    options.add_argument(
        "--decode-steps",
        type=_POSITIVE_INT,
        metavar="TOKENS",
        help="tokens each serve-decode session generates (one skinny-GEMM "
        "step graph per token, attention growing with the KV position)",
    )
    options.add_argument(
        "--batch-cap",
        type=_POSITIVE_INT,
        metavar="N",
        help="continuous-batching cap of the serve-decode scenario: how "
        "many concurrent sessions may coalesce their weight-stationary "
        "halves into one cluster's batched steps (1 disables batching)",
    )
    options.add_argument(
        "--dse-export",
        dest="export_dir",
        metavar="DIR",
        help="write the dse-* scenarios' full point sets as CSV/JSON into "
        "this directory (created if missing)",
    )
    parser.add_argument(
        "--cache-file",
        default=None,
        metavar="PATH",
        help="persist the shared farm's timing cache: loaded before the "
        "batch (when the file exists), saved after, so repeated CLI "
        "invocations stop re-simulating known shapes",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record telemetry while the experiments run and export a "
        "Chrome trace_event JSON (open in Perfetto / chrome://tracing: "
        "serve request spans in simulated cycles, engine tile spans in "
        "engine cycles, farm batches in wall time)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="export the telemetry counters/gauges/histograms of the run "
        "as flat JSON, with a 'run' section naming the scenarios and the "
        "driver options they received (implies recording, like "
        "--trace-out)",
    )
    return parser


def _takes(name: str, keyword: str) -> bool:
    """Whether the driver of experiment ``name`` declares ``keyword``."""
    return keyword in inspect.signature(EXPERIMENTS[name]).parameters


def _refuse_untaken(parser: argparse.ArgumentParser, names: Sequence[str],
                    options: Dict[str, object]) -> None:
    """Exit with status 2 if a selected driver does not take a given option."""
    for key in options:
        refusing = [name for name in names if not _takes(name, key)]
        if refusing:
            taking = [name for name in list_experiments() if _takes(name, key)]
            parser.error(f"{DRIVER_FLAGS[key]} does not apply to "
                         f"{', '.join(refusing)} (only to "
                         f"{', '.join(taking)})")


def _farm_metrics(farm: SimulationFarm) -> Dict[str, object]:
    """The ``farm`` section of the metrics export (``--farm-stats``)."""
    return {
        "stats": farm.stats.snapshot(),
        "cache": farm.cache.stats.snapshot(),
        "cache_entries": len(farm.cache),
    }


def main(argv: Optional[List[str]] = None) -> None:
    """Command-line entry point: run the selected experiments and print them.

    ``argv`` defaults to ``sys.argv[1:]``; every requested name, and every
    driver option against every selected driver, is validated up front so
    a bad request cannot abort a batch halfway through.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for name in list_experiments():
            write_out(name)
        return

    names = args.names or list_experiments()
    try:
        validate_names(names)
    except KeyError as error:
        raise SystemExit(f"error: {error.args[0]}") from error
    options = {key: getattr(args, key) for key in DRIVER_FLAGS
               if hasattr(args, key)}
    _refuse_untaken(parser, names, options)

    telemetry = None
    if args.trace_out is not None or args.metrics_out is not None:
        from repro.obs import Telemetry, install

        telemetry = install(Telemetry())
    try:
        # The shared farm the drivers time on: the reference instance in
        # the --format element format (FP16 without it).
        farm = serve.reference_farm(options.get("format", "fp16"))
        if args.cache_file is not None and os.path.exists(args.cache_file):
            try:
                loaded = farm.load_cache(args.cache_file)
            except ValueError as error:
                # A cache written by an incompatible revision (version
                # mismatch) is worth a warning, never an abort: treat it as
                # empty and overwrite it with fresh records on save.
                write_out(f"ignoring stale timing cache "
                          f"{args.cache_file}: {error}")
            else:
                write_out(f"loaded {loaded} timing-cache entries "
                          f"from {args.cache_file}")

        for name in names:
            write_out("=" * 72)
            write_out(_render(name, run_experiment(name, **options)))
            write_out()

        if args.cache_file is not None:
            # TimingCache.save creates missing parent directories itself.
            saved = farm.save_cache(args.cache_file)
            write_out(f"saved {saved} timing-cache entries "
                      f"to {args.cache_file}")

        if args.farm_stats:
            write_out("=" * 72)
            write_out(farm.describe())

        if telemetry is not None:
            if args.trace_out is not None:
                events = telemetry.export_chrome_trace(args.trace_out)
                write_out(f"wrote Chrome trace ({events} events) "
                          f"to {args.trace_out}")
            if args.metrics_out is not None:
                extra = {"run": {"scenarios": list(names),
                                 "options": options}}
                if args.farm_stats:
                    extra["farm"] = _farm_metrics(farm)
                telemetry.export_metrics(args.metrics_out, extra=extra)
                write_out(f"wrote metrics JSON to {args.metrics_out}")
    finally:
        if telemetry is not None:
            from repro.obs import install

            install(None)


if __name__ == "__main__":  # pragma: no cover
    main()
