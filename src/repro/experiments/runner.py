"""Experiment registry and batch runner.

Maps the paper's table/figure identifiers to their driver functions so the
examples and the command line (``python -m repro.experiments.runner``) can
regenerate everything in one go.  Every driver times its matmul jobs through
the shared :func:`repro.farm.default_farm`, so a batch run reuses one timing
cache across figures (the Fig. 3c/3d/4a sweeps share their square shapes).

Observability: ``--trace-out PATH`` / ``--metrics-out PATH`` install a live
:class:`repro.obs.Telemetry` around the whole batch and export a Chrome
``trace_event`` JSON (open it in Perfetto or ``chrome://tracing``) and a
flat metrics JSON after the last experiment.  Both flags work for *every*
scenario -- serve spans land in simulated cycles, engine tile spans in
engine cycles, farm batches in wall time, each on its own labelled track.
"""

from __future__ import annotations

import argparse
import os
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments import dse, fig3, fig4, serve, table1
from repro.obs.report import write_out

#: Registry of experiment drivers keyed by the paper's identifier, plus the
#: serving (``serve-*``) and design-space (``dse-*``) scenarios that go
#: beyond the paper.
EXPERIMENTS: Dict[str, Callable[[], object]] = {
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


def run_experiment(name: str) -> object:
    """Run one experiment by its identifier (e.g. ``"fig4a"``)."""
    validate_names([name])
    return EXPERIMENTS[name]()


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
    parser.add_argument(
        "--format",
        choices=["fp16", "bf16", "fp8-e4m3", "fp8-e5m2"],
        default=None,
        help="element format of the reference instance the experiment "
        "drivers simulate (fp16 is the paper's baseline; the fp8 formats "
        "pack two elements per line slot and double peak throughput)",
    )
    parser.add_argument(
        "--clusters",
        type=int,
        default=None,
        metavar="N",
        help="cluster-pool size of the serve-* scenarios",
    )
    parser.add_argument(
        "--rps",
        type=float,
        default=None,
        metavar="RATE",
        help="aggregate request rate (requests/s) of the serve-* scenarios",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="simulated traffic window of the serve-million scenario "
        "(stretch it until the stream holds 10^6+ requests -- generation "
        "is lazy, so memory stays flat)",
    )
    parser.add_argument(
        "--arrival",
        choices=list(serve.ARRIVAL_KINDS),
        default=None,
        help="arrival process of the serve-million scenario (poisson: "
        "memoryless; diurnal: sinusoidal day/night rate; bursty: "
        "two-state Markov-modulated bursts)",
    )
    parser.add_argument(
        "--autoscale",
        action="store_true",
        help="let serve-million scale its cluster pool on queue depth "
        "and windowed p99 instead of serving from a fixed pool",
    )
    parser.add_argument(
        "--slo-p99-ms",
        type=float,
        default=None,
        metavar="MS",
        help="p99 latency target of the serve-million scenario: enables "
        "SLO-aware admission (shed requests projected to miss it) and "
        "gives the autoscaler its scale-up trigger",
    )
    parser.add_argument(
        "--prefill",
        type=int,
        default=None,
        metavar="TOKENS",
        help="KV-cache length serve-decode sessions start from (the "
        "already-prefilled context)",
    )
    parser.add_argument(
        "--decode-steps",
        type=int,
        default=None,
        metavar="TOKENS",
        help="tokens each serve-decode session generates (one skinny-GEMM "
        "step graph per token, attention growing with the KV position)",
    )
    parser.add_argument(
        "--batch-cap",
        type=int,
        default=None,
        metavar="N",
        help="continuous-batching cap of the serve-decode scenario: how "
        "many concurrent sessions may coalesce their weight-stationary "
        "halves into one cluster's batched steps (1 disables batching)",
    )
    parser.add_argument(
        "--dse-export",
        default=None,
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
        "as flat JSON (implies recording, like --trace-out)",
    )
    return parser


def _farm_metrics() -> Dict[str, object]:
    """The ``farm`` section of the metrics export (``--farm-stats``)."""
    from repro.farm import default_farm

    farm = default_farm()
    return {
        "stats": farm.stats.snapshot(),
        "cache": farm.cache.stats.snapshot(),
        "cache_entries": len(farm.cache),
    }


def main(argv: Optional[List[str]] = None) -> None:
    """Command-line entry point: run the selected experiments and print them.

    ``argv`` defaults to ``sys.argv[1:]``; every requested name is validated
    up front so a typo cannot abort a batch halfway through.
    """
    args = _build_parser().parse_args(argv)
    if args.list:
        for name in list_experiments():
            write_out(name)
        return

    if args.format is not None:
        from repro.farm import set_default_format

        set_default_format(args.format)
    if args.clusters is not None or args.rps is not None:
        serve.set_serve_defaults(clusters=args.clusters, rps=args.rps)
    if (args.duration is not None or args.arrival is not None
            or args.autoscale or args.slo_p99_ms is not None):
        try:
            serve.set_serve_million_defaults(
                duration_s=args.duration,
                arrival=args.arrival,
                autoscale=True if args.autoscale else None,
                slo_p99_ms=args.slo_p99_ms,
            )
        except ValueError as error:
            raise SystemExit(f"error: {error}") from error
    if (args.prefill is not None or args.decode_steps is not None
            or args.batch_cap is not None or args.duration is not None):
        try:
            serve.set_serve_decode_defaults(
                prefill=args.prefill,
                decode_steps=args.decode_steps,
                batch_cap=args.batch_cap,
                duration_s=args.duration,
            )
        except ValueError as error:
            raise SystemExit(f"error: {error}") from error
    if args.dse_export is not None:
        dse.set_dse_defaults(export_dir=args.dse_export)

    names = args.names or list_experiments()
    try:
        validate_names(names)
    except KeyError as error:
        raise SystemExit(f"error: {error.args[0]}") from error

    telemetry = None
    if args.trace_out is not None or args.metrics_out is not None:
        from repro.obs import Telemetry, install

        telemetry = install(Telemetry())
    try:
        farm = None
        if args.cache_file is not None:
            from repro.farm import default_farm

            farm = default_farm()
            if os.path.exists(args.cache_file):
                try:
                    loaded = farm.load_cache(args.cache_file)
                except ValueError as error:
                    # A cache written by an incompatible revision (version
                    # mismatch) is worth a warning, never an abort: treat
                    # it as empty and overwrite it with fresh records on
                    # save.
                    write_out(f"ignoring stale timing cache "
                              f"{args.cache_file}: {error}")
                else:
                    write_out(f"loaded {loaded} timing-cache entries "
                              f"from {args.cache_file}")

        for name in names:
            write_out("=" * 72)
            write_out(_render(name, run_experiment(name)))
            write_out()

        if args.cache_file is not None:
            # TimingCache.save creates missing parent directories itself.
            saved = farm.save_cache(args.cache_file)
            write_out(f"saved {saved} timing-cache entries "
                      f"to {args.cache_file}")

        if args.farm_stats:
            from repro.farm import default_farm

            write_out("=" * 72)
            write_out(default_farm().describe())

        if telemetry is not None:
            if args.trace_out is not None:
                events = telemetry.export_chrome_trace(args.trace_out)
                write_out(f"wrote Chrome trace ({events} events) "
                          f"to {args.trace_out}")
            if args.metrics_out is not None:
                extra = ({"farm": _farm_metrics()} if args.farm_stats
                         else None)
                telemetry.export_metrics(args.metrics_out, extra=extra)
                write_out(f"wrote metrics JSON to {args.metrics_out}")
    finally:
        if telemetry is not None:
            from repro.obs import install

            install(None)


if __name__ == "__main__":  # pragma: no cover
    main()
