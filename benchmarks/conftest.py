"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it runs the
corresponding experiment driver under ``pytest-benchmark`` (so the cost of the
reproduction itself is tracked), stores the headline numbers in the benchmark
record's ``extra_info`` (machine-readable, ends up in the JSON report), and
prints the rows/series the paper reports so ``pytest benchmarks/
--benchmark-only -s`` shows the reproduced result next to the paper value.

When the ``BENCH_RESULTS_DIR`` environment variable is set,
:func:`record_info` additionally writes one ``BENCH_<name>.json`` file per
benchmark with the numeric headline metrics plus the measured wall-clock
statistics.  CI uploads those files as artifacts and feeds them to
``benchmarks/compare_baselines.py``, which fails the build when a metric
regresses beyond its threshold against the baselines committed under
``benchmarks/baselines/`` (see the README's "updating the bench baselines"
procedure).
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, Iterable, Optional, Sequence

from repro.obs.report import TextTable

#: Environment variable naming the directory ``BENCH_*.json`` files go to.
BENCH_RESULTS_ENV = "BENCH_RESULTS_DIR"


def print_series(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> None:
    """Print a reproduced table/series with a title banner."""
    table = TextTable(headers)
    table.add_rows(rows)
    print()
    print(f"--- {title} ---")
    print(table.render())


def _result_name(benchmark, name: Optional[str]) -> str:
    if name is None:
        name = getattr(benchmark, "name", None) or "benchmark"
        name = re.sub(r"^test_", "", name)
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def _wall_clock_metrics(benchmark) -> Dict[str, float]:
    """Wall-clock statistics of the record, if the run produced any."""
    stats = getattr(benchmark, "stats", None)
    stats = getattr(stats, "stats", stats)
    metrics: Dict[str, float] = {}
    for source, target in (("mean", "wall_clock_s"),
                           ("min", "wall_clock_min_s")):
        value = getattr(stats, source, None)
        if isinstance(value, (int, float)):
            metrics[target] = float(value)
    return metrics


def record_info(benchmark, info: Dict[str, object],
                name: Optional[str] = None) -> None:
    """Attach headline numbers to the pytest-benchmark record.

    With ``BENCH_RESULTS_DIR`` set, the numeric metrics (plus wall-clock
    stats) are also written to ``<dir>/BENCH_<name>.json``; ``name``
    defaults to the benchmark's test name without the ``test_`` prefix.
    """
    for key, value in info.items():
        benchmark.extra_info[key] = value

    directory = os.environ.get(BENCH_RESULTS_ENV)
    if not directory:
        return
    metrics = {
        key: float(value) for key, value in info.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    metrics.update(_wall_clock_metrics(benchmark))
    payload = {"name": _result_name(benchmark, name), "metrics": metrics}
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{payload['name']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
