"""Performance metrics, state-of-the-art comparison data and report rendering."""

from repro.perf.metrics import (
    WorkloadTiming,
    fraction_of_ideal,
    gflops,
    gmacs,
    speedup,
    time_workload_hw,
    time_workload_sw,
)
from repro.perf.comparison import SOA_ENTRIES, SoaEntry, our_entries
from repro.obs.report import TextTable

__all__ = [
    "SOA_ENTRIES",
    "SoaEntry",
    "TextTable",
    "WorkloadTiming",
    "fraction_of_ideal",
    "gflops",
    "gmacs",
    "our_entries",
    "speedup",
    "time_workload_hw",
    "time_workload_sw",
]
