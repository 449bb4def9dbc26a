"""Table I: state-of-the-art comparison.

The experiment computes the "Our work" rows (22 nm at both operating points
and the 65 nm port) from the repository's area / power / performance models
and places them next to the published rows of the other designs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.farm import SimulationFarm
from repro.perf.comparison import PAPER_OUR_WORK, SOA_ENTRIES, our_entries
from repro.obs.report import TextTable
from repro.redmule.config import RedMulEConfig

#: Column headers of Table I.
TABLE1_HEADERS = [
    "Category", "Design", "Tech [nm]", "Area [mm2]", "Freq [MHz]", "Volt [V]",
    "Power [mW]", "Perf [GOPS]", "Energy eff. [GOPS/W]", "MAC units", "Precision",
]


def build_table1(config: Optional[RedMulEConfig] = None,
                 farm: Optional[SimulationFarm] = None) -> Dict[str, object]:
    """Build Table I: published SoA rows plus our computed rows.

    Returns a dictionary with the published reference rows, the computed
    "our work" rows, and the paper's reported values for the same rows so the
    benchmark output (and EXPERIMENTS.md) can show measured vs. paper side by
    side.  The performance entries are timed through the simulation farm.
    """
    ours = our_entries(config, farm=farm)
    return {
        "headers": TABLE1_HEADERS,
        "soa_rows": SOA_ENTRIES,
        "our_rows": ours,
        "paper_reference": PAPER_OUR_WORK,
    }


def render_table1(table: Optional[Dict[str, object]] = None) -> str:
    """Render the full comparison table as text."""
    table = table or build_table1()
    text = TextTable(table["headers"])
    for entry in list(table["soa_rows"]) + list(table["our_rows"]):
        text.add_row(entry.as_row())
    return text.render()


def our_rows_as_dicts(config: Optional[RedMulEConfig] = None,
                      farm: Optional[SimulationFarm] = None) -> List[Dict[str, float]]:
    """The computed "Our work" rows as flat dictionaries (benchmark payload)."""
    rows = []
    for entry in our_entries(config, farm=farm):
        rows.append(
            {
                "design": entry.design,
                "technology_nm": entry.technology_nm,
                "area_mm2": entry.area_mm2,
                "frequency_mhz": entry.frequency_mhz,
                "voltage_v": entry.voltage_v,
                "power_mw": entry.power_mw,
                "performance_gops": entry.performance_gops,
                "efficiency_gops_w": entry.efficiency_gops_w,
            }
        )
    return rows
