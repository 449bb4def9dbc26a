"""Tests for the Table I comparison data and the computed 'Our work' rows."""

import pytest

from repro.perf.comparison import PAPER_OUR_WORK, SOA_ENTRIES, our_entries
from repro.obs.report import TextTable
from repro.redmule.config import RedMulEConfig


class TestPublishedRows:
    def test_all_categories_present(self):
        categories = {entry.category for entry in SOA_ENTRIES}
        assert {"GPU", "Inference", "Training", "HPC", "Mat-Mul Acc."} <= categories

    def test_row_rendering(self):
        row = SOA_ENTRIES[1].as_row()
        assert row[1] == "Eyeriss"
        assert len(row) == 11
        assert "-" in SOA_ENTRIES[0].as_row()  # missing cells render as '-'


class TestOurRows:
    def test_three_operating_points(self):
        rows = our_entries()
        assert len(rows) == 3
        assert {row.technology_nm for row in rows} == {22, 65}
        assert all(row.precision == "FP16" for row in rows)
        assert all(row.mac_units == 32 for row in rows)

    def test_22nm_efficiency_row_matches_paper(self):
        row = our_entries()[0]
        paper = PAPER_OUR_WORK["22nm-efficiency"]
        assert row.area_mm2 == pytest.approx(paper["area_mm2"], rel=0.05)
        assert row.power_mw == pytest.approx(paper["power_mw"], rel=0.05)
        assert row.performance_gops == pytest.approx(paper["performance_gops"],
                                                     rel=0.05)
        assert row.efficiency_gops_w == pytest.approx(
            paper["efficiency_gops_w"], rel=0.05)

    def test_22nm_performance_row_matches_paper(self):
        row = our_entries()[1]
        paper = PAPER_OUR_WORK["22nm-performance"]
        assert row.power_mw == pytest.approx(paper["power_mw"], rel=0.05)
        assert row.performance_gops == pytest.approx(paper["performance_gops"],
                                                     rel=0.05)
        assert row.efficiency_gops_w == pytest.approx(
            paper["efficiency_gops_w"], rel=0.05)

    def test_65nm_row_matches_paper(self):
        row = our_entries()[2]
        paper = PAPER_OUR_WORK["65nm"]
        assert row.area_mm2 == pytest.approx(paper["area_mm2"], rel=0.05)
        assert row.power_mw == pytest.approx(paper["power_mw"], rel=0.05)
        assert row.performance_gops == pytest.approx(paper["performance_gops"],
                                                     rel=0.05)
        # The paper's own 65 nm GOPS/W figure is not fully consistent with its
        # GOPS and mW entries (12.6 / 0.0891 = 141); allow a wider band.
        assert row.efficiency_gops_w == pytest.approx(
            paper["efficiency_gops_w"], rel=0.10)

    def test_smallest_area_claim(self):
        """The paper notes it is the only *system* below 1 mm2 (excluding the
        standalone array of Anders et al.)."""
        ours = our_entries()[0]
        competitors = [e for e in SOA_ENTRIES
                       if e.area_mm2 is not None and e.design != "Anders et al."]
        assert all(ours.area_mm2 < entry.area_mm2 for entry in competitors)

    def test_custom_configuration_changes_mac_units(self):
        rows = our_entries(RedMulEConfig(height=8, length=8, pipeline_regs=3))
        assert all(row.mac_units == 64 for row in rows)


class TestTextTable:
    def test_render_alignment_and_rows(self):
        table = TextTable(["a", "bb"])
        table.add_row([1, 2.5])
        table.add_row(["x", None])
        text = table.render()
        lines = text.splitlines()
        assert len(lines) == 4
        assert table.n_rows == 2
        assert "-" in lines[1]

    def test_row_width_checked(self):
        table = TextTable(["one"])
        with pytest.raises(ValueError):
            table.add_row([1, 2])

    def test_needs_columns(self):
        with pytest.raises(ValueError):
            TextTable([])

    def test_add_rows_bulk(self):
        table = TextTable(["x", "y"])
        table.add_rows([[1, 2], [3, 4]])
        assert table.n_rows == 2
