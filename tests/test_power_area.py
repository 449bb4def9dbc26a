"""Tests for the area model against the paper's published numbers."""

import pytest

from repro.power.area import AreaModel, ClusterAreaModel
from repro.power.technology import TECH_22NM, TECH_65NM
from repro.redmule.config import RedMulEConfig


@pytest.fixture
def reference():
    return RedMulEConfig.reference()


class TestRedMulEArea:
    @pytest.mark.parametrize("tech", [TECH_22NM, TECH_65NM],
                             ids=lambda tech: tech.name)
    def test_reference_instance_is_0_07_mm2(self, reference, tech):
        """Section III-A: RedMulE occupies 0.07 mm2 in 22 nm; the 65 nm
        port records the same instance scaled with the cluster area."""
        area = AreaModel(reference, tech).total()
        assert area == pytest.approx(tech.redmule_area_mm2, rel=0.03)

    def test_datapath_dominates_the_breakdown(self, reference):
        """Fig. 3a: the FMA datapath is by far the largest contributor."""
        breakdown = AreaModel(reference, TECH_22NM).breakdown()
        assert breakdown.share("datapath (FMAs)") > 0.5
        assert breakdown.total == pytest.approx(0.07, rel=0.05)
        assert set(breakdown.names()) == {
            "datapath (FMAs)", "X/W/Z buffers", "streamer",
            "controller + scheduler",
        }

    def test_area_grows_monotonically_with_fma_count(self):
        areas = [
            AreaModel(RedMulEConfig(height=h, length=l, pipeline_regs=3)).total()
            for h, l in [(4, 4), (4, 8), (4, 16), (8, 16), (8, 32), (16, 32)]
        ]
        assert areas == sorted(areas)

    def test_65nm_port_scales_up(self, reference):
        area_22 = AreaModel(reference, TECH_22NM).total()
        area_65 = AreaModel(reference, TECH_65NM).total()
        assert area_65 == pytest.approx(area_22 * 3.85 / 0.5, rel=1e-6)


class TestAreaSweep:
    """Fig. 4b and the 'parametric area swipe' paragraph of Section III-A."""

    def test_256_fma_instance_is_comparable_to_the_cluster(self):
        area = AreaModel(RedMulEConfig(height=8, length=32, pipeline_regs=3)).total()
        assert area == pytest.approx(TECH_22NM.cluster_area_mm2, rel=0.1)

    def test_512_fma_instance_doubles_the_cluster(self):
        area = AreaModel(RedMulEConfig(height=16, length=32, pipeline_regs=3)).total()
        assert area == pytest.approx(2 * TECH_22NM.cluster_area_mm2, rel=0.1)

    def test_sweep_records(self):
        records = AreaModel.sweep([(4, 8), (8, 32), (16, 32)])
        assert [r["n_fma"] for r in records] == [32, 256, 512]
        assert records[0]["area_vs_cluster"] == pytest.approx(0.14, abs=0.02)
        assert all(r["area_mm2"] > 0 for r in records)

    def test_memory_ports_grow_with_h(self):
        records = AreaModel.sweep([(4, 8), (5, 8), (8, 8)])
        ports = [r["n_mem_ports"] for r in records]
        assert ports[0] == 9
        assert ports[1] == 11   # H=4 -> 5 adds two 32-bit ports
        assert ports[2] == 17

    def test_pipeline_depth_affects_area(self):
        shallow = AreaModel(RedMulEConfig(height=4, length=8, pipeline_regs=1)).total()
        deep = AreaModel(RedMulEConfig(height=4, length=8, pipeline_regs=5)).total()
        assert deep > shallow


class TestClusterArea:
    def test_cluster_is_half_a_square_millimetre(self, reference):
        """Table I: the full cluster occupies 0.5 mm2 in 22 nm."""
        total = ClusterAreaModel(reference, TECH_22NM).total()
        assert total == pytest.approx(0.5, rel=0.03)

    def test_redmule_is_14_percent_of_the_cluster(self, reference):
        """Section III-A: RedMulE is 14 % of the PULP cluster."""
        share = ClusterAreaModel(reference, TECH_22NM).redmule_share()
        assert share == pytest.approx(0.14, abs=0.015)

    def test_65nm_cluster_matches_table1(self, reference):
        total = ClusterAreaModel(reference, TECH_65NM).total()
        assert total == pytest.approx(3.85, rel=0.05)

    def test_breakdown_contains_all_components(self, reference):
        breakdown = ClusterAreaModel(reference, TECH_22NM).breakdown()
        assert "RedMulE" in breakdown.names()
        assert breakdown.total == pytest.approx(0.5, rel=0.03)
