"""Tests of the experiment drivers against the paper's reported results.

These are the reproduction's acceptance tests: each checks that the driver of
a table/figure returns results whose *shape* matches what the paper reports
(who wins, by roughly which factor, where the trends go).  Exact absolute
numbers are checked only where the paper states them and the models are
calibrated to them.
"""

import pytest

from repro.experiments import (
    area_breakdown,
    area_sweep,
    autoencoder_batching,
    autoencoder_training,
    build_table1,
    cluster_power_breakdown,
    energy_per_mac_sweep,
    hw_vs_sw_sweep,
    power_breakdown,
    render_table1,
    throughput_sweep,
)
from repro.experiments.runner import EXPERIMENTS, run_all, run_experiment
from repro.experiments.table1 import our_rows_as_dicts


class TestTable1:
    def test_contains_published_and_computed_rows(self):
        table = build_table1()
        assert len(table["soa_rows"]) == 9
        assert len(table["our_rows"]) == 3
        assert "22nm-efficiency" in table["paper_reference"]

    def test_our_efficiency_row_hits_688_gflops_w(self):
        rows = our_rows_as_dicts()
        efficiency_row = rows[0]
        assert efficiency_row["efficiency_gops_w"] == pytest.approx(688, rel=0.05)
        assert efficiency_row["power_mw"] == pytest.approx(43.5, rel=0.05)

    def test_render(self):
        text = render_table1()
        assert "PULP + RedMulE" in text and "Eyeriss" in text


class TestFig3:
    def test_area_breakdown_total(self):
        breakdown = area_breakdown()
        assert breakdown.total == pytest.approx(0.07, rel=0.05)

    def test_power_breakdowns(self):
        accel = power_breakdown()
        cluster = cluster_power_breakdown()
        assert accel.total == pytest.approx(0.69 * 43.5, rel=0.02)
        assert cluster.total == pytest.approx(43.5, rel=0.02)
        assert cluster.share("RedMulE") == pytest.approx(0.69, abs=0.01)

    def test_energy_per_mac_decreases_with_matrix_size(self):
        """Fig. 3c: energy/MAC drops as the computation grows."""
        records = energy_per_mac_sweep((8, 32, 128, 512))
        energies = [record["energy_per_mac_pj"] for record in records]
        assert energies == sorted(energies, reverse=True)
        assert energies[-1] == pytest.approx(2.9, rel=0.05)
        assert energies[0] > 2 * energies[-1]

    def test_throughput_saturates_at_42_gflops(self):
        """Fig. 3d: throughput at 666 MHz approaches 21.1 GMAC/s = 42 GFLOPS."""
        records = throughput_sweep((8, 64, 256, 512))
        final = records[-1]
        assert final["throughput_gflops"] == pytest.approx(42, rel=0.03)
        throughputs = [record["throughput_gflops"] for record in records]
        assert throughputs == sorted(throughputs)


class TestFig4a:
    def test_peak_speedup_is_about_22x(self):
        records = hw_vs_sw_sweep()
        best = max(record["speedup"] for record in records)
        assert best == pytest.approx(22.0, rel=0.05)

    def test_hw_approaches_988_percent_of_ideal(self):
        records = hw_vs_sw_sweep()
        best = max(record["hw_fraction_of_ideal"] for record in records)
        assert best > 0.97

    def test_sw_fraction_of_ideal_is_flat_and_low(self):
        records = hw_vs_sw_sweep((64, 128, 256))
        fractions = [record["sw_fraction_of_ideal"] for record in records]
        assert all(0.03 < fraction < 0.06 for fraction in fractions)

    def test_speedup_grows_with_size(self):
        records = hw_vs_sw_sweep((16, 64, 256))
        speedups = [record["speedup"] for record in records]
        assert speedups == sorted(speedups)


class TestFig4b:
    def test_reference_point_and_extremes(self):
        records = area_sweep()
        by_fma = {record["n_fma"]: record for record in records}
        assert by_fma[32]["area_vs_cluster"] == pytest.approx(0.14, abs=0.02)
        assert by_fma[256]["area_vs_cluster"] == pytest.approx(1.0, rel=0.1)
        assert by_fma[512]["area_vs_cluster"] == pytest.approx(2.0, rel=0.1)

    def test_ports_grow_with_h(self):
        records = area_sweep(((4, 8), (8, 8), (16, 8)))
        ports = [record["n_mem_ports"] for record in records]
        assert ports == sorted(ports) and ports[0] == 9


class TestFig4c:
    def test_batch1_speedup_is_about_2_6x(self):
        outcome = autoencoder_training(batch=1)
        assert outcome["speedup"] == pytest.approx(2.6, rel=0.1)

    def test_backward_benefits_more_than_forward(self):
        """The paper: 'significant advantages in particular in backward'."""
        outcome = autoencoder_training(batch=1)
        assert outcome["backward"]["speedup"] > 2 * outcome["forward"]["speedup"]

    def test_per_gemm_breakdown_is_complete(self):
        outcome = autoencoder_training(batch=1)
        assert len(outcome["per_gemm_hw"]) == len(outcome["per_gemm_sw"])
        assert len(outcome["per_gemm_hw"]) == 10 + 10 + 9


class TestFig4d:
    def test_batching_restores_the_speedup(self):
        records = autoencoder_batching((1, 16))
        b1, b16 = records
        assert b1["speedup"] == pytest.approx(2.6, rel=0.1)
        # Paper: 24.4x at batch 16; the model reproduces the large jump with
        # the same direction and order of magnitude.
        assert b16["speedup"] > 15
        assert b16["speedup"] > 6 * b1["speedup"]

    def test_hw_throughput_scales_with_batch_sw_does_not(self):
        records = autoencoder_batching((1, 16))
        b1, b16 = records
        assert b16["hw_throughput_vs_b1"] > 8      # paper: ~16x
        sw_ratio = b16["sw_macs_per_cycle"] / b1["sw_macs_per_cycle"]
        assert sw_ratio < 2.0                      # paper: no scaling

    def test_footprint_fits_l2(self):
        """Both batch sizes fit a typical PULP L2 (the paper quotes 184 kB for
        the batch-16 activations + gradients working set)."""
        records = autoencoder_batching((1, 16))
        b16 = records[1]
        assert b16["activation_footprint_kb"] < 200
        total_kb = b16["activation_footprint_kb"] + b16["weight_footprint_kb"]
        assert total_kb < 2048  # fits the 2 MiB L2 of the model


class TestRunner:
    def test_registry_covers_every_table_and_figure(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig3a", "fig3b", "fig3c", "fig3d",
            "fig4a", "fig4b", "fig4c", "fig4d",
            "serve-mlp", "serve-mix", "serve-million", "serve-decode",
            "dse-frontier", "dse-memory",
        }

    def test_run_experiment_by_name(self):
        assert run_experiment("fig4b")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            run_experiment("fig9z")

    def test_run_all(self):
        results = run_all()
        assert set(results) == set(EXPERIMENTS)
