"""Tests of the experiment drivers against the paper's reported results.

These are the reproduction's acceptance tests: each checks that the driver of
a table/figure returns results whose *shape* matches what the paper reports
(who wins, by roughly which factor, where the trends go).  Exact absolute
numbers are checked only where the paper states them and the models are
calibrated to them.
"""

import hashlib
import re

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
from repro.experiments.runner import (
    EXPERIMENTS,
    _render,
    run_all,
    run_experiment,
)
from repro.experiments.table1 import our_rows_as_dicts
from repro.farm import reset_default_farms
from repro.graph.zoo import autoencoder_training_graph

#: sha256 of every scenario's rendered output (``runner._render``) in a
#: ``run_all()`` from clean defaults: fresh shared farms, default scenario
#: settings, scenarios in registry order.  The serve scenarios print the
#: shared farm's cache hits, so a digest also pins what the scenarios
#: before it left in the cache.  The ``pytest.approx`` checks above let a
#: figure drift inside their tolerance; this ledger does not.  A change
#: that alters an output on purpose updates its digest here and names the
#: change in CHANGES.md.
RUNNER_OUTPUT_SHA256 = {
    "table1": "ce9350fc94c7b280039eeef34f91068122c1ee1a7979a4f2efd75c5891198961",
    "fig3a": "191058f3f775d0820cb3c49be59f613f82139e702d6a1a0fb566a82b0191a6be",
    "fig3b": "91167f3dae890807cfa3770ba48372bad8f60a02295ebe95711234731918bd06",
    "fig3c": "9291a92d0ce605210d8f6860e924ffc7c9464d5cb1b9ec4a9b41704c294ea38a",
    "fig3d": "bd1c34744340f1b8c976a3f17f8f8056cf8083ddf5f637700557128502e2aa46",
    "fig4a": "700185a0617a4a0661563d85dc824d070676167129e299026cd1e40b1a737a43",
    "fig4b": "7c754b2d3a70e96e82c8c3e464d2f1382479e2957644b437bc22d8f26a0ef644",
    "fig4c": "477b5e4ff488ed77c2670cc2af278b8189f596516035484dff7a0cefa99e4f31",
    "fig4d": "e327e521924474bddd2411e298be19b40e4632347cba0fde9ce740444b3e941b",
    "serve-mlp": "22a5f902809f6748e71ccfee47979ad61e01f08657d4f5e37994f7001224d574",
    "serve-mix": "b590e7e6447100202989938f4571e5d533e291f6ea572ac46c3540e3a03973fc",
    "serve-million": "7fb5e6575cd1e4629e28171274a9b8e558f0621c781576a5005582ec2ded2535",
    "serve-decode": "e32811ffd63639cbb30cb21d63609d808f57e99f49558a8ea68a8ef3b4ef38e9",
    "dse-frontier": "00002f29a4b6f2d3069d64824262e256918bd42a6b605cfc0d38daad5b1e740b",
    "dse-memory": "120a64b5b65b4df696c5e3def9dc03be62ff1b587e4fa30ca730d07d943be189",
}

#: sha256 of the four serve scenarios' rendered output at ``format=
#: "fp8-e4m3"``, run in registry order from fresh shared farms.  The other
#: eleven scenarios do not take ``format``: their models are calibrated to
#: the paper's FP16 silicon.
RUNNER_FP8_OUTPUT_SHA256 = {
    "serve-mlp": "18a6b194b6a03e6a9657621930e8d49b77b9e288c249519a40054ff2ed0f56af",
    "serve-mix": "ea7968268316d4b48e75f9ad689b36f49e3046a21db4c6355fe103022e882ecb",
    "serve-million": "797199b27a306eb660c2c39950eef7f7c02172e3a343296aba9978922407902f",
    "serve-decode": "6c758b450b282bf45ededf30ff728637fc8b35770aea4abe7a2ce9604f730e19",
}

#: The only wall-clock figures in the rendered outputs: the DSE sweep
#: line's ``in {wall:.2f} s ({rate:.0f} points/s,``.
_SWEEP_WALL_CLOCK = re.compile(r" in \d+\.\d\d s \(\d+ points/s,")


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

    def test_per_gemm_keys_follow_the_graph_order(self):
        """Forward GEMMs first, then the backward ones, each pass in the
        training graph's insertion order."""
        outcome = autoencoder_training(batch=1)
        names = [node.name
                 for node in autoencoder_training_graph(1).gemm_nodes()]
        assert list(outcome["per_gemm_hw"]) == names
        assert list(outcome["per_gemm_sw"]) == names

    def test_passes_split_the_macs_by_role(self):
        """Forward: the 264,192 MACs of one sample through the ten layers;
        backward: as many weight-gradient MACs plus the input gradients of
        layers 1-9 (182,272)."""
        outcome = autoencoder_training(batch=1)
        assert outcome["forward"]["macs"] == 264_192
        assert outcome["backward"]["macs"] == 264_192 + 182_272
        assert outcome["total_macs"] == 710_656


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

    def test_total_macs_are_linear_in_batch(self):
        records = autoencoder_batching((1, 16))
        assert [r["total_macs"] for r in records] == [710_656, 16 * 710_656]

    def test_footprints(self):
        """Two bytes per weight of the 264,192-parameter model, and an
        activation + gradient working set linear in the batch."""
        b1, b16 = autoencoder_batching((1, 16))
        assert b1["weight_footprint_kb"] * 1024 == 2 * 264_192
        assert b16["weight_footprint_kb"] == b1["weight_footprint_kb"]
        assert b16["activation_footprint_kb"] == \
            16 * b1["activation_footprint_kb"]

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
        reset_default_farms()
        try:
            results = run_all()
        finally:
            reset_default_farms()
        assert set(results) == set(EXPERIMENTS)
        rendered = {name: _render(name, result)
                    for name, result in results.items()}
        assert [name for name, text in rendered.items()
                if _SWEEP_WALL_CLOCK.search(text)] == ["dse-frontier",
                                                       "dse-memory"]
        digests = {
            name: hashlib.sha256(_SWEEP_WALL_CLOCK.sub(
                " in <wall> s (<rate> points/s,", text).encode()).hexdigest()
            for name, text in rendered.items()
        }
        assert digests == RUNNER_OUTPUT_SHA256

    def test_serve_scenarios_at_fp8(self):
        reset_default_farms()
        try:
            digests = {
                name: hashlib.sha256(_render(name, run_experiment(
                    name, format="fp8-e4m3")).encode()).hexdigest()
                for name in RUNNER_FP8_OUTPUT_SHA256
            }
        finally:
            reset_default_farms()
        assert digests == RUNNER_FP8_OUTPUT_SHA256
