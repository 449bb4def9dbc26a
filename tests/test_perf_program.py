"""Tests of the program-level analytic estimator (`estimate_program`)."""

import math

import pytest

from repro.farm import BACKEND_MODEL, SimulationFarm
from repro.graph.zoo import autoencoder_training_graph, mlp_training_graph
from repro.redmule.config import RedMulEConfig
from repro.redmule.perf_model import RedMulEPerfModel
from repro.serve import ContinuousServer
from repro.serve.requests import Request


def small_program(config=None):
    return mlp_training_graph((10, 6, 4), batch=2).lower(
        config=config or RedMulEConfig.reference()
    )


class TestEstimateProgram:
    def test_serial_cycles_equal_farm_time_program(self):
        config = RedMulEConfig.reference()
        program = small_program(config)
        estimate = RedMulEPerfModel(config).estimate_program(program)
        farm = SimulationFarm(config=config, backend=BACKEND_MODEL)
        assert estimate.serial_cycles == farm.time_program(program).cycles
        assert estimate.n_jobs == program.n_jobs
        assert estimate.total_macs == program.total_macs

    def test_node_cycles_sum_to_serial(self):
        program = small_program()
        estimate = RedMulEPerfModel().estimate_program(program)
        assert sum(estimate.node_cycles.values()) == \
            pytest.approx(estimate.serial_cycles)

    def test_critical_path_between_longest_job_and_serial(self):
        program = small_program()
        model = RedMulEPerfModel()
        estimate = model.estimate_program(program)
        longest = max(model.estimate(job).cycles for job in program.jobs)
        assert longest <= estimate.critical_path_cycles
        assert estimate.critical_path_cycles <= estimate.serial_cycles
        assert estimate.parallelism >= 1.0

    def test_pure_chain_has_no_parallelism(self):
        # The forward pass of a deep thin MLP is one dependency chain.
        from repro.graph.zoo import mlp_forward_graph

        program = mlp_forward_graph((8, 8, 8, 8), batch=4).lower()
        estimate = RedMulEPerfModel().estimate_program(program)
        assert estimate.critical_path_cycles == estimate.serial_cycles
        assert estimate.parallelism == 1.0

    def test_offload_cost_shifts_serial_and_critical_path(self):
        program = small_program()
        model = RedMulEPerfModel()
        plain = model.estimate_program(program)
        charged = model.estimate_program(program, offload_cycles_per_job=40.0)
        assert charged.serial_cycles == \
            plain.serial_cycles + 40.0 * program.n_jobs
        assert charged.critical_path_cycles > plain.critical_path_cycles

    @pytest.mark.parametrize("offload", [-1, math.nan, math.inf],
                             ids=["negative", "nan", "inf"])
    def test_invalid_offload_rejected(self, offload):
        with pytest.raises(ValueError, match="finite"):
            RedMulEPerfModel().estimate_program(
                small_program(), offload_cycles_per_job=offload)

    def test_single_cluster_serve_makespan_equals_serial_estimate(self):
        """The estimator's conservation law: node dispatch with one cluster
        and one request reproduces the analytic serial time."""
        config = RedMulEConfig.reference()
        graph = autoencoder_training_graph(batch=4)
        program = graph.lower(config=config)
        estimate = RedMulEPerfModel(config).estimate_program(program)

        farm = SimulationFarm(config=config, backend=BACKEND_MODEL)
        server = ContinuousServer(n_clusters=1, farm=farm,
                                  node_dispatch=True)
        report = server.simulate([
            Request(request_id=0, tenant="t", model="ae", graph=graph,
                    arrival_cycle=0)
        ])
        assert report.makespan_cycles == estimate.serial_cycles

    def test_memory_latency_charges_one_latency_per_tile(self):
        config = RedMulEConfig.reference()
        program = small_program(config)
        base = RedMulEPerfModel(config)
        slow = RedMulEPerfModel(config, memory_latency=9)
        tiles = sum(base.estimate(job).n_tiles for job in program.jobs)
        assert slow.estimate_program(program).serial_cycles == \
            base.estimate_program(program).serial_cycles + 9 * tiles

    def test_negative_memory_latency_rejected(self):
        with pytest.raises(ValueError):
            RedMulEPerfModel(memory_latency=-1)


class TestCriticalPathCycles:
    def test_lowered_program_helper_matches_estimator(self):
        config = RedMulEConfig.reference()
        program = small_program(config)
        model = RedMulEPerfModel(config)
        costs = [model.estimate(job).cycles for job in program.jobs]
        estimate = model.estimate_program(program)
        assert program.critical_path_cycles(costs) == \
            estimate.critical_path_cycles

    def test_cost_length_mismatch_rejected(self):
        program = small_program()
        with pytest.raises(ValueError, match="costs"):
            program.critical_path_cycles([1.0])

    def test_empty_program_is_zero(self):
        from repro.graph.ir import WorkloadGraph

        program = WorkloadGraph("empty").lower()
        assert program.critical_path_cycles([]) == 0.0
