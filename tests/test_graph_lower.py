"""Tests of the graph lowering pass (whole-GEMM and tiled job streams)."""

from dataclasses import FrozenInstanceError

import pytest

from repro.cluster.tiler import plan_tiled_matmul
from repro.farm import SimulationFarm
from repro.graph.ir import GemmNode, WorkloadGraph
from repro.graph.lower import lower
from repro.graph.precision import PrecisionRule, assign_precisions
from repro.graph.zoo import (
    autoencoder_training_graph,
    mlp_training_graph,
)
from repro.redmule.config import RedMulEConfig
from repro.workloads.gemm import GemmShape


def _autoencoder_table(b):
    """(name, M, N, K) of the auto-encoder training step's 29 GEMMs at batch
    ``b``, in issue order (layers 640-128x4-8-128x4-640)."""
    return [
        ("fc0-fwd", 128, 640, b), ("fc1-fwd", 128, 128, b),
        ("fc2-fwd", 128, 128, b), ("fc3-fwd", 128, 128, b),
        ("fc4-fwd", 8, 128, b), ("fc5-fwd", 128, 8, b),
        ("fc6-fwd", 128, 128, b), ("fc7-fwd", 128, 128, b),
        ("fc8-fwd", 128, 128, b), ("fc9-fwd", 640, 128, b),
        ("fc9-dw", 640, b, 128), ("fc9-dx", 128, 640, b),
        ("fc8-dw", 128, b, 128), ("fc8-dx", 128, 128, b),
        ("fc7-dw", 128, b, 128), ("fc7-dx", 128, 128, b),
        ("fc6-dw", 128, b, 128), ("fc6-dx", 128, 128, b),
        ("fc5-dw", 128, b, 8), ("fc5-dx", 8, 128, b),
        ("fc4-dw", 8, b, 128), ("fc4-dx", 128, 8, b),
        ("fc3-dw", 128, b, 128), ("fc3-dx", 128, 128, b),
        ("fc2-dw", 128, b, 128), ("fc2-dx", 128, 128, b),
        ("fc1-dw", 128, b, 128), ("fc1-dx", 128, 128, b),
        ("fc0-dw", 128, b, 640),
    ]


class TestAutoencoderParity:
    """The auto-encoder graph lowers to the paper's training-step GEMMs."""

    @pytest.mark.parametrize("batch", [1, 2, 4, 16])
    def test_jobs_match_the_written_table(self, batch):
        program = autoencoder_training_graph(batch).lower()
        table = _autoencoder_table(batch)
        jobs = program.jobs
        assert len(jobs) == len(table) == 29
        for job, (_, m, n, k) in zip(jobs, table):
            assert (job.m, job.n, job.k) == (m, n, k)
            assert job.accumulate is False
        # Same names in the same deterministic topo-sort order.
        assert [node.shape.name for node in program.gemm_nodes()] == \
            [name for name, *_ in table]

    def test_roles_and_layers_match_the_gemm_names(self):
        """Every GEMM's role and layer tags agree with its ``fc<layer>-<kind>``
        name, in the graph's deterministic order."""
        suffix = {"forward": "fwd", "weight-gradient": "dw",
                  "input-gradient": "dx"}
        graph = autoencoder_training_graph(16)
        gemms = [n for n in graph.topo_sort() if isinstance(n, GemmNode)]
        assert [f"fc{n.tags['layer']}-{suffix[n.tags['role']]}"
                for n in gemms] == [name for name, *_ in _autoencoder_table(16)]


class TestWholeGemmLowering:
    def test_node_order_deps_and_notes(self):
        program = mlp_training_graph((10, 6, 4), batch=2).lower()
        by_name = {node.name: node for node in program.nodes}
        assert by_name["fc1-fwd"].deps == ("relu0",)
        assert by_name["fc1-dw"].deps == ("loss-grad", "relu0")
        # Transpose-aware diagnostics from GemmShape.describe.
        assert "W^T" in by_name["fc1-dw"].note
        assert "X^T" in by_name["fc1-dx"].note

    def test_elementwise_nodes_carry_no_jobs(self):
        program = mlp_training_graph((10, 6, 4), batch=2).lower()
        relu = next(n for n in program.nodes if n.name == "relu0")
        assert relu.kind == "elementwise"
        assert relu.jobs == ()
        assert relu.elements == 6 * 2
        assert relu.macs == 0

    def test_oversized_gemm_notes_the_plan_but_stays_whole(self):
        program = autoencoder_training_graph(16).lower()
        fc0 = next(n for n in program.nodes if n.name == "fc0-fwd")
        assert fc0.n_jobs == 1
        assert "would tile" in fc0.note

    def test_job_deps_flat_annotation(self):
        graph = mlp_training_graph((10, 6, 4), batch=2)
        program = graph.lower()
        deps = program.job_deps()
        jobs = program.jobs
        assert len(deps) == len(jobs)
        assert deps[0] == ()          # fc0-fwd has no producers
        # Every dependency index points backwards.
        for index, prerequisites in enumerate(deps):
            assert all(dep < index for dep in prerequisites)

    def test_job_deps_resolve_through_elementwise_nodes(self):
        """fc1-fwd's only node dep is the job-less relu0; its *job* must
        still depend (transitively) on fc0-fwd's job."""
        program = mlp_training_graph((10, 6, 4), batch=2).lower()
        deps = program.job_deps()
        job_index = {}
        index = 0
        for node in program.nodes:
            for _ in node.jobs:
                job_index[node.name] = index
                index += 1
        assert deps[job_index["fc1-fwd"]] == (job_index["fc0-fwd"],)
        # fc1-dw waits on loss-grad (-> fc1-fwd's job) and relu0
        # (-> fc0-fwd's job).
        assert deps[job_index["fc1-dw"]] == (
            job_index["fc0-fwd"], job_index["fc1-fwd"])
        # No job is ever dependency-free except the true entry point.
        entry_free = [i for i, d in enumerate(deps) if not d]
        assert entry_free == [job_index["fc0-fwd"]]

    def test_describe(self):
        program = mlp_training_graph((10, 6, 4), batch=2).lower()
        text = program.describe()
        assert "whole-GEMM" in text
        assert "fc0-fwd" in text


class TestTiledLowering:
    def test_tiled_stream_preserves_macs_and_chains_accumulation(self):
        graph = WorkloadGraph("big")
        graph.add_tensor("x", 256, 256)
        graph.add_tensor("w", 256, 256)
        graph.add_tensor("z", 256, 256)
        graph.add_gemm("big", GemmShape(256, 256, 256, name="big"),
                       x="x", w="w", z="z")
        budget = 24 * 1024
        program = graph.lower(tile=True, tcdm_budget_bytes=budget)
        plan = plan_tiled_matmul(256, 256, 256, tcdm_budget_bytes=budget)
        node = program.nodes[0]
        assert node.n_jobs == plan.n_jobs > 1
        assert sum(job.total_macs for job in node.jobs) == 256 ** 3
        # Inner-dimension chunks: first job of each Z tile starts fresh,
        # later chunks accumulate.
        accumulates = [job.accumulate for job in node.jobs]
        assert accumulates.count(False) == plan.tiles_m * plan.tiles_k
        if plan.tiles_n > 1:
            assert any(accumulates)
        # Flat deps chain the node's jobs.
        deps = program.job_deps()
        assert deps[1] == (0,)

    def test_small_gemms_stay_single_job_in_tiled_mode(self):
        program = mlp_training_graph((10, 6, 4), batch=2).lower(tile=True)
        assert all(node.n_jobs == 1 for node in program.nodes
                   if node.is_gemm)

    def test_tiled_timing_through_the_farm(self):
        """Tiled and whole-GEMM programs both time cleanly on the farm."""
        graph = autoencoder_training_graph(16)
        farm = SimulationFarm(backend="model")
        whole = farm.time_program(graph.lower())
        tiled = farm.time_program(graph.lower(tile=True))
        assert whole.cycles > 0 and tiled.cycles > 0
        assert whole.macs == tiled.macs


def _single_gemm_graph(size=8):
    graph = WorkloadGraph("one")
    graph.add_tensor("x", size, size)
    graph.add_tensor("w", size, size)
    graph.add_tensor("h", size, size)
    graph.add_gemm("fc", GemmShape(size, size, size, name="fc"),
                   x="x", w="w", z="h")
    return graph


def _add_gemm(graph):
    graph.add_tensor("w2", 8, 8)
    graph.add_tensor("z", 8, 8)
    graph.add_gemm("fc2", GemmShape(8, 8, 8, name="fc2"), x="h", w="w2",
                   z="z")


def _add_elementwise(graph):
    graph.add_tensor("a", 8, 8)
    graph.add_elementwise("act", "relu", ["h"], "a")


def _assign_precisions(graph):
    assign_precisions(graph, [PrecisionRule("fp8-e4m3", prefix="fc")])


def _set_precision(graph):
    graph.precision = "bf16"


def _set_name(graph):
    graph.name = "renamed"


#: The graph mutations that change what it lowers to.
MUTATIONS = {
    "add_gemm": _add_gemm,
    "add_elementwise": _add_elementwise,
    "assign_precisions": _assign_precisions,
    "precision": _set_precision,
    "name": _set_name,
}


class TestLoweringMemo:
    def test_repeated_lowering_returns_the_memoised_program(self):
        graph = mlp_training_graph((10, 6, 4), batch=2)
        program = graph.lower()
        assert graph.lower() is program
        assert graph.lower(config=RedMulEConfig.reference()) is program
        assert graph.lower(tcdm_budget_bytes=96 * 1024) is program
        assert graph.lower(tile=True) is not program
        # The free function never memoises.
        assert lower(graph) is not program
        assert lower(graph) == program

    @pytest.mark.parametrize("mutation", list(MUTATIONS))
    def test_a_mutated_graph_lowers_afresh(self, mutation):
        graph = _single_gemm_graph()
        before = graph.lower()
        MUTATIONS[mutation](graph)
        after = graph.lower()
        assert after != before
        assert after == lower(graph)
        assert graph.lower() is after

    def test_programs_are_frozen(self):
        program = mlp_training_graph((10, 6, 4), batch=2).lower()
        assert isinstance(program.nodes, tuple)
        with pytest.raises(FrozenInstanceError):
            program.tiled = True
        with pytest.raises(FrozenInstanceError):
            program.nodes = ()
        with pytest.raises(FrozenInstanceError):
            program.nodes[0].note = "changed"
        deps = program.job_deps()
        assert isinstance(deps, tuple)
        assert all(isinstance(entry, tuple) for entry in deps)
        assert program.job_deps() is deps


class TestBudget:
    """Lowering consults the tiling planner only for GEMMs over budget."""

    # H=32, P=7 lines hold 256 elements: no tile set of a 256^3 GEMM fits
    # the default 96 KiB budget.
    WIDE = RedMulEConfig(height=32, pipeline_regs=7)

    def test_untiled_gemm_no_tiling_fits_is_a_note(self):
        program = _single_gemm_graph(256).lower(config=self.WIDE)
        (node,) = program.nodes
        assert node.n_jobs == 1
        assert node.note.endswith("| exceeds budget, no tiling fits")

    def test_tiled_gemm_no_tiling_fits_raises(self):
        with pytest.raises(ValueError, match="cannot tile 256x256x256"):
            _single_gemm_graph(256).lower(config=self.WIDE, tile=True)

    def test_gemm_within_budget_is_one_job_without_a_plan_note(self):
        for tile in (False, True):
            (node,) = _single_gemm_graph(64).lower(tile=tile).nodes
            assert node.n_jobs == 1
            assert "|" not in node.note

    @pytest.mark.parametrize("tile", [False, True])
    def test_budget_below_8_kib_rejected_up_front(self, tile):
        graph = WorkloadGraph("no-gemms")
        graph.add_tensor("x", 4, 4)
        graph.add_tensor("y", 4, 4)
        graph.add_elementwise("act", "relu", ["x"], "y")
        with pytest.raises(ValueError, match="below 8 KiB"):
            lower(graph, tile=tile, tcdm_budget_bytes=4 * 1024)


class TestFarmTimeProgram:
    def test_matches_run_shapes_on_whole_gemm_program(self):
        graph = autoencoder_training_graph(1)
        farm = SimulationFarm(backend="model")
        program = graph.lower()
        timing = farm.time_program(program)
        shapes = [node.shape for node in program.gemm_nodes()]
        reference = farm.time_workload(shapes)
        assert timing.cycles == reference.cycles
        assert timing.macs == reference.macs

    def test_offload_cost_is_per_job(self):
        graph = autoencoder_training_graph(1)
        farm = SimulationFarm(backend="model")
        program = graph.lower()
        base = farm.time_program(program)
        loaded = farm.time_program(program, offload_cycles_per_job=10.0)
        assert loaded.cycles == base.cycles + 10.0 * program.n_jobs

    def test_per_node_breakdown_keys(self):
        graph = mlp_training_graph((10, 6, 4), batch=2)
        farm = SimulationFarm(backend="model")
        timing = farm.time_program(graph.lower())
        assert "fc0-fwd" in timing.per_gemm
        assert "fc1-dw" in timing.per_gemm
