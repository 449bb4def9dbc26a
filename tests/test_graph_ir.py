"""Tests of the workload-graph IR: validation, topo-sort, analysis."""

import pytest

from repro.graph.ir import (
    ElementwiseNode,
    GemmNode,
    GraphValidationError,
    TensorRef,
    WorkloadGraph,
)
from repro.workloads.gemm import GemmShape


def _simple_chain():
    """a -> gemm1 -> b -> relu -> c -> gemm2 -> d."""
    graph = WorkloadGraph("chain")
    graph.add_tensor("w1", 8, 4)
    graph.add_tensor("a", 4, 2)
    graph.add_tensor("b", 8, 2)
    graph.add_gemm("gemm1", GemmShape(8, 4, 2, name="gemm1"),
                   x="w1", w="a", z="b")
    graph.add_tensor("c", 8, 2)
    graph.add_elementwise("relu", "relu", inputs=("b",), output="c")
    graph.add_tensor("w2", 16, 8)
    graph.add_tensor("d", 16, 2)
    graph.add_gemm("gemm2", GemmShape(16, 8, 2, name="gemm2"),
                   x="w2", w="c", z="d")
    return graph


class TestTensorRef:
    def test_properties(self):
        tensor = TensorRef("t", 4, 6)
        assert tensor.shape == (4, 6)
        assert tensor.elements == 24
        assert tensor.bytes == 48
        assert "t[4x6]" in tensor.describe()

    def test_validation(self):
        with pytest.raises(GraphValidationError):
            TensorRef("t", 0, 4)
        with pytest.raises(GraphValidationError):
            TensorRef("", 4, 4)


class TestConstruction:
    def test_chain_builds_and_validates(self):
        graph = _simple_chain()
        graph.validate()
        assert len(graph) == 3
        assert [n.name for n in graph.gemm_nodes()] == ["gemm1", "gemm2"]
        assert graph.total_macs == 8 * 4 * 2 + 16 * 8 * 2

    def test_duplicate_tensor_rejected(self):
        graph = WorkloadGraph("g")
        graph.add_tensor("t", 2, 2)
        with pytest.raises(GraphValidationError, match="declared twice"):
            graph.add_tensor("t", 2, 2)

    def test_duplicate_node_rejected(self):
        graph = WorkloadGraph("g")
        graph.add_tensor("a", 2, 2)
        graph.add_tensor("b", 2, 2)
        graph.add_elementwise("n", "relu", ("a",), "b")
        graph.add_tensor("c", 2, 2)
        with pytest.raises(GraphValidationError, match="added twice"):
            graph.add_elementwise("n", "relu", ("a",), "c")

    def test_undeclared_tensor_rejected(self):
        graph = WorkloadGraph("g")
        graph.add_tensor("a", 2, 2)
        with pytest.raises(GraphValidationError, match="undeclared"):
            graph.add_elementwise("n", "relu", ("a",), "missing")

    def test_double_producer_rejected(self):
        graph = WorkloadGraph("g")
        graph.add_tensor("a", 2, 2)
        graph.add_tensor("b", 2, 2)
        graph.add_elementwise("n1", "relu", ("a",), "b")
        with pytest.raises(GraphValidationError, match="produced by both"):
            graph.add_elementwise("n2", "relu", ("a",), "b")

    def test_gemm_shape_mismatch_rejected(self):
        graph = WorkloadGraph("g")
        graph.add_tensor("x", 4, 4)
        graph.add_tensor("w", 4, 4)
        graph.add_tensor("z", 4, 4)
        with pytest.raises(GraphValidationError, match="expects"):
            graph.add_gemm("bad", GemmShape(4, 8, 4, name="bad"),
                           x="x", w="w", z="z")

    def test_transposed_gemm_expects_stored_shapes(self):
        # dA[in,B] = W^T[in,out] . dY[out,B] with stored W[out,in].
        graph = WorkloadGraph("g")
        graph.add_tensor("w", 8, 4)       # stored [out=8, in=4]
        graph.add_tensor("dy", 8, 2)
        graph.add_tensor("da", 4, 2)
        node = graph.add_gemm("dx", GemmShape(m=4, n=8, k=2, name="dx"),
                              x="w", w="dy", z="da", transpose="x")
        assert node.expected_input_shapes() == ((8, 4), (8, 2))
        graph.validate()

    def test_invalid_transpose_rejected(self):
        with pytest.raises(GraphValidationError, match="transpose"):
            GemmNode(name="n", inputs=("a", "b"), output="c",
                     shape=GemmShape(2, 2, 2), transpose="z")

    def test_gemm_needs_two_inputs(self):
        with pytest.raises(GraphValidationError, match="input"):
            GemmNode(name="n", inputs=("a",), output="c",
                     shape=GemmShape(2, 2, 2))


class TestQueries:
    def test_dependencies_and_producers(self):
        graph = _simple_chain()
        assert graph.dependencies("gemm1") == []
        assert graph.dependencies("relu") == ["gemm1"]
        assert graph.dependencies("gemm2") == ["relu"]
        assert graph.producer("b").name == "gemm1"
        assert graph.producer("a") is None

    def test_graph_inputs(self):
        graph = _simple_chain()
        inputs = {tensor.name for tensor in graph.graph_inputs()}
        assert inputs == {"w1", "a", "w2"}

    def test_gemm_nodes_follow_insertion_not_topo_order(self):
        """The consumer is added before its producer: ``gemm_nodes`` keeps
        the order the nodes were added in, ``topo_sort`` reorders."""
        graph = WorkloadGraph("reversed")
        for name, rows, cols in (("w1", 8, 4), ("a", 4, 2), ("b", 8, 2),
                                 ("w2", 16, 8), ("d", 16, 2)):
            graph.add_tensor(name, rows, cols)
        graph.add_gemm("gemm2", GemmShape(16, 8, 2, name="gemm2"),
                       x="w2", w="b", z="d")
        graph.add_gemm("gemm1", GemmShape(8, 4, 2, name="gemm1"),
                       x="w1", w="a", z="b")
        assert [n.name for n in graph.gemm_nodes()] == ["gemm2", "gemm1"]
        assert [n.name for n in graph.topo_sort()] == ["gemm1", "gemm2"]

    def test_total_macs_counts_only_gemm_work(self):
        graph = _simple_chain()
        assert graph.total_macs == sum(n.shape.macs for n in graph.gemm_nodes())
        assert graph.node("relu").macs == 0


class TestTopoSort:
    def test_insertion_order_is_kept_when_valid(self):
        graph = _simple_chain()
        assert [n.name for n in graph.topo_sort()] == \
            ["gemm1", "relu", "gemm2"]

    def test_deterministic_tie_break_by_insertion_index(self):
        graph = WorkloadGraph("diamond")
        graph.add_tensor("a", 2, 2)
        for leaf in ("z", "y", "x"):  # inserted in reverse alphabetical
            graph.add_tensor(f"out-{leaf}", 2, 2)
            graph.add_elementwise(leaf, "relu", ("a",), f"out-{leaf}")
        assert [n.name for n in graph.topo_sort()] == ["z", "y", "x"]

    def test_cycle_detected(self):
        graph = WorkloadGraph("cyclic")
        graph.add_tensor("t1", 2, 2)
        graph.add_tensor("t2", 2, 2)
        graph.add_elementwise("n1", "relu", ("t2",), "t1")
        graph.add_elementwise("n2", "relu", ("t1",), "t2")
        with pytest.raises(GraphValidationError, match="cycle"):
            graph.topo_sort()


class TestAnalysis:
    def test_critical_path_of_chain_is_everything(self):
        graph = _simple_chain()
        path = graph.critical_path()
        assert path.nodes == ("gemm1", "relu", "gemm2")
        assert path.cost == graph.total_macs

    def test_critical_path_picks_heavier_branch(self):
        graph = WorkloadGraph("fork")
        graph.add_tensor("a", 4, 4)
        graph.add_tensor("w-big", 64, 4)
        graph.add_tensor("big", 64, 4)
        graph.add_gemm("heavy", GemmShape(64, 4, 4, name="heavy"),
                       x="w-big", w="a", z="big")
        graph.add_tensor("w-small", 8, 4)
        graph.add_tensor("small", 8, 4)
        graph.add_gemm("light", GemmShape(8, 4, 4, name="light"),
                       x="w-small", w="a", z="small")
        path = graph.critical_path()
        assert path.nodes == ("heavy",)
        assert path.cost == 64 * 4 * 4

    def test_wavefronts_expose_parallelism(self):
        graph = WorkloadGraph("fan")
        graph.add_tensor("a", 2, 2)
        graph.add_tensor("b1", 2, 2)
        graph.add_tensor("b2", 2, 2)
        graph.add_elementwise("p1", "relu", ("a",), "b1")
        graph.add_elementwise("p2", "relu", ("a",), "b2")
        graph.add_tensor("c", 2, 2)
        graph.add_elementwise("join", "add", ("b1", "b2"), "c")
        assert graph.wavefronts() == [["p1", "p2"], ["join"]]

    def test_empty_graph_analysis(self):
        graph = WorkloadGraph("empty")
        assert graph.topo_sort() == []
        assert graph.critical_path().nodes == ()
        assert graph.wavefronts() == []


class TestDescribe:
    def test_describe_mentions_nodes_and_deps(self):
        graph = _simple_chain()
        text = graph.describe()
        assert "graph chain" in text
        assert "2 GEMMs" in text
        assert "<- gemm1" in text

    def test_elementwise_describe(self):
        node = ElementwiseNode(name="n", inputs=("a", "b"), output="c",
                               op="add")
        assert "add(a, b) -> c" in node.describe()

    def test_transposed_gemm_describe(self):
        node = GemmNode(name="n", inputs=("a", "b"), output="c",
                        shape=GemmShape(4, 8, 2, name="dx"), transpose="x")
        assert "X^T[8x4]" in node.describe()
