"""Unit tests for the incremental task dependency graph."""

import pytest

from repro.errors import GraphError
from repro.graph import TaskGraph


@pytest.fixture
def diamond():
    """0 -> {1, 2} -> 3 with byte weights."""
    g = TaskGraph()
    for _ in range(4):
        g.add_node(1.0)
    g.add_edge(0, 1, 100.0)
    g.add_edge(0, 2, 200.0)
    g.add_edge(1, 3, 300.0)
    g.add_edge(2, 3, 400.0)
    return g


class TestConstruction:
    def test_ids_dense_in_creation_order(self):
        g = TaskGraph()
        assert [g.add_node() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_counts(self, diamond):
        assert diamond.n_nodes == 4
        assert diamond.n_edges == 4
        assert diamond.total_edge_weight == 1000.0

    def test_parallel_edges_coalesce(self):
        g = TaskGraph()
        g.add_node()
        g.add_node()
        g.add_edge(0, 1, 10.0)
        g.add_edge(0, 1, 5.0)
        assert g.n_edges == 1
        assert g.edge_weight(0, 1) == 15.0

    def test_backward_edge_rejected(self):
        g = TaskGraph()
        g.add_node()
        g.add_node()
        with pytest.raises(GraphError, match="backwards"):
            g.add_edge(1, 0)

    def test_self_edge_rejected(self):
        g = TaskGraph()
        g.add_node()
        with pytest.raises(GraphError, match="self"):
            g.add_edge(0, 0)

    def test_negative_weight_rejected(self):
        g = TaskGraph()
        g.add_node()
        g.add_node()
        with pytest.raises(GraphError):
            g.add_edge(0, 1, -1.0)
        with pytest.raises(GraphError):
            g.add_node(weight=-1.0)

    def test_unknown_node_rejected(self, diamond):
        with pytest.raises(GraphError):
            diamond.add_edge(0, 9)

    def test_set_node_weight(self, diamond):
        diamond.set_node_weight(2, 7.5)
        assert diamond.node_weight(2) == 7.5


class TestQueries:
    def test_neighbours(self, diamond):
        assert diamond.successors(0) == {1: 100.0, 2: 200.0}
        assert diamond.predecessors(3) == {1: 300.0, 2: 400.0}

    def test_degrees(self, diamond):
        assert diamond.in_degree(0) == 0
        assert diamond.out_degree(0) == 2
        assert diamond.in_degree(3) == 2

    def test_has_edge(self, diamond):
        assert diamond.has_edge(0, 1)
        assert not diamond.has_edge(1, 2)

    def test_edge_weight_missing(self, diamond):
        with pytest.raises(GraphError):
            diamond.edge_weight(1, 2)

    def test_roots_and_leaves(self, diamond):
        assert diamond.roots() == [0]
        assert diamond.leaves() == [3]

    def test_edges_iteration(self, diamond):
        edges = sorted(diamond.edges())
        assert edges == [
            (0, 1, 100.0), (0, 2, 200.0), (1, 3, 300.0), (2, 3, 400.0)
        ]

    def test_labels(self):
        g = TaskGraph()
        g.add_node(label="potrf")
        assert g.label(0) == "potrf"


class TestDerivedGraphs:
    def test_prefix(self, diamond):
        sub = diamond.prefix(3)
        assert sub.n_nodes == 3
        assert sub.has_edge(0, 1) and sub.has_edge(0, 2)
        assert sub.n_edges == 2  # edges into node 3 dropped

    def test_prefix_clamps(self, diamond):
        assert diamond.prefix(100).n_nodes == 4

    def test_prefix_zero(self, diamond):
        assert diamond.prefix(0).n_nodes == 0

    def test_prefix_negative_rejected(self, diamond):
        with pytest.raises(GraphError):
            diamond.prefix(-1)

    def test_subgraph_remaps_ids(self, diamond):
        sub, old = diamond.subgraph([1, 3])
        assert old == [1, 3]
        assert sub.n_nodes == 2
        assert sub.has_edge(0, 1)  # old 1->3
        assert sub.edge_weight(0, 1) == 300.0

    def test_subgraph_preserves_weights(self, diamond):
        diamond.set_node_weight(3, 9.0)
        sub, old = diamond.subgraph([2, 3])
        assert sub.node_weight(1) == 9.0

    def test_to_networkx(self, diamond):
        pytest.importorskip("networkx")
        nx_g = diamond.to_networkx()
        assert nx_g.number_of_nodes() == 4
        assert nx_g.number_of_edges() == 4
        assert nx_g[0][1]["weight"] == 100.0

    def test_repr(self, diamond):
        assert "n_nodes=4" in repr(diamond)
