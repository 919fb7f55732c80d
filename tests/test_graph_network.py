"""Tests for the FlowNetwork data structure."""

from __future__ import annotations

import pytest

from repro.errors import EdgeNotFoundError, InvalidGraphError, VertexNotFoundError
from repro.graph import FlowNetwork, paper_example_graph


class TestConstruction:
    def test_source_and_sink_are_created(self):
        network = FlowNetwork(source="s", sink="t")
        assert network.has_vertex("s")
        assert network.has_vertex("t")
        assert network.num_vertices == 2
        assert network.num_edges == 0

    def test_source_equals_sink_rejected(self):
        with pytest.raises(InvalidGraphError):
            FlowNetwork(source="x", sink="x")

    def test_add_edge_creates_vertices(self):
        network = FlowNetwork()
        edge = network.add_edge("a", "b", 5.0)
        assert network.has_vertex("a") and network.has_vertex("b")
        assert edge.index == 0
        assert edge.capacity == 5.0

    def test_negative_capacity_rejected(self):
        network = FlowNetwork()
        with pytest.raises(InvalidGraphError):
            network.add_edge("a", "b", -1.0)

    def test_self_loop_rejected(self):
        network = FlowNetwork()
        with pytest.raises(InvalidGraphError):
            network.add_edge("a", "a", 1.0)

    def test_parallel_edges_allowed(self):
        network = FlowNetwork()
        network.add_edge("a", "b", 1.0)
        network.add_edge("a", "b", 2.0)
        assert network.num_edges == 2
        assert len(network.find_edges("a", "b")) == 2

    def test_edge_indices_are_positional(self):
        network = paper_example_graph()
        for position, edge in enumerate(network.edges()):
            assert edge.index == position
            assert network.edge(position) is not None

    def test_unknown_edge_index(self):
        with pytest.raises(EdgeNotFoundError):
            paper_example_graph().edge(99)

    def test_unknown_vertex_query(self):
        with pytest.raises(VertexNotFoundError):
            paper_example_graph().out_edges("nope")


NAN = float("nan")


def _one_edge() -> FlowNetwork:
    network = FlowNetwork()
    network.add_edge("s", "t", 2.0)
    return network


class TestNanCapacityRejected:
    """NaN slips past ``capacity < 0``; every entry point must refuse it."""

    def test_edge_constructor(self):
        from repro.graph.network import Edge

        with pytest.raises(InvalidGraphError):
            Edge(0, "s", "t", NAN)

    def test_add_edge_adds_no_vertex(self):
        network = FlowNetwork()
        with pytest.raises(InvalidGraphError):
            network.add_edge("a", "b", NAN)
        assert not network.has_vertex("a") and not network.has_vertex("b")
        assert network.num_edges == 0

    def test_set_capacity(self):
        network = _one_edge()
        with pytest.raises(InvalidGraphError):
            network.set_capacity(0, NAN)
        assert network.edge(0).capacity == 2.0

    def test_streaming_insert(self):
        from repro.graph.updates import EdgeInsert, MutableFlowNetwork

        dyn = MutableFlowNetwork(_one_edge())
        with pytest.raises(InvalidGraphError):
            dyn.apply([EdgeInsert("s", "t", NAN)])
        assert dyn.revision == 0 and dyn.network.num_edges == 1

    def test_streaming_update(self):
        from repro.graph.updates import CapacityUpdate, MutableFlowNetwork

        dyn = MutableFlowNetwork(_one_edge())
        with pytest.raises(InvalidGraphError):
            dyn.apply([CapacityUpdate(0, NAN)])
        assert dyn.revision == 0 and dyn.network.edge(0).capacity == 2.0


class TestQueries:
    def test_paper_example_shape(self):
        g = paper_example_graph()
        assert g.num_vertices == 5
        assert g.num_edges == 5
        assert g.out_degree("s") == 1
        assert g.in_degree("t") == 2
        assert sorted(g.internal_vertices()) == ["n1", "n2", "n3"]

    def test_neighbors_are_unique(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 1.0)
        network.add_edge("s", "a", 2.0)
        network.add_edge("s", "t", 3.0)
        assert network.neighbors("s") == ["a", "t"]

    def test_max_and_total_capacity(self):
        g = paper_example_graph()
        assert g.max_capacity() == 3.0
        assert g.total_capacity() == pytest.approx(9.0)

    def test_infinite_capacity_excluded_from_max(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 2.0)
        network.add_edge("a", "t", float("inf"))
        assert network.max_capacity() == 2.0

    def test_adjacency_matrix_merges_parallel_edges(self):
        network = FlowNetwork()
        network.add_edge("s", "t", 1.0)
        network.add_edge("s", "t", 2.5)
        order, matrix = network.adjacency_matrix()
        i, j = order.index("s"), order.index("t")
        assert matrix[i][j] == pytest.approx(3.5)

    def test_copy_and_reversed(self):
        g = paper_example_graph()
        clone = g.copy()
        assert clone.num_edges == g.num_edges and clone is not g
        rev = g.reversed()
        assert rev.source == g.sink and rev.sink == g.source
        assert rev.has_edge("n1", "s")

    def test_subgraph_requires_terminals(self):
        g = paper_example_graph()
        with pytest.raises(InvalidGraphError):
            g.subgraph(["n1", "n2"])
        sub = g.subgraph(["s", "n1", "n2", "t"])
        assert sub.num_vertices == 4
        assert not sub.has_vertex("n3")


class TestFlowChecks:
    def test_feasible_flow_accepted(self):
        g = paper_example_graph()
        flow = {0: 2.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0}
        assert g.is_feasible_flow(flow)
        assert g.flow_value(flow) == pytest.approx(2.0)

    def test_capacity_violation_detected(self):
        g = paper_example_graph()
        flow = {0: 4.0, 1: 2.0, 2: 2.0, 3: 2.0, 4: 2.0}
        problems = g.check_flow(flow)
        assert any("exceeds" in p for p in problems)

    def test_conservation_violation_detected(self):
        g = paper_example_graph()
        flow = {0: 2.0, 1: 0.5, 2: 1.0, 3: 1.0, 4: 1.0}
        problems = g.check_flow(flow)
        assert any("conservation" in p for p in problems)

    def test_negative_flow_detected(self):
        g = paper_example_graph()
        problems = g.check_flow({0: -0.5})
        assert any("negative" in p for p in problems)

    def test_excess(self):
        g = paper_example_graph()
        flow = {0: 2.0, 1: 1.0, 2: 1.0}
        assert g.excess(flow, "n1") == pytest.approx(0.0)
        assert g.excess(flow, "n2") == pytest.approx(1.0)

    def test_cut_capacity(self):
        g = paper_example_graph()
        assert g.cut_capacity({"s"}) == pytest.approx(3.0)
        assert g.cut_capacity({"s", "n1"}) == pytest.approx(3.0)
        assert g.cut_capacity({"s", "n1", "n2", "n3"}) == pytest.approx(3.0)

    def test_cut_capacity_requires_valid_partition(self):
        g = paper_example_graph()
        with pytest.raises(InvalidGraphError):
            g.cut_capacity({"n1"})
        with pytest.raises(InvalidGraphError):
            g.cut_capacity({"s", "t"})
