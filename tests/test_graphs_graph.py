"""Unit tests for the Graph value object."""

from __future__ import annotations

import pytest

from repro.graphs.graph import Graph
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    star_graph,
)


class TestConstruction:
    def test_nodes_and_edges_are_deduplicated(self):
        graph = Graph(nodes=[1, 2, 2], edges=[(1, 2), (2, 1), (1, 2)])
        assert graph.number_of_nodes == 2
        assert graph.number_of_edges == 1

    def test_nodes_only_in_edges_are_added(self):
        graph = Graph(edges=[(1, 2), (2, 3)])
        assert set(graph.nodes) == {1, 2, 3}

    def test_self_loops_are_rejected(self):
        with pytest.raises(ValueError):
            Graph(edges=[(1, 1)])

    def test_isolated_nodes_are_kept(self):
        graph = Graph(nodes=[1, 2, 3], edges=[(1, 2)])
        assert graph.degree(3) == 0
        assert 3 in graph

    def test_empty_graph(self):
        graph = Graph()
        assert graph.number_of_nodes == 0
        assert graph.max_degree() == 0
        assert graph.is_connected()


class TestQueries:
    def test_degree_and_neighbors(self):
        graph = star_graph(4)
        assert graph.degree(0) == 4
        assert graph.degree(1) == 1
        assert set(graph.neighbors(0)) == {1, 2, 3, 4}

    def test_neighbors_of_unknown_node_raises(self):
        with pytest.raises(KeyError):
            path_graph(3).neighbors(99)

    def test_max_degree(self):
        assert star_graph(5).max_degree() == 5
        assert cycle_graph(6).max_degree() == 2
        assert path_graph(1).max_degree() == 0

    def test_degrees_mapping(self):
        degrees = path_graph(3).degrees()
        assert degrees == {0: 1, 1: 2, 2: 1}

    def test_has_edge_is_symmetric(self):
        graph = path_graph(3)
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0)
        assert not graph.has_edge(0, 2)


class TestPredicates:
    def test_regularity(self):
        assert cycle_graph(5).is_regular()
        assert cycle_graph(5).is_regular(2)
        assert not cycle_graph(5).is_regular(3)
        assert not star_graph(3).is_regular()
        assert complete_graph(4).is_regular(3)

    def test_connectivity(self):
        assert path_graph(5).is_connected()
        two_components = Graph(edges=[(0, 1), (2, 3)])
        assert not two_components.is_connected()
        assert len(two_components.connected_components()) == 2

    def test_bipartite(self):
        assert path_graph(4).bipartition() is not None
        assert cycle_graph(4).bipartition() is not None
        assert cycle_graph(5).bipartition() is None
        left, right = grid_graph(2, 3).bipartition()
        assert len(left) + len(right) == 6

    def test_bipartition_is_proper(self):
        graph = hypercube_graph(3)
        left, right = graph.bipartition()
        for u, v in graph.edges:
            assert (u in left) != (v in left)


class TestDerivedGraphs:
    def test_subgraph(self):
        graph = complete_graph(4)
        sub = graph.subgraph([0, 1, 2])
        assert sub.number_of_nodes == 3
        assert sub.number_of_edges == 3

    def test_subgraph_unknown_node(self):
        with pytest.raises(KeyError):
            path_graph(3).subgraph([0, 7])

    def test_remove_edges(self):
        graph = cycle_graph(4).remove_edges([(0, 1)])
        assert graph.number_of_edges == 3
        assert not graph.has_edge(0, 1)


class TestValueSemantics:
    def test_equality_ignores_construction_order(self):
        first = Graph(nodes=[1, 2, 3], edges=[(1, 2), (2, 3)])
        second = Graph(nodes=[3, 2, 1], edges=[(3, 2), (2, 1)])
        assert first == second
        assert hash(first) == hash(second)

    def test_inequality(self):
        assert path_graph(3) != cycle_graph(3)

    def test_len_and_iter(self):
        graph = star_graph(3)
        assert len(graph) == 4
        assert set(iter(graph)) == set(graph.nodes)

    def test_networkx_round_trip(self):
        graph = grid_graph(2, 2)
        nx_graph = graph.to_networkx()
        assert Graph(nodes=nx_graph.nodes(), edges=nx_graph.edges()) == graph

    def test_repr(self):
        assert "Graph" in repr(path_graph(2))
