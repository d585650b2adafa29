"""Unit tests for double covers and symmetric port numberings."""

from __future__ import annotations

import pytest

from repro.graphs.covers import bipartite_double_cover, symmetric_port_numbering
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    figure9_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    star_graph,
)
from repro.logic.bisimulation import bisimilar_within
from repro.modal.encoding import KripkeVariant, kripke_encoding


#: Connected base graphs, bipartite and not, for the covering-map checks.
BASES = [
    path_graph(4),
    star_graph(3),
    cycle_graph(5),
    cycle_graph(6),
    complete_graph(4),
    grid_graph(2, 3),
    figure9_graph(),
]
BASE_IDS = ["P4", "star3", "C5", "C6", "K4", "grid2x3", "figure9"]


class TestBipartiteDoubleCover:
    @pytest.mark.parametrize("graph", BASES, ids=BASE_IDS)
    def test_projection_is_a_covering_map(self, graph):
        """``(v, side) -> v`` maps each neighbourhood one-to-one onto ``v``'s."""
        double = bipartite_double_cover(graph)
        assert double.number_of_nodes == 2 * graph.number_of_nodes
        assert double.number_of_edges == 2 * graph.number_of_edges
        assert double.bipartition() is not None
        for v in graph.nodes:
            for side in (1, 2):
                lifted = double.neighbors((v, side))
                assert {other for _, other in lifted} == {3 - side}
                projected = [u for u, _ in lifted]
                assert len(projected) == len(set(projected)) == graph.degree(v)
                assert set(projected) == set(graph.neighbors(v))

    @pytest.mark.parametrize("graph", BASES, ids=BASE_IDS)
    def test_cover_is_connected_iff_base_is_not_bipartite(self, graph):
        assert graph.is_connected()
        components = bipartite_double_cover(graph).connected_components()
        if graph.bipartition() is None:
            assert len(components) == 1
        else:
            # Two components, each holding exactly one lift of every node.
            assert len(components) == 2
            for component in components:
                projected = [v for v, _ in component]
                assert len(projected) == graph.number_of_nodes
                assert set(projected) == set(graph.nodes)

    def test_node_and_edge_counts(self):
        graph = cycle_graph(5)
        double = bipartite_double_cover(graph)
        assert double.number_of_nodes == 2 * graph.number_of_nodes
        assert double.number_of_edges == 2 * graph.number_of_edges

    def test_double_cover_is_bipartite_and_regular(self):
        double = bipartite_double_cover(complete_graph(4))
        assert double.bipartition() is not None
        assert double.is_regular(3)

    def test_double_cover_of_odd_cycle_is_even_cycle(self):
        double = bipartite_double_cover(cycle_graph(5))
        assert double.is_connected()
        assert double.is_regular(2)
        assert double.number_of_nodes == 10


class TestSymmetricPortNumbering:
    @pytest.mark.parametrize(
        "graph",
        [cycle_graph(4), cycle_graph(5), complete_graph(4), hypercube_graph(3), figure9_graph()],
        ids=["C4", "C5", "K4", "Q3", "figure9"],
    )
    def test_all_nodes_bisimilar_in_full_encoding(self, graph):
        numbering = symmetric_port_numbering(graph)
        encoding = kripke_encoding(graph, numbering, variant=KripkeVariant.FULL)
        assert bisimilar_within(encoding, graph.nodes)

    def test_diagonal_relations_only(self):
        graph = complete_graph(4)
        numbering = symmetric_port_numbering(graph)
        encoding = kripke_encoding(graph, numbering, variant=KripkeVariant.FULL)
        for i, j in encoding.indices:
            pairs = encoding.relation((i, j))
            if i == j:
                assert len(pairs) == graph.number_of_nodes
            else:
                assert pairs == frozenset()

    def test_requires_regular_graph(self):
        with pytest.raises(ValueError):
            symmetric_port_numbering(star_graph(3))

    def test_matchless_graph_numbering_is_inconsistent(self):
        assert not symmetric_port_numbering(figure9_graph()).is_consistent()

    def test_even_cycle_numbering_is_valid_port_numbering(self):
        graph = cycle_graph(6)
        numbering = symmetric_port_numbering(graph)
        mapping = numbering.as_mapping()
        assert set(mapping.values()) == set(numbering.ports())
