"""Unit tests for the graph generators, including the paper's witness graphs."""

from __future__ import annotations

import pytest

from repro.graphs.generators import (
    all_graphs_with_max_degree,
    circulant_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    double_cover_graph,
    figure9_graph,
    grid_graph,
    hypercube_graph,
    matchless_regular_graph,
    path_graph,
    random_bounded_degree_graph,
    random_graph,
    random_lift,
    random_regular_graph,
    random_tree,
    star_graph,
    torus_graph,
)
from repro.graphs.matching import has_perfect_matching
from repro.problems.separating import OddOddNeighbours


class TestStandardFamilies:
    def test_path(self):
        graph = path_graph(5)
        assert graph.number_of_edges == 4
        assert graph.degree(0) == 1 and graph.degree(2) == 2

    def test_path_degenerate(self):
        assert path_graph(0).number_of_nodes == 0
        assert path_graph(1).number_of_edges == 0
        with pytest.raises(ValueError):
            path_graph(-1)

    def test_cycle(self):
        graph = cycle_graph(6)
        assert graph.is_regular(2)
        assert graph.number_of_edges == 6
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_star(self):
        graph = star_graph(5)
        assert graph.degree(0) == 5
        assert all(graph.degree(leaf) == 1 for leaf in range(1, 6))
        with pytest.raises(ValueError):
            star_graph(0)

    def test_complete(self):
        graph = complete_graph(5)
        assert graph.is_regular(4)
        assert graph.number_of_edges == 10

    def test_complete_bipartite(self):
        graph = complete_bipartite_graph(2, 3)
        assert graph.number_of_edges == 6
        assert graph.is_bipartite()

    def test_grid(self):
        graph = grid_graph(3, 4)
        assert graph.number_of_nodes == 12
        assert graph.number_of_edges == 3 * 3 + 2 * 4
        assert graph.is_bipartite()

    def test_hypercube(self):
        graph = hypercube_graph(3)
        assert graph.number_of_nodes == 8
        assert graph.is_regular(3)
        assert graph.is_bipartite()

    def test_random_regular(self):
        graph = random_regular_graph(3, 8, seed=1)
        assert graph.is_regular(3)
        assert graph.number_of_nodes == 8

    def test_random_graph_probability_extremes(self):
        assert random_graph(5, 0.0, seed=1).number_of_edges == 0
        assert random_graph(5, 1.0, seed=1).number_of_edges == 10

    def test_random_bounded_degree_respects_bound(self):
        for seed in range(5):
            graph = random_bounded_degree_graph(15, 3, seed=seed)
            assert graph.max_degree() <= 3


class TestCampaignFamilies:
    """The scenario-diversity generators added for the campaign registry."""

    def test_circulant_is_cycle_for_jump_one(self):
        assert circulant_graph(6, (1,)) == cycle_graph(6)

    def test_circulant_regularity_and_port_count(self):
        graph = circulant_graph(10, (1, 3))
        assert graph.is_regular(4)
        # total port count = sum of degrees = 2 * |E|
        assert sum(graph.degrees().values()) == 2 * graph.number_of_edges == 40

    def test_circulant_half_jump_contributes_single_edge(self):
        graph = circulant_graph(8, (4,))
        assert graph.is_regular(1)

    def test_circulant_rejects_bad_jumps(self):
        with pytest.raises(ValueError):
            circulant_graph(8, (5,))
        with pytest.raises(ValueError):
            circulant_graph(8, ())

    def test_torus_is_four_regular(self):
        graph = torus_graph(3, 5)
        assert graph.number_of_nodes == 15
        assert graph.is_regular(4)
        assert graph.is_connected()
        assert sum(graph.degrees().values()) == 2 * graph.number_of_edges

    def test_torus_rejects_degenerate_wraps(self):
        with pytest.raises(ValueError):
            torus_graph(2, 5)

    def test_random_tree_is_a_tree(self):
        for n in (1, 2, 3, 9, 20):
            tree = random_tree(n, seed=7)
            assert tree.number_of_nodes == n
            assert tree.number_of_edges == n - 1 if n > 1 else tree.number_of_edges == 0
            assert tree.is_connected()

    def test_random_tree_seed_deterministic(self):
        assert random_tree(15, seed=3) == random_tree(15, seed=3)
        assert random_tree(15, seed=3) != random_tree(15, seed=4)

    def test_double_cover_preserves_degrees(self):
        base = star_graph(4)
        cover = double_cover_graph(base)
        assert cover.number_of_nodes == 2 * base.number_of_nodes
        assert cover.is_bipartite()
        for node in base.nodes:
            assert cover.degree((node, 1)) == base.degree(node)
            assert cover.degree((node, 2)) == base.degree(node)

    def test_random_lift_preserves_degrees(self):
        base = circulant_graph(6, (1, 2))
        lift = random_lift(base, 3, seed=11)
        assert lift.number_of_nodes == 3 * base.number_of_nodes
        assert lift.number_of_edges == 3 * base.number_of_edges
        for node in base.nodes:
            for sheet in range(3):
                assert lift.degree((node, sheet)) == base.degree(node)

    def test_random_lift_seed_deterministic(self):
        base = cycle_graph(5)
        assert random_lift(base, 2, seed=9) == random_lift(base, 2, seed=9)


class TestFigure9Graph:
    def test_structure(self):
        graph = figure9_graph()
        assert graph.number_of_nodes == 16
        assert graph.is_regular(3)
        assert graph.is_connected()

    def test_no_perfect_matching(self):
        assert not has_perfect_matching(figure9_graph())

    def test_removing_centre_leaves_three_odd_components(self):
        graph = figure9_graph()
        without_centre = graph.subgraph(node for node in graph.nodes if node != "z")
        components = without_centre.connected_components()
        assert len(components) == 3
        assert all(len(component) % 2 == 1 for component in components)

    def test_generalisation_requires_odd_copies(self):
        with pytest.raises(ValueError):
            matchless_regular_graph(4)
        graph = matchless_regular_graph(5)
        assert graph.is_connected()
        assert not has_perfect_matching(graph)


class TestOddOddGadget:
    def test_witnesses_have_same_degree(self, odd_odd_witness):
        graph, first, second = odd_odd_witness
        assert graph.degree(first) == graph.degree(second) == 3

    def test_witnesses_require_different_outputs(self, odd_odd_witness):
        graph, first, second = odd_odd_witness
        problem = OddOddNeighbours()
        assert problem.expected_output(graph, first) != problem.expected_output(graph, second)

    def test_graph_has_two_components(self, odd_odd_witness):
        graph, _, _ = odd_odd_witness
        assert len(graph.connected_components()) == 2
        assert graph.max_degree() == 3


class TestExhaustiveEnumeration:
    def test_all_graphs_small(self):
        graphs = all_graphs_with_max_degree(3, 2)
        # 8 graphs on 3 labelled nodes; the triangle has max degree 2, so all qualify.
        assert len(graphs) == 8

    def test_all_graphs_respect_bound(self):
        for graph in all_graphs_with_max_degree(4, 1):
            assert graph.max_degree() <= 1
