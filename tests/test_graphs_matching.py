"""Unit tests for matchings, 1-factorisations and vertex covers."""

from __future__ import annotations

import itertools

import pytest

from repro.graphs.covers import bipartite_double_cover
from repro.graphs.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    figure9_graph,
    grid_graph,
    path_graph,
    random_graph,
    random_tree,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.matching import (
    injection_exists,
    has_perfect_matching,
    is_vertex_cover,
    maximum_matching,
    minimum_vertex_cover,
    one_factorisation,
)


class TestMatchings:
    def test_maximum_matching_path(self):
        assert len(maximum_matching(path_graph(4))) == 2
        assert len(maximum_matching(path_graph(5))) == 2

    def test_maximum_matching_is_a_matching(self):
        graph = grid_graph(3, 3)
        matching = maximum_matching(graph)
        endpoints = [node for edge in matching for node in edge]
        assert all(graph.has_edge(*edge) for edge in matching)
        assert len(endpoints) == len(set(endpoints))


class TestPerfectMatchings:
    def test_even_cycle_has_perfect_matching(self):
        assert has_perfect_matching(cycle_graph(6))

    def test_odd_number_of_nodes_has_none(self):
        assert not has_perfect_matching(cycle_graph(5))

    def test_star_has_none(self):
        assert not has_perfect_matching(star_graph(3))

    def test_figure9_has_none(self):
        assert not has_perfect_matching(figure9_graph())


class TestOneFactorisation:
    @pytest.mark.parametrize(
        "graph",
        [complete_bipartite_graph(3, 3), cycle_graph(6), bipartite_double_cover(cycle_graph(5))],
        ids=["K33", "C6", "double-cover-C5"],
    )
    def test_factors_partition_the_edges(self, graph):
        factors = one_factorisation(graph)
        degree = graph.degree(graph.nodes[0])
        assert len(factors) == degree
        all_edges = [edge for factor in factors for edge in factor]
        assert len(all_edges) == graph.number_of_edges
        assert len(set(all_edges)) == graph.number_of_edges
        for factor in factors:
            endpoints = sorted(node for edge in factor for node in edge)
            assert all(graph.has_edge(*edge) for edge in factor)
            assert endpoints == sorted(graph.nodes)

    def test_double_cover_of_figure9_is_factorisable(self):
        double = bipartite_double_cover(figure9_graph())
        factors = one_factorisation(double)
        assert len(factors) == 3

    def test_requires_regularity(self):
        with pytest.raises(ValueError):
            one_factorisation(star_graph(3))

    def test_requires_bipartiteness(self):
        with pytest.raises(ValueError):
            one_factorisation(complete_graph(4))


class TestInjectionExists:
    """The Hall-condition helper behind graded-bisimulation certificates."""

    def test_empty_sources_always_inject(self):
        assert injection_exists((), (), set())
        assert injection_exists((), ("t",), set())

    def test_more_sources_than_targets_never_inject(self):
        assert not injection_exists(("a", "b"), ("t",), {("a", "t"), ("b", "t")})

    def test_distinct_pairing_found_greedily(self):
        allowed = {("a", "x"), ("b", "y"), ("c", "z")}
        assert injection_exists(("a", "b", "c"), ("x", "y", "z"), allowed)

    def test_greedy_conflict_resolved_by_matching(self):
        # Greedy first-fit assigns a->x, then b has only x left and fails;
        # the augmenting path a->y frees x for b.
        allowed = {("a", "x"), ("a", "y"), ("b", "x")}
        assert injection_exists(("a", "b"), ("x", "y"), allowed)

    def test_hall_violation_detected(self):
        # Both sources are only allowed the single target x.
        allowed = {("a", "x"), ("b", "x")}
        assert not injection_exists(("a", "b"), ("x", "y"), allowed)

    def test_source_with_no_allowed_target_fails_fast(self):
        assert not injection_exists(("a", "b"), ("x", "y"), {("a", "x")})

    def test_deep_augmenting_path_does_not_overflow_the_stack(self):
        # s_i may use {t_i, t_{i+1}} except the last source, which only
        # accepts t_0: the single augmenting path re-threads every source,
        # so its length equals the instance size (beyond the default
        # recursion limit for a recursive matcher).
        size = 2500
        sources = tuple(f"s{i}" for i in range(size))
        targets = tuple(f"t{j}" for j in range(size))
        allowed = {(f"s{i}", f"t{i}") for i in range(size - 1)}
        allowed |= {(f"s{i}", f"t{i + 1}") for i in range(size - 1)}
        allowed.add((f"s{size - 1}", "t0"))
        assert injection_exists(sources, targets, allowed)
        # Removing the chain's final free target makes the instance infeasible.
        infeasible = {pair for pair in allowed if pair[1] != f"t{size - 1}"}
        assert not injection_exists(sources, targets, infeasible)

    def test_agrees_with_networkx_matching_on_random_instances(self):
        import itertools
        import random

        import networkx as nx

        for seed in range(30):
            rng = random.Random(seed)
            sources = tuple(f"s{i}" for i in range(rng.randrange(0, 5)))
            targets = tuple(f"t{j}" for j in range(rng.randrange(0, 6)))
            allowed = {
                (s, t)
                for s, t in itertools.product(sources, targets)
                if rng.random() < 0.4
            }
            graph = nx.Graph()
            graph.add_nodes_from(sources, bipartite=0)
            graph.add_nodes_from(targets, bipartite=1)
            graph.add_edges_from(allowed)
            matching = nx.bipartite.maximum_matching(graph, top_nodes=sources)
            matched = sum(1 for node in matching if node in sources)
            assert injection_exists(sources, targets, allowed) == (
                matched == len(sources)
            ), (sources, targets, allowed)


class TestVertexCovers:
    def test_is_vertex_cover(self):
        graph = path_graph(4)
        assert is_vertex_cover(graph, {1, 2})
        assert not is_vertex_cover(graph, {0, 3})

    def test_minimum_vertex_cover_sizes(self):
        assert len(minimum_vertex_cover(path_graph(4))) == 2
        assert len(minimum_vertex_cover(star_graph(5))) == 1
        assert len(minimum_vertex_cover(cycle_graph(5))) == 3
        assert len(minimum_vertex_cover(complete_graph(4))) == 3

    def test_minimum_vertex_cover_empty_graph(self):
        assert minimum_vertex_cover(Graph(nodes=[1, 2, 3])) == frozenset()

    def test_minimum_cover_is_a_cover(self):
        graph = grid_graph(2, 3)
        assert is_vertex_cover(graph, minimum_vertex_cover(graph))


def _largest_matching_size(edges: list) -> int:
    """The size of a maximum matching among ``edges``, by include/exclude branching."""
    if not edges:
        return 0
    (u, v), rest = edges[0], edges[1:]
    disjoint = [edge for edge in rest if u not in edge and v not in edge]
    return max(_largest_matching_size(rest), 1 + _largest_matching_size(disjoint))


def _smallest_cover_size(graph: Graph) -> int:
    """The size of a minimum vertex cover, by trying every node subset."""
    for size in range(graph.number_of_nodes + 1):
        for subset in itertools.combinations(graph.nodes, size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in graph.edges):
                return size
    raise AssertionError("the full node set is always a cover")


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    def test_maximum_matching_is_maximum(self, seed):
        graph = random_graph(8, 0.4, seed=seed)
        matching = maximum_matching(graph)
        endpoints = [node for edge in matching for node in edge]
        assert all(graph.has_edge(*edge) for edge in matching)
        assert len(endpoints) == len(set(endpoints))
        assert len(matching) == _largest_matching_size(list(graph.edges))

    @pytest.mark.parametrize("seed", range(8))
    def test_minimum_vertex_cover_is_minimum(self, seed):
        graph = random_graph(8, 0.4, seed=seed)
        cover = minimum_vertex_cover(graph)
        assert is_vertex_cover(graph, cover)
        assert len(cover) == _smallest_cover_size(graph)

    @pytest.mark.parametrize(
        "graph",
        [
            path_graph(5),
            cycle_graph(6),
            grid_graph(2, 3),
            grid_graph(3, 3),
            complete_bipartite_graph(2, 3),
            star_graph(4),
            bipartite_double_cover(cycle_graph(5)),
            random_tree(9, seed=0),
        ],
        ids=["P5", "C6", "grid2x3", "grid3x3", "K23", "star4", "double-cover-C5", "tree9"],
    )
    def test_konig_cover_equals_matching_on_bipartite_graphs(self, graph):
        assert graph.bipartition() is not None
        assert len(minimum_vertex_cover(graph)) == len(maximum_matching(graph))
