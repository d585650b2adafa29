"""Matchings, 1-factors and exact vertex covers.

Lemma 15 of the paper relies on the classical fact that the edge set of a
``k``-regular bipartite graph decomposes into ``k`` disjoint perfect matchings
(1-factors); Lemma 16 and Theorem 17 rely on regular graphs *without* a
1-factor.  This module provides the matching machinery for both, plus an exact
minimum vertex cover used to measure approximation ratios in experiment E11.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from repro.graphs.graph import Graph, Node

Matching = frozenset[frozenset[Node]]


def _to_edge_set(edges: Iterable[tuple[Node, Node]]) -> Matching:
    return frozenset(frozenset(edge) for edge in edges)


def maximum_matching(graph: Graph) -> Matching:
    """A maximum-cardinality matching (as a set of 2-element frozensets)."""
    import networkx as nx

    nx_graph = graph.to_networkx()
    matching = nx.max_weight_matching(nx_graph, maxcardinality=True)
    return _to_edge_set(matching)


def has_perfect_matching(graph: Graph) -> bool:
    """Whether ``graph`` has a 1-factor.

    The Figure 9 graph is the paper's canonical example of a connected
    3-regular graph for which this returns ``False``.
    """
    if graph.number_of_nodes % 2 != 0:
        return False
    return len(maximum_matching(graph)) * 2 == graph.number_of_nodes


def one_factorisation(graph: Graph) -> list[Matching]:
    """Decompose a regular bipartite graph into disjoint 1-factors.

    By König's edge-colouring theorem (a corollary of Hall's marriage theorem,
    as invoked in Lemma 15), the edge set of every ``k``-regular bipartite
    graph is the union of ``k`` mutually disjoint perfect matchings.  The
    decomposition is computed by repeatedly extracting a perfect matching with
    Hopcroft-Karp and deleting it.

    Raises
    ------
    ValueError
        If the graph is not bipartite or not regular.
    """
    import networkx as nx

    if not graph.is_regular():
        raise ValueError("one_factorisation requires a regular graph")
    bipartition = graph.bipartition()
    if bipartition is None:
        raise ValueError("one_factorisation requires a bipartite graph")
    if not graph.nodes:
        return []
    k = graph.degree(graph.nodes[0])
    left, _right = bipartition
    factors: list[Matching] = []
    remaining = graph
    for _ in range(k):
        nx_graph = remaining.to_networkx()
        matching = nx.bipartite.hopcroft_karp_matching(nx_graph, top_nodes=set(left))
        factor = _to_edge_set(
            (u, v) for u, v in matching.items() if u in left
        )
        if len(factor) * 2 != graph.number_of_nodes:
            raise ValueError("graph is not regular bipartite; 1-factor extraction failed")
        factors.append(factor)
        remaining = remaining.remove_edges(tuple(edge) for edge in factor)
    if remaining.number_of_edges != 0:
        raise ValueError("leftover edges after extracting all 1-factors")
    return factors


# ---------------------------------------------------------------------- #
# Injections along an allowed relation (Hall's marriage theorem)
# ---------------------------------------------------------------------- #


def _hopcroft_karp_size(adjacency: list[list[int]], num_targets: int) -> int:
    """Size of a maximum matching of the bipartite graph ``adjacency``.

    ``adjacency[i]`` lists the target indices reachable from source ``i``.
    Pure-python Hopcroft-Karp: BFS builds layers from free sources, DFS
    augments along vertex-disjoint shortest paths, ``O(E * sqrt(V))`` total.
    """
    num_sources = len(adjacency)
    INF = num_sources + num_targets + 1
    match_source = [-1] * num_sources
    match_target = [-1] * num_targets
    distance = [0] * num_sources
    matched = 0
    while True:
        queue = []
        for i in range(num_sources):
            if match_source[i] == -1:
                distance[i] = 0
                queue.append(i)
            else:
                distance[i] = INF
        found_free_target = False
        head = 0
        while head < len(queue):
            i = queue[head]
            head += 1
            for j in adjacency[i]:
                partner = match_target[j]
                if partner == -1:
                    found_free_target = True
                elif distance[partner] == INF:
                    distance[partner] = distance[i] + 1
                    queue.append(partner)
        if not found_free_target:
            return matched

        def augment(root: int) -> bool:
            # Iterative DFS along the BFS layers (augmenting paths can be as
            # long as the vertex count, so recursion would overflow the
            # interpreter stack on large instances).  ``choices[k]`` is the
            # edge taken from stack level ``k`` into level ``k + 1``.
            stack = [(root, iter(adjacency[root]))]
            choices: list[tuple[int, int]] = []
            while stack:
                i, targets_iter = stack[-1]
                for j in targets_iter:
                    partner = match_target[j]
                    if partner == -1:
                        # Free target: flip every edge along the path.
                        match_source[i] = j
                        match_target[j] = i
                        for path_source, path_target in choices:
                            match_source[path_source] = path_target
                            match_target[path_target] = path_source
                        return True
                    if distance[partner] == distance[i] + 1:
                        choices.append((i, j))
                        stack.append((partner, iter(adjacency[partner])))
                        break
                else:
                    distance[i] = INF
                    stack.pop()
                    if choices:
                        choices.pop()
            return False

        for i in range(num_sources):
            if match_source[i] == -1 and augment(i):
                matched += 1


def injection_exists(
    sources: Iterable,
    targets: Iterable,
    allowed: "set[tuple]",
) -> bool:
    """Whether every source can be matched to a *distinct* allowed target.

    By Hall's marriage theorem this decides conditions B2*/B3* of graded
    bisimulations (Section 4.2): the subsets-of-successors quantifier holds
    iff the sources inject into the targets along the ``allowed`` relation.
    A greedy first-fit pass handles the common case where ``allowed``
    already pairs each source with a distinct target; only on a greedy
    conflict does the full Hopcroft-Karp matching run.
    """
    source_list = list(sources)
    target_list = list(targets)
    if len(source_list) > len(target_list):
        return False
    if not source_list:
        return True
    adjacency: list[list[int]] = []
    for source in source_list:
        row = [j for j, target in enumerate(target_list) if (source, target) in allowed]
        if not row:
            return False
        adjacency.append(row)
    # Greedy early exit: assign each source the first unused allowed target.
    used: set[int] = set()
    for row in adjacency:
        for j in row:
            if j not in used:
                used.add(j)
                break
        else:
            break
    else:
        return True
    return _hopcroft_karp_size(adjacency, len(target_list)) == len(adjacency)


# ---------------------------------------------------------------------- #
# Vertex covers
# ---------------------------------------------------------------------- #


def is_vertex_cover(graph: Graph, cover: Iterable[Node]) -> bool:
    """Whether ``cover`` touches every edge of ``graph``."""
    cover_set = set(cover)
    return all(u in cover_set or v in cover_set for u, v in graph.edges)


def minimum_vertex_cover(graph: Graph) -> frozenset[Node]:
    """An exact minimum vertex cover.

    Uses a bounded search over subsets seeded by the maximum-matching lower
    bound; intended for the small graphs of experiment E11 (tens of nodes with
    few edges), not for large instances.
    """
    if graph.number_of_edges == 0:
        return frozenset()
    lower_bound = len(maximum_matching(graph))
    # Only nodes incident to at least one edge can usefully appear in a cover.
    candidates = sorted(
        (node for node in graph.nodes if graph.degree(node) > 0),
        key=lambda node: -graph.degree(node),
    )
    for size in range(lower_bound, len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            if is_vertex_cover(graph, subset):
                return frozenset(subset)
    raise RuntimeError("unreachable: the full candidate set is always a cover")
