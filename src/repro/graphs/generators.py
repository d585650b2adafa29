"""Graph generators for the families used throughout the paper.

Besides the standard families (paths, cycles, stars, complete graphs, grids,
hypercubes, random regular graphs) this module builds the two bespoke witness
constructions of the paper:

* :func:`figure9_graph` -- the connected 3-regular graph with no perfect
  matching of Figure 9 (Bondy & Murty, Figure 5.10), used in Theorem 17 to
  separate VV from VVc.
* :func:`odd_odd_gadget_pair` -- a graph whose two distinguished "white" nodes
  are bisimilar in the K-,- encoding yet must produce different outputs for the
  odd-odd-neighbours problem, used in Theorem 13 to separate SB from MB.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.graphs.graph import Graph, Node


def path_graph(n: int) -> Graph:
    """The path on ``n`` nodes ``0 - 1 - ... - (n-1)``."""
    if n < 0:
        raise ValueError("number of nodes must be non-negative")
    return Graph(nodes=range(n), edges=[(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """The cycle on ``n >= 3`` nodes."""
    if n < 3:
        raise ValueError("a cycle needs at least three nodes")
    return Graph(nodes=range(n), edges=[(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """The star ``K_{1,leaves}``: node ``0`` is the centre, ``1..leaves`` are leaves.

    Theorem 11 separates VB from SV with the problem of electing a single leaf
    in such a star.
    """
    if leaves < 1:
        raise ValueError("a star needs at least one leaf")
    return Graph(nodes=range(leaves + 1), edges=[(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    """The complete graph ``K_n``."""
    if n < 1:
        raise ValueError("a complete graph needs at least one node")
    return Graph(nodes=range(n), edges=[(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(m: int, n: int) -> Graph:
    """The complete bipartite graph ``K_{m,n}``; left nodes ``('L', i)``, right ``('R', j)``."""
    if m < 1 or n < 1:
        raise ValueError("both sides of a complete bipartite graph must be non-empty")
    left = [("L", i) for i in range(m)]
    right = [("R", j) for j in range(n)]
    return Graph(nodes=left + right, edges=[(u, v) for u in left for v in right])


def grid_graph(rows: int, cols: int) -> Graph:
    """The ``rows x cols`` grid graph with nodes ``(r, c)``."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    nodes = [(r, c) for r in range(rows) for c in range(cols)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                edges.append(((r, c), (r + 1, c)))
            if c + 1 < cols:
                edges.append(((r, c), (r, c + 1)))
    return Graph(nodes=nodes, edges=edges)


def circulant_graph(n: int, jumps: Sequence[int] = (1,)) -> Graph:
    """The circulant graph ``C_n(jumps)``: node ``i`` is adjacent to ``i ± j (mod n)``.

    Every jump must satisfy ``1 <= j <= n // 2``; the graph is
    ``2k``-regular for ``k`` distinct jumps (one edge less per node for the
    jump ``n/2`` when ``n`` is even).  ``C_n(1)`` is the cycle, ``C_n(1..n//2)``
    the complete graph.
    """
    if n < 3:
        raise ValueError("a circulant graph needs at least three nodes")
    jump_set = sorted(set(jumps))
    if not jump_set:
        raise ValueError("a circulant graph needs at least one jump")
    if any(j < 1 or j > n // 2 for j in jump_set):
        raise ValueError(f"jumps must lie in [1, {n // 2}] for n={n}; got {jump_set}")
    edges: set[frozenset[int]] = set()
    for i in range(n):
        for j in jump_set:
            edges.add(frozenset((i, (i + j) % n)))
    return Graph(nodes=range(n), edges=[tuple(sorted(edge)) for edge in edges])


def torus_graph(rows: int, cols: int) -> Graph:
    """The ``rows x cols`` torus (wraparound grid) with nodes ``(r, c)``.

    Both dimensions must be at least 3 so that the wraparound edges do not
    collapse into parallel edges; the result is 4-regular and vertex-transitive.
    """
    if rows < 3 or cols < 3:
        raise ValueError("torus dimensions must be at least 3 (smaller wraps collapse edges)")
    nodes = [(r, c) for r in range(rows) for c in range(cols)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            edges.append(((r, c), ((r + 1) % rows, c)))
            edges.append(((r, c), (r, (c + 1) % cols)))
    return Graph(nodes=nodes, edges=edges)


def random_tree(n: int, seed: int | None = None) -> Graph:
    """A uniformly random labelled tree on ``n`` nodes (via a Prüfer sequence).

    Seed-deterministic: the same ``(n, seed)`` always yields the same tree.
    """
    if n < 1:
        raise ValueError("a tree needs at least one node")
    if n == 1:
        return Graph(nodes=[0])
    if n == 2:
        return Graph(nodes=[0, 1], edges=[(0, 1)])
    rng = random.Random(seed)
    pruefer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for node in pruefer:
        degree[node] += 1
    edges: list[tuple[int, int]] = []
    # Standard Prüfer decoding: repeatedly join the smallest leaf to the next
    # sequence entry.  A heap keeps the leaf choice deterministic.
    import heapq

    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for node in pruefer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, node))
        degree[node] -= 1
        if degree[node] == 1:
            heapq.heappush(leaves, node)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(nodes=range(n), edges=edges)


def double_cover_graph(graph: Graph) -> Graph:
    """The bipartite double cover of ``graph`` (Lemma 15 / Figure 8).

    Thin wrapper over :func:`repro.graphs.covers.bipartite_double_cover` so
    the construction is available from the generator namespace (and the
    campaign graph-family registry) alongside the base families.  Nodes are
    ``(v, 1)`` / ``(v, 2)``; degrees are preserved.
    """
    from repro.graphs.covers import bipartite_double_cover

    return bipartite_double_cover(graph)


def random_lift(graph: Graph, k: int, seed: int | None = None) -> Graph:
    """A uniformly random ``k``-lift (``k``-fold covering graph) of ``graph``.

    Every node ``v`` becomes the fibre ``(v, 0), ..., (v, k-1)``; every edge
    ``{u, v}`` becomes the perfect matching ``(u, i) - (v, pi(i))`` for a
    permutation ``pi`` drawn independently per edge.  Degrees are preserved
    (the projection onto ``graph`` is a covering map), which is what makes
    lifts interesting scenario fodder: anonymous algorithms cannot tell a
    graph from its lifts.  Seed-deterministic; ``k = 2`` with the identity
    permutations replaced by swaps recovers double covers.
    """
    if k < 1:
        raise ValueError("a lift needs at least one sheet")
    rng = random.Random(seed)
    nodes = [(v, i) for v in graph.nodes for i in range(k)]
    edges = []
    for u, v in graph.edges:
        permutation = list(range(k))
        rng.shuffle(permutation)
        edges.extend(((u, i), (v, permutation[i])) for i in range(k))
    return Graph(nodes=nodes, edges=edges)


def hypercube_graph(dimension: int) -> Graph:
    """The ``dimension``-dimensional hypercube; nodes are bit tuples."""
    if dimension < 0:
        raise ValueError("dimension must be non-negative")
    nodes = [tuple((i >> b) & 1 for b in range(dimension)) for i in range(2**dimension)]
    edges = []
    for node in nodes:
        for b in range(dimension):
            other = tuple(bit ^ 1 if pos == b else bit for pos, bit in enumerate(node))
            if node < other:
                edges.append((node, other))
    return Graph(nodes=nodes, edges=edges)


def random_regular_graph(degree: int, n: int, seed: int | None = None) -> Graph:
    """A uniformly random simple ``degree``-regular graph on ``n`` nodes.

    Delegates to :func:`networkx.random_regular_graph`; ``degree * n`` must be
    even and ``degree < n``.
    """
    import networkx as nx

    nx_graph = nx.random_regular_graph(degree, n, seed=seed)
    return Graph(nodes=nx_graph.nodes(), edges=nx_graph.edges())


def random_graph(n: int, probability: float, seed: int | None = None) -> Graph:
    """An Erdos-Renyi ``G(n, p)`` graph."""
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < probability
    ]
    return Graph(nodes=range(n), edges=edges)


def random_bounded_degree_graph(n: int, max_degree: int, seed: int | None = None) -> Graph:
    """A random graph on ``n`` nodes whose maximum degree is at most ``max_degree``.

    Edges are inserted in a random order and kept whenever neither endpoint has
    reached the degree bound, so the output is a member of ``F(max_degree)``.
    """
    rng = random.Random(seed)
    candidates = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(candidates)
    degree = {i: 0 for i in range(n)}
    edges = []
    for u, v in candidates:
        if degree[u] < max_degree and degree[v] < max_degree:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    return Graph(nodes=range(n), edges=edges)


# ---------------------------------------------------------------------- #
# Paper-specific witness constructions
# ---------------------------------------------------------------------- #


def _matchless_gadget(tag: str) -> tuple[list[Node], list[tuple[Node, Node]], Node]:
    """One of the three 5-node gadgets of the Figure 9 graph.

    The gadget is ``K_4`` on ``{b, c, d, e}`` minus the edge ``b-c``, plus a
    connector node ``a`` adjacent to ``b`` and ``c``.  Inside the gadget the
    connector has degree 2 and every other node has degree 3, so attaching the
    connector to the central node makes the whole graph 3-regular.
    """
    a, b, c, d, e = ((tag, label) for label in "abcde")
    nodes = [a, b, c, d, e]
    edges = [(a, b), (a, c), (b, d), (b, e), (c, d), (c, e), (d, e)]
    return nodes, edges, a


def figure9_graph() -> Graph:
    """The 3-regular connected graph with no perfect matching of Figure 9.

    A central node ``'z'`` is joined to the connector of three identical
    5-node gadgets.  Removing ``'z'`` leaves three odd components, so by
    Tutte's theorem the graph has no 1-factor; it is the witness used in
    Theorem 17 to separate VV from VVc.
    """
    nodes: list[Node] = ["z"]
    edges: list[tuple[Node, Node]] = []
    for tag in ("g1", "g2", "g3"):
        gadget_nodes, gadget_edges, connector = _matchless_gadget(tag)
        nodes.extend(gadget_nodes)
        edges.extend(gadget_edges)
        edges.append(("z", connector))
    return Graph(nodes=nodes, edges=edges)


def odd_odd_gadget_pair() -> tuple[Graph, Node, Node]:
    """The Theorem 13 witness: a graph and two bisimilar nodes with different answers.

    Returns ``(graph, w1, w2)`` where

    * ``w1`` has exactly one odd-degree neighbour (so the odd-odd-neighbours
      problem demands output 1), and
    * ``w2`` has exactly two odd-degree neighbours (output 0),

    yet ``w1`` and ``w2`` are bisimilar in the K-,- encoding of the graph for
    every port numbering, because plain (non-graded) bisimulation cannot count
    successors.  The two nodes live in different connected components of the
    same graph, matching the paper's side-by-side illustration.
    """
    # Component A: w1 - one leaf neighbour (odd degree) and two degree-2 neighbours.
    component_a_edges = [
        (("A", "w"), ("A", "x1")),
        (("A", "w"), ("A", "y1")),
        (("A", "w"), ("A", "y2")),
        (("A", "y1"), ("A", "z1")),
        (("A", "y2"), ("A", "z2")),
    ]
    # Component B: w2 - two leaf neighbours (odd degree) and one degree-2 neighbour.
    component_b_edges = [
        (("B", "w"), ("B", "x1")),
        (("B", "w"), ("B", "x2")),
        (("B", "w"), ("B", "y1")),
        (("B", "y1"), ("B", "z1")),
    ]
    graph = Graph(edges=component_a_edges + component_b_edges)
    return graph, ("A", "w"), ("B", "w")
