"""Simple undirected graphs of bounded degree.

The paper works with the family ``F(Delta)`` of simple undirected graphs whose
maximum degree is at most ``Delta`` (Section 1.1).  :class:`Graph` is the
concrete representation used throughout the library: an immutable value object
with hashable node labels and an adjacency structure whose neighbour order is
deterministic (sorted by the node sort key), so that every derived object --
port numberings, executions, Kripke models -- is reproducible.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Any

Node = Hashable
Edge = tuple[Node, Node]


def _sort_key(node: Node) -> tuple[str, str]:
    """Deterministic sort key for possibly heterogeneous node labels."""
    return (type(node).__name__, repr(node))


class Graph:
    """An immutable simple undirected graph.

    Parameters
    ----------
    nodes:
        Iterable of hashable node labels.  Nodes mentioned only in ``edges``
        are added automatically.
    edges:
        Iterable of unordered pairs ``(u, v)`` with ``u != v``.  Parallel
        edges are collapsed; self-loops raise :class:`ValueError`.

    Examples
    --------
    >>> g = Graph(nodes=[1, 2, 3], edges=[(1, 2), (2, 3)])
    >>> g.degree(2)
    2
    >>> sorted(g.neighbors(2))
    [1, 3]
    """

    # ``__weakref__`` lets the execution engine keep a weak per-graph cache of
    # compiled topology (repro.execution.engine) without pinning graphs alive;
    # ``_default_compiled`` caches the compiled instance for the canonical
    # consistent numbering directly on the graph (owned by the engine), and
    # ``_numberings`` memoizes the adversary's exhaustive enumerations, keyed
    # by ``consistent_only`` (owned by repro.execution.adversary).  Every
    # numbering refers back to its graph, so only a slot gives these caches
    # exactly the graph's lifetime; both are process-local and never pickled.
    __slots__ = (
        "_adjacency", "_nodes", "_edges", "_hash", "_default_compiled", "_numberings",
        "__weakref__",
    )

    def __init__(
        self,
        nodes: Iterable[Node] = (),
        edges: Iterable[tuple[Node, Node]] = (),
    ) -> None:
        adjacency: dict[Node, set[Node]] = {node: set() for node in nodes}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on node {u!r} is not allowed in a simple graph")
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        self._nodes: tuple[Node, ...] = tuple(sorted(adjacency, key=_sort_key))
        self._adjacency: dict[Node, tuple[Node, ...]] = {
            node: tuple(sorted(adjacency[node], key=_sort_key)) for node in self._nodes
        }
        seen: set[frozenset[Node]] = set()
        edge_list: list[Edge] = []
        for u in self._nodes:
            for v in self._adjacency[u]:
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    edge_list.append((u, v))
        self._edges: tuple[Edge, ...] = tuple(edge_list)
        self._hash: int | None = None
        self._default_compiled: Any = None
        self._numberings: dict[bool, tuple[Any, ...]] | None = None

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> tuple[Node, ...]:
        """All nodes, in deterministic order."""
        return self._nodes

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All edges, each reported once, in deterministic order."""
        return self._edges

    @property
    def number_of_nodes(self) -> int:
        return len(self._nodes)

    @property
    def number_of_edges(self) -> int:
        return len(self._edges)

    def neighbors(self, node: Node) -> tuple[Node, ...]:
        """Neighbours of ``node`` in deterministic order."""
        try:
            return self._adjacency[node]
        except KeyError:
            raise KeyError(f"node {node!r} is not in the graph") from None

    def degree(self, node: Node) -> int:
        """Degree of ``node``."""
        return len(self.neighbors(node))

    def max_degree(self) -> int:
        """The maximum degree ``Delta`` of the graph (0 for the empty graph)."""
        if not self._nodes:
            return 0
        return max(len(self._adjacency[node]) for node in self._nodes)

    def has_node(self, node: Node) -> bool:
        return node in self._adjacency

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._adjacency and v in self._adjacency[u]

    def degrees(self) -> dict[Node, int]:
        """Mapping of every node to its degree."""
        return {node: len(self._adjacency[node]) for node in self._nodes}

    # ------------------------------------------------------------------ #
    # Structural predicates
    # ------------------------------------------------------------------ #

    def is_regular(self, k: int | None = None) -> bool:
        """Whether every node has the same degree (equal to ``k`` if given)."""
        if not self._nodes:
            return True
        degrees = {self.degree(node) for node in self._nodes}
        if len(degrees) != 1:
            return False
        if k is None:
            return True
        return degrees == {k}

    def is_connected(self) -> bool:
        """Whether the graph is connected (the empty graph counts as connected)."""
        if not self._nodes:
            return True
        seen = {self._nodes[0]}
        frontier = [self._nodes[0]]
        while frontier:
            node = frontier.pop()
            for neighbour in self._adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == len(self._nodes)

    def connected_components(self) -> list[frozenset[Node]]:
        """The connected components as frozensets of nodes."""
        remaining = set(self._nodes)
        components: list[frozenset[Node]] = []
        while remaining:
            start = next(iter(remaining))
            seen = {start}
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for neighbour in self._adjacency[node]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        frontier.append(neighbour)
            components.append(frozenset(seen))
            remaining -= seen
        return components

    def is_eulerian(self) -> bool:
        """Whether the graph has an Eulerian circuit.

        Per the standard definition used by the paper's example (Section 1.4):
        connected (ignoring isolated nodes) and every node has even degree.
        """
        non_isolated = [node for node in self._nodes if self.degree(node) > 0]
        if not non_isolated:
            return True
        if any(self.degree(node) % 2 != 0 for node in non_isolated):
            return False
        seen = {non_isolated[0]}
        frontier = [non_isolated[0]]
        while frontier:
            node = frontier.pop()
            for neighbour in self._adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return set(non_isolated) <= seen

    def is_bipartite(self) -> bool:
        """Whether the graph is 2-colourable."""
        return self.bipartition() is not None

    def bipartition(self) -> tuple[frozenset[Node], frozenset[Node]] | None:
        """A 2-colouring as a pair of node sets, or ``None`` if not bipartite."""
        colour: dict[Node, int] = {}
        for start in self._nodes:
            if start in colour:
                continue
            colour[start] = 0
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for neighbour in self._adjacency[node]:
                    if neighbour not in colour:
                        colour[neighbour] = 1 - colour[node]
                        frontier.append(neighbour)
                    elif colour[neighbour] == colour[node]:
                        return None
        left = frozenset(node for node, c in colour.items() if c == 0)
        right = frozenset(node for node, c in colour.items() if c == 1)
        return left, right

    def distance(self, source: Node, target: Node) -> int | None:
        """Length of a shortest path between two nodes, or ``None`` if disconnected."""
        if source == target:
            return 0
        seen = {source}
        frontier = [source]
        dist = 0
        while frontier:
            dist += 1
            next_frontier: list[Node] = []
            for node in frontier:
                for neighbour in self._adjacency[node]:
                    if neighbour == target:
                        return dist
                    if neighbour not in seen:
                        seen.add(neighbour)
                        next_frontier.append(neighbour)
            frontier = next_frontier
        return None

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #

    def subgraph(self, keep: Iterable[Node]) -> "Graph":
        """The induced subgraph on the given nodes."""
        keep_set = set(keep)
        missing = keep_set - set(self._nodes)
        if missing:
            raise KeyError(f"nodes {sorted(missing, key=_sort_key)!r} are not in the graph")
        edges = [(u, v) for u, v in self._edges if u in keep_set and v in keep_set]
        return Graph(nodes=keep_set, edges=edges)

    def remove_edges(self, edges: Iterable[tuple[Node, Node]]) -> "Graph":
        """A copy of the graph with the given edges removed."""
        removed = {frozenset(edge) for edge in edges}
        kept = [(u, v) for u, v in self._edges if frozenset((u, v)) not in removed]
        return Graph(nodes=self._nodes, edges=kept)

    def relabel(self, mapping: Mapping[Node, Node]) -> "Graph":
        """A copy of the graph with nodes relabelled through ``mapping``.

        Nodes missing from ``mapping`` keep their labels.  The mapping must be
        injective on the node set.
        """
        new_label = {node: mapping.get(node, node) for node in self._nodes}
        if len(set(new_label.values())) != len(new_label):
            raise ValueError("relabelling is not injective on the node set")
        return Graph(
            nodes=new_label.values(),
            edges=[(new_label[u], new_label[v]) for u, v in self._edges],
        )

    def disjoint_union(self, other: "Graph") -> "Graph":
        """Disjoint union; nodes are tagged with 0 (self) and 1 (other)."""
        nodes = [(0, node) for node in self._nodes] + [(1, node) for node in other.nodes]
        edges = [((0, u), (0, v)) for u, v in self._edges]
        edges += [((1, u), (1, v)) for u, v in other.edges]
        return Graph(nodes=nodes, edges=edges)

    # ------------------------------------------------------------------ #
    # Interoperability
    # ------------------------------------------------------------------ #

    def to_networkx(self) -> Any:
        """Convert to a :class:`networkx.Graph` (isolated nodes preserved)."""
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(self._nodes)
        nx_graph.add_edges_from(self._edges)
        return nx_graph

    @classmethod
    def from_networkx(cls, nx_graph: Any) -> "Graph":
        """Build a :class:`Graph` from a :class:`networkx.Graph`."""
        return cls(nodes=nx_graph.nodes(), edges=nx_graph.edges())

    # ------------------------------------------------------------------ #
    # Value-object protocol
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> dict[str, Any]:
        # Engine caches are process-local; keep pickled payloads lean.
        return {
            "_adjacency": self._adjacency,
            "_nodes": self._nodes,
            "_edges": self._edges,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._adjacency = state["_adjacency"]
        self._nodes = state["_nodes"]
        self._edges = state["_edges"]
        self._hash = None
        self._default_compiled = None
        self._numberings = None

    def __contains__(self, node: Node) -> bool:
        return node in self._adjacency

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._nodes == other._nodes and self._adjacency == other._adjacency

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._nodes, self._edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(nodes={len(self._nodes)}, edges={len(self._edges)})"
