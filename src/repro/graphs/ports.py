"""Port numberings (Section 1.2 of the paper).

A *port* of a graph ``G`` is a pair ``(v, i)`` with ``i in [deg(v)]``.  A port
numbering is a bijection ``p`` on the set of ports such that the induced
relation ``A(p)`` equals the adjacency relation of ``G``: if node ``v`` sends a
message to its port ``(v, i)`` and ``p((v, i)) = (u, j)``, the message is
received by the neighbour ``u`` through its port ``(u, j)``.

Equivalently (and this is the representation used here) a port numbering is a
pair of families of bijections, one per node:

* ``outgoing[v]`` -- which neighbour each *output* port of ``v`` leads to, and
* ``incoming[v]`` -- which neighbour each *input* port of ``v`` listens to.

A port numbering is *consistent* when ``p`` is an involution
(``p(p((v, i))) = (v, i)``), i.e. output port ``i`` and input port ``i`` of a
node are attached to the same neighbour on both ends (Figure 2).
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator, Mapping, Sequence

from repro.graphs.graph import Graph, Node

Port = tuple[Node, int]


class PortNumbering:
    """A port numbering of a graph.

    Parameters
    ----------
    graph:
        The underlying graph.
    outgoing:
        For every node ``v``, a sequence of its neighbours; position ``i - 1``
        holds the neighbour reached through output port ``i``.
    incoming:
        For every node ``v``, a sequence of its neighbours; position ``j - 1``
        holds the neighbour whose messages arrive through input port ``j``.
        When omitted, ``incoming`` defaults to ``outgoing``, which yields a
        consistent port numbering.
    """

    # ``_compiled_instance`` is a cache slot owned by the execution engine
    # (repro.execution.engine): compiling a numbering into flat delivery
    # arrays is pure, so the result can live with the numbering itself.
    __slots__ = ("_graph", "_outgoing", "_incoming", "_incoming_index", "_compiled_instance")

    def __init__(
        self,
        graph: Graph,
        outgoing: Mapping[Node, Sequence[Node]],
        incoming: Mapping[Node, Sequence[Node]] | None = None,
    ) -> None:
        self._graph = graph
        self._outgoing = {node: tuple(outgoing.get(node, ())) for node in graph.nodes}
        if incoming is None:
            self._incoming = dict(self._outgoing)
        else:
            self._incoming = {node: tuple(incoming.get(node, ())) for node in graph.nodes}
        self._validate()
        self._compiled_instance = None
        self._incoming_index = {
            node: {neighbour: j + 1 for j, neighbour in enumerate(self._incoming[node])}
            for node in graph.nodes
        }

    def _validate(self) -> None:
        for node in self._graph.nodes:
            neighbours = set(self._graph.neighbors(node))
            for label, family in (("outgoing", self._outgoing), ("incoming", self._incoming)):
                assignment = family.get(node)
                if not assignment and neighbours:
                    raise ValueError(f"node {node!r} has no {label} port assignment")
                if len(assignment) != len(neighbours) or set(assignment) != neighbours:
                    raise ValueError(
                        f"{label} ports of node {node!r} must enumerate its neighbours "
                        f"exactly once; got {assignment!r}"
                    )

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> Graph:
        return self._graph

    def ports(self) -> list[Port]:
        """All ports ``(v, i)`` of the graph, in deterministic order."""
        return [
            (node, i)
            for node in self._graph.nodes
            for i in range(1, self._graph.degree(node) + 1)
        ]

    def apply(self, node: Node, out_port: int) -> Port:
        """``p((node, out_port))``: the input port that receives from this output port."""
        target = self._outgoing[node][out_port - 1]
        return target, self._incoming_index[target][node]

    def inverse(self, node: Node, in_port: int) -> Port:
        """``p^{-1}((node, in_port))``: the output port whose messages arrive here."""
        source = self._incoming[node][in_port - 1]
        out_port = self._outgoing[source].index(node) + 1
        return source, out_port

    def __call__(self, port: Port) -> Port:
        node, out_port = port
        return self.apply(node, out_port)

    def outgoing_port(self, node: Node, neighbour: Node) -> int:
        """``pi(node, neighbour)``: the output port of ``node`` leading to ``neighbour``."""
        return self._outgoing[node].index(neighbour) + 1

    # ------------------------------------------------------------------ #
    # Structural properties
    # ------------------------------------------------------------------ #

    def is_consistent(self) -> bool:
        """Whether ``p`` is an involution (Section 1.2)."""
        for port in self.ports():
            if self(self(port)) != port:
                return False
        return True

    def as_mapping(self) -> dict[Port, Port]:
        """The port numbering as an explicit mapping ``{(v, i): p((v, i))}``."""
        return {port: self(port) for port in self.ports()}

    def outgoing_assignment(self) -> dict[Node, tuple[Node, ...]]:
        """The per-node output-port assignment (copy)."""
        return dict(self._outgoing)

    def incoming_assignment(self) -> dict[Node, tuple[Node, ...]]:
        """The per-node input-port assignment (copy)."""
        return dict(self._incoming)

    def __getstate__(self) -> dict:
        # The engine's compiled-instance cache is process-local; keep pickled
        # payloads lean and rebuild the derived index on the other side.
        return {
            "_graph": self._graph,
            "_outgoing": self._outgoing,
            "_incoming": self._incoming,
        }

    def __setstate__(self, state: dict) -> None:
        self._graph = state["_graph"]
        self._outgoing = state["_outgoing"]
        self._incoming = state["_incoming"]
        self._compiled_instance = None
        self._incoming_index = {
            node: {neighbour: j + 1 for j, neighbour in enumerate(self._incoming[node])}
            for node in self._graph.nodes
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PortNumbering):
            return NotImplemented
        return (
            self._graph == other._graph
            and self._outgoing == other._outgoing
            and self._incoming == other._incoming
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._graph,
                tuple(sorted(self._outgoing.items(), key=lambda item: repr(item[0]))),
                tuple(sorted(self._incoming.items(), key=lambda item: repr(item[0]))),
            )
        )

    def __repr__(self) -> str:
        kind = "consistent" if self.is_consistent() else "general"
        return f"PortNumbering({kind}, nodes={self._graph.number_of_nodes})"


# ---------------------------------------------------------------------- #
# Constructors
# ---------------------------------------------------------------------- #


def consistent_port_numbering(graph: Graph) -> PortNumbering:
    """The canonical consistent port numbering of ``graph``.

    Output and input port ``i`` of every node are both attached to the node's
    ``i``-th neighbour in the graph's deterministic neighbour order, which
    makes the resulting ``p`` an involution.
    """
    assignment = {node: graph.neighbors(node) for node in graph.nodes}
    return PortNumbering(graph, assignment)


def random_port_numbering(
    graph: Graph,
    rng: random.Random | None = None,
    consistent: bool = False,
) -> PortNumbering:
    """A uniformly random port numbering of ``graph``.

    With ``consistent=True`` the input assignment mirrors the output
    assignment, which yields a consistent port numbering.
    """
    rng = rng or random.Random()
    outgoing: dict[Node, list[Node]] = {}
    incoming: dict[Node, list[Node]] = {}
    for node in graph.nodes:
        neighbours = list(graph.neighbors(node))
        out_order = list(neighbours)
        rng.shuffle(out_order)
        outgoing[node] = out_order
        if consistent:
            incoming[node] = out_order
        else:
            in_order = list(neighbours)
            rng.shuffle(in_order)
            incoming[node] = in_order
    return PortNumbering(graph, outgoing, incoming)


def all_port_numberings(graph: Graph, consistent_only: bool = False) -> Iterator[PortNumbering]:
    """Enumerate every port numbering of ``graph``.

    The number of port numberings is ``prod_v deg(v)!`` for consistent-only
    enumeration and ``prod_v (deg(v)!)**2`` in general, so this is intended for
    small witness graphs (adversarial verification, Section 1.4).
    """
    nodes = graph.nodes
    out_choices = [list(itertools.permutations(graph.neighbors(node))) for node in nodes]
    for out_combo in itertools.product(*out_choices):
        outgoing = dict(zip(nodes, out_combo))
        if consistent_only:
            yield PortNumbering(graph, outgoing)
            continue
        in_choices = [list(itertools.permutations(graph.neighbors(node))) for node in nodes]
        for in_combo in itertools.product(*in_choices):
            incoming = dict(zip(nodes, in_combo))
            yield PortNumbering(graph, outgoing, incoming)


def count_port_numberings(graph: Graph, consistent_only: bool = False) -> int:
    """The number of port numberings of ``graph`` (without enumerating them)."""
    import math

    total = 1
    for node in graph.nodes:
        factorial = math.factorial(graph.degree(node))
        total *= factorial if consistent_only else factorial * factorial
    return total


# ---------------------------------------------------------------------- #
# Local types (Theorem 17)
# ---------------------------------------------------------------------- #


def local_type(numbering: PortNumbering, node: Node, delta: int | None = None) -> tuple[int, ...]:
    """The local type ``t(v)`` of a node under a port numbering.

    ``t(v) = (j_1, ..., j_Delta)`` where ``j_i`` is the input-port number at the
    other end of output port ``i`` of ``v`` (``p((v, i)) = (u, j_i)``), padded
    with zeros beyond ``deg(v)``.  Theorem 17 uses local types under consistent
    port numberings to break symmetry in the class VVc(1).
    """
    graph = numbering.graph
    if delta is None:
        delta = graph.max_degree()
    degree = graph.degree(node)
    entries = [numbering.apply(node, i)[1] for i in range(1, degree + 1)]
    entries.extend(0 for _ in range(delta - degree))
    return tuple(entries)
