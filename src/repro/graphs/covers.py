"""Covers, double covers and symmetric port numberings (Lemma 15, Figure 8).

Lemma 15 shows that every regular graph admits a port numbering under which
all nodes are bisimilar in the K+,+ encoding: lift the graph to its bipartite
double cover ``G*``, decompose ``G*`` into 1-factors, and use factor ``i`` to
wire output port ``i`` to input port ``i`` everywhere.  This module implements
that construction.
"""

from __future__ import annotations

from repro.graphs.graph import Graph, Node
from repro.graphs.matching import one_factorisation
from repro.graphs.ports import PortNumbering


def bipartite_double_cover(graph: Graph) -> Graph:
    """The bipartite double cover ``G*`` of ``graph``.

    Nodes are ``(v, 1)`` and ``(v, 2)`` for every node ``v``; every edge
    ``{u, v}`` of the original graph lifts to the two edges
    ``{(u, 1), (v, 2)}`` and ``{(v, 1), (u, 2)}``.  If the original graph is
    ``k``-regular, so is the double cover, and the double cover is always
    bipartite (Figure 8).
    """
    nodes = [(v, 1) for v in graph.nodes] + [(v, 2) for v in graph.nodes]
    edges = []
    for u, v in graph.edges:
        edges.append(((u, 1), (v, 2)))
        edges.append(((v, 1), (u, 2)))
    return Graph(nodes=nodes, edges=edges)


def symmetric_port_numbering(graph: Graph) -> PortNumbering:
    """A port numbering of a regular graph under which all nodes look alike.

    This is the construction in the proof of Lemma 15: decompose the bipartite
    double cover into 1-factors ``E_1, ..., E_k`` and let output port ``i`` of
    ``v`` lead to the node matched with ``(v, 1)`` in ``E_i`` while input port
    ``i`` of ``u`` listens to the node matched with ``(u, 2)`` in ``E_i``.
    Consequently the relation ``R(i, j)`` of the K+,+ encoding is non-empty
    only for ``i == j``, and the full relation ``V x V`` is a bisimulation, so
    all nodes of the graph are bisimilar.

    The resulting port numbering is in general *inconsistent*; Lemma 16 shows
    it cannot be made consistent when the graph is odd-regular without a
    1-factor (e.g. the Figure 9 graph).

    Raises
    ------
    ValueError
        If the graph is not regular.
    """
    if not graph.is_regular():
        raise ValueError("symmetric_port_numbering requires a regular graph")
    if not graph.nodes:
        raise ValueError("symmetric_port_numbering requires a non-empty graph")
    double_cover = bipartite_double_cover(graph)
    factors = one_factorisation(double_cover)
    outgoing: dict[Node, list[Node]] = {v: [] for v in graph.nodes}
    incoming: dict[Node, list[Node]] = {v: [] for v in graph.nodes}
    for factor in factors:
        partner_of_copy1: dict[Node, Node] = {}
        partner_of_copy2: dict[Node, Node] = {}
        for edge in factor:
            (a, a_side), (b, b_side) = tuple(edge)
            if a_side == 1:
                source, target = a, b
            else:
                source, target = b, a
            partner_of_copy1[source] = target
            partner_of_copy2[target] = source
        for v in graph.nodes:
            outgoing[v].append(partner_of_copy1[v])
            incoming[v].append(partner_of_copy2[v])
    return PortNumbering(graph, outgoing, incoming)
