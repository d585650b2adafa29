"""Kripke encodings of port-numbered graphs (Section 4.3).

Given a graph ``G`` and a port numbering ``p``, the paper defines accessibility
relations

* ``R(i, j) = {(u, v) : p((v, j)) = (u, i)}`` -- ``v`` sends through its output
  port ``j`` and the message arrives at input port ``i`` of ``u``;
* ``R(i, *)``, ``R(*, j)``, ``R(*, *)`` -- unions hiding the output-port or the
  input-port component.

Four Kripke models are built from these relations, one per amount of port
information available to a model:

==========  =====================  ================================
Variant     Indices                Captured classes (Theorem 2)
==========  =====================  ================================
``K++``     ``[Δ] x [Δ]``          VVc(1), VV(1)  (MML)
``K-+``     ``{*} x [Δ]``          MV(1) (GMML), SV(1) (MML)
``K+-``     ``[Δ] x {*}``          VB(1) (MML)
``K--``     ``{(*, *)}``           MB(1) (GML), SB(1) (ML)
==========  =====================  ================================

The valuation assigns to each node the proposition ``deg<k>`` for its degree
``k`` (the paper's ``q_k``).

:func:`kripke_unions` serves the adversarial checks, which evaluate one
formula on many numberings of a graph: it builds the disjoint union of the
distinct encodings those numberings induce, from the same relation triples
as :func:`kripke_encoding`.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from repro.graphs.graph import Graph, Node
from repro.graphs.ports import PortNumbering, consistent_port_numbering
from repro.logic.kripke import KripkeModel
from repro.machines.models import ProblemClass

#: The wildcard component of a relation index.
STAR = "*"


class KripkeVariant(enum.Enum):
    """The four encodings of Section 4.3."""

    FULL = "++"
    NO_INPUT_PORTS = "-+"
    NO_OUTPUT_PORTS = "+-"
    NEITHER = "--"

    @property
    def sees_input_ports(self) -> bool:
        return self in (KripkeVariant.FULL, KripkeVariant.NO_OUTPUT_PORTS)

    @property
    def sees_output_ports(self) -> bool:
        return self in (KripkeVariant.FULL, KripkeVariant.NO_INPUT_PORTS)


#: Which encoding captures which problem class (Theorem 2).
_CLASS_TO_VARIANT: dict[ProblemClass, KripkeVariant] = {
    ProblemClass.VVC: KripkeVariant.FULL,
    ProblemClass.VV: KripkeVariant.FULL,
    ProblemClass.MV: KripkeVariant.NO_INPUT_PORTS,
    ProblemClass.SV: KripkeVariant.NO_INPUT_PORTS,
    ProblemClass.VB: KripkeVariant.NO_OUTPUT_PORTS,
    ProblemClass.MB: KripkeVariant.NEITHER,
    ProblemClass.SB: KripkeVariant.NEITHER,
}


def variant_for_class(problem_class: ProblemClass) -> KripkeVariant:
    """The Kripke encoding on which the given class is captured (Theorem 2)."""
    return _CLASS_TO_VARIANT[problem_class]


def degree_proposition(degree: int) -> str:
    """The proposition symbol ``q_degree`` asserting that a node has this degree."""
    return f"deg{degree}"


def input_proposition(value: object) -> str:
    """The proposition symbol asserting that a node carries local input ``value``.

    Section 3.4 extends the framework to labelled graphs ``(V, E, f)``; the
    natural Kripke encoding simply adds one proposition per input value.
    """
    return f"in_{value}"


def signature_indices(variant: KripkeVariant, delta: int) -> frozenset:
    """The modality index set ``I^Delta_{a,b}`` of the encoding."""
    ports = range(1, delta + 1)
    if variant is KripkeVariant.FULL:
        return frozenset((i, j) for i in ports for j in ports)
    if variant is KripkeVariant.NO_INPUT_PORTS:
        return frozenset((STAR, j) for j in ports)
    if variant is KripkeVariant.NO_OUTPUT_PORTS:
        return frozenset((i, STAR) for i in ports)
    return frozenset({(STAR, STAR)})


def _checked_delta(graph: Graph, delta: int | None) -> int:
    """``delta``, defaulting to the graph's maximum degree, which it may not undercut."""
    max_degree = graph.max_degree()
    if delta is None:
        return max_degree
    if delta < max_degree:
        raise ValueError(
            f"delta={delta} is below the graph's maximum degree {max_degree}; "
            "the encoding has no relation index for the higher ports"
        )
    return delta


def _relation_triples(graph: Graph, numbering: PortNumbering, variant: KripkeVariant):
    """Yield ``(index, u, v)`` for every pair ``(u, v)`` of ``R_index`` in ``K_variant(G, p)``.

    ``v --(out-port j)--> u's in-port i`` gives ``(u, v)`` in ``R(i, j)``; a
    variant that hides a port component merges those relations under
    :data:`STAR` in its place.
    """
    if numbering.graph != graph:
        raise ValueError("the port numbering belongs to a different graph")
    sees_input, sees_output = variant.sees_input_ports, variant.sees_output_ports
    for v in graph.nodes:
        for j in range(1, graph.degree(v) + 1):
            u, i = numbering.apply(v, j)
            yield (i if sees_input else STAR, j if sees_output else STAR), u, v


def _degree_valuation(graph: Graph, delta: int) -> dict[str, list[Node]]:
    """``deg<k>`` -> the nodes of degree ``k``, for every ``k`` in ``1..delta``."""
    return {
        degree_proposition(k): [node for node in graph.nodes if graph.degree(node) == k]
        for k in range(1, delta + 1)
    }


def kripke_encoding(
    graph: Graph,
    numbering: PortNumbering | None = None,
    variant: KripkeVariant = KripkeVariant.FULL,
    delta: int | None = None,
    inputs: dict[Node, object] | None = None,
) -> KripkeModel:
    """The Kripke model ``K_{a,b}(G, p)`` of the given variant.

    The worlds are the nodes of the graph; the relations are the ``R`` indexed
    families listed in the module docstring; the valuation marks each node
    with its degree proposition.  ``delta`` defaults to the maximum degree of
    the graph and controls which indices appear (indices whose relation is
    empty are still present, as in the paper's signature ``I^Delta_{a,b}``);
    a ``delta`` below the maximum degree raises ``ValueError``.

    When ``inputs`` is given (labelled graphs, Section 3.4), each node is
    additionally marked with :func:`input_proposition` of its local input.
    """
    if numbering is None:
        numbering = consistent_port_numbering(graph)
    delta = _checked_delta(graph, delta)
    relations: dict[tuple, list[tuple[Node, Node]]] = {
        index: [] for index in signature_indices(variant, delta)
    }
    for index, u, v in _relation_triples(graph, numbering, variant):
        relations[index].append((u, v))
    valuation = _degree_valuation(graph, delta)
    if inputs is not None:
        for node, value in inputs.items():
            valuation.setdefault(input_proposition(value), []).append(node)
    return KripkeModel(graph.nodes, relations, valuation)


#: The most worlds one union of encodings holds; a single larger encoding
#: gets a union of its own.  The compiled form keeps per-world successor and
#: predecessor bitmasks, so a union of N worlds costs about N**2 / 16 bytes
#: per index and mask kind.
_UNION_WORLDS = 1024


def kripke_unions(
    graph: Graph,
    numberings: Iterable[PortNumbering],
    variant: KripkeVariant,
    delta: int | None = None,
) -> tuple[list[KripkeModel], list[tuple[int, int]]]:
    """Disjoint unions of the distinct encodings ``K_variant(G, p)`` of ``numberings``.

    Numberings that induce the same encoding share one copy: every
    numbering of a graph induces the same ``K--`` encoding, and ``K-+``
    (``K+-``) sees only the output (input) ports.  The worlds of a union are
    ``(copy, node)``, its copies are packed up to ``_UNION_WORLDS`` worlds,
    and its signature and valuation are those of :func:`kripke_encoding`.
    Each copy is a generated submodel of its union, so by bisimulation
    invariance (Fact 1) a formula's extension in the union, restricted to a
    copy, is its extension in that copy's encoding.

    Returns the unions and, for each numbering in input order, its
    ``(union, copy)`` place.
    """
    delta = _checked_delta(graph, delta)
    copies: dict[frozenset, int] = {}
    per_union = max(1, _UNION_WORLDS // max(1, len(graph)))
    places = []
    for numbering in numberings:
        key = frozenset(_relation_triples(graph, numbering, variant))
        copy = copies.setdefault(key, len(copies))
        places.append(divmod(copy, per_union))
    indices = signature_indices(variant, delta)
    by_degree = _degree_valuation(graph, delta)
    keys = list(copies)
    unions = []
    for first in range(0, len(keys), per_union):
        worlds: list[tuple[int, Node]] = []
        relations: dict[tuple, list] = {index: [] for index in indices}
        valuation: dict[str, list] = {prop: [] for prop in by_degree}
        for copy, triples in enumerate(keys[first : first + per_union]):
            world = {node: (copy, node) for node in graph.nodes}
            worlds.extend(world.values())
            for index, u, v in triples:
                relations[index].append((world[u], world[v]))
            for prop, nodes in by_degree.items():
                valuation[prop].extend(map(world.__getitem__, nodes))
        unions.append(KripkeModel(worlds, relations, valuation))
    return unions, places
