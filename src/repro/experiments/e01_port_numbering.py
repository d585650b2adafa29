"""Experiment E1 -- port numberings (Section 1.2, Figures 1 and 2).

Reconstructs the two example port numberings of Figures 1 and 2 on a small
graph and checks the structural facts the paper states about them: a port
numbering is a bijection on ports inducing the adjacency relation, the
Figure 2 numbering is an involution (consistent), and the canonical consistent
numbering of any graph is consistent.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult
from repro.graphs.generators import cycle_graph, star_graph
from repro.graphs.graph import Graph
from repro.graphs.ports import (
    consistent_port_numbering,
    count_port_numberings,
    random_port_numbering,
)


def _figure1_graph() -> Graph:
    """A 4-node graph of maximum degree 3, in the spirit of Figure 1."""
    return Graph(nodes=[1, 2, 3, 4], edges=[(1, 2), (1, 3), (1, 4), (3, 4)])


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E1",
        title="Port numberings and consistency",
        paper_reference="Section 1.2, Figures 1-2",
    )
    graph = _figure1_graph()

    general = random_port_numbering(graph, consistent=False)
    mapping = general.as_mapping()
    is_bijection = len(set(mapping.values())) == len(mapping)
    induced = {(u, v) for (u, _), (v, _) in mapping.items()}
    adjacency = {(u, v) for u, v in graph.edges} | {(v, u) for u, v in graph.edges}
    result.add(
        "p is a bijection on ports with A(p) = A(G)",
        "required by definition",
        f"bijection={is_bijection}, A(p)=A(G)={induced == adjacency}",
        is_bijection and induced == adjacency,
    )

    consistent = consistent_port_numbering(graph)
    result.add(
        "canonical numbering is an involution (Figure 2)",
        "consistent",
        f"is_consistent={consistent.is_consistent()}",
        consistent.is_consistent(),
    )

    star = star_graph(3)
    expected_star = 6 * 1 * 1 * 1  # centre has 3! orderings, leaves 1 each
    counted = count_port_numberings(star, consistent_only=True)
    result.add(
        "number of consistent port numberings of the 3-star",
        "prod_v deg(v)! = 6",
        str(counted),
        counted == expected_star,
    )

    cycle = cycle_graph(4)
    inconsistent_found = any(
        not random_port_numbering(cycle, consistent=False).is_consistent() for _ in range(20)
    )
    result.add(
        "general numberings need not be consistent",
        "input and output ports may disagree (Figure 1)",
        f"inconsistent example found={inconsistent_found}",
        inconsistent_found,
    )
    return result
