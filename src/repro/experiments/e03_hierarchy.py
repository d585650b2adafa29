"""Experiment E3 -- the full classification (Figure 5, results (1) and (2)).

Re-derives the linear order SB ⊊ MB = VB ⊊ SV = MV = VV ⊊ VVc mechanically:
the containment half from the checked simulation constructions of Theorems 4,
8 and 9, and the separation half from the three bisimulation witnesses of
Theorems 11, 13 and 17.
"""

from __future__ import annotations

from repro.algorithms.basic import (
    BroadcastMinimumDegreeAlgorithm,
    GatherDegreesAlgorithm,
    PortEchoAlgorithm,
)
from repro.core.classification import ClassificationReport, ContainmentEvidence
from repro.core.hierarchy import LINEAR_ORDER, summary
from repro.core.simulations import (
    simulate_broadcast_with_multiset_broadcast,
    simulate_multiset_with_set,
    simulate_vector_with_multiset,
)
from repro.execution.engine import compiled_for, execute
from repro.machines.fastpath import fast_path
from repro.experiments.report import ExperimentResult
from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.graphs.graph import Graph
from repro.machines.models import ProblemClass
from repro.separations.witnesses import all_separations

_TEST_GRAPHS: tuple[Graph, ...] = (star_graph(3), path_graph(4), cycle_graph(4))


def _inner_runner(algorithm):
    """Run ``algorithm`` on one instance, for the validity predicates.

    One memoizing fast-path wrapper per inner algorithm, so its runs share
    projection and transition caches across the whole adversarial sweep.
    """
    fast = fast_path(algorithm, memoize_transitions=True)
    return lambda graph, numbering: execute(fast, compiled_for(graph, numbering))


def _containment_evidences() -> list[tuple[ContainmentEvidence, bool]]:
    """The three simulation constructions, checked on concrete inputs.

    The simulated algorithms run superposed through the sweep engine; the
    validity predicates compare against the inner algorithm's own run on
    the compiled engine.
    """
    checked: list[tuple[ContainmentEvidence, bool]] = []

    # Theorem 4: MV ⊆ SV.  A Multiset algorithm's output is numbering-invariant
    # on the incoming side, so the simulation must reproduce it exactly.
    multiset_inner = GatherDegreesAlgorithm()
    evidence = ContainmentEvidence(
        smaller=ProblemClass.MV,
        larger=ProblemClass.SV,
        description="Theorem 4: Set simulation of a Multiset algorithm",
        simulate=lambda alg: simulate_multiset_with_set(alg, delta=3),
    )

    run_multiset_inner = _inner_runner(multiset_inner)

    def multiset_outputs_valid(graph: Graph, numbering, outputs: dict) -> bool:
        reference = run_multiset_inner(graph, numbering).outputs
        return outputs == reference

    checked.append(
        (
            evidence,
            evidence.verify([multiset_inner], _TEST_GRAPHS, multiset_outputs_valid),
        )
    )

    # Theorem 8: VV ⊆ MV.  The simulated output must coincide with the original
    # algorithm's output under *some* port numbering with the same output-port
    # assignment; for the echo workload that means every node reports the
    # multiset of output ports its neighbours use towards it.
    vector_inner = PortEchoAlgorithm()
    evidence8 = ContainmentEvidence(
        smaller=ProblemClass.VV,
        larger=ProblemClass.MV,
        description="Theorem 8: Multiset simulation of a Vector algorithm",
        simulate=simulate_vector_with_multiset,
    )

    def vector_outputs_valid(graph: Graph, numbering, outputs: dict) -> bool:
        for node in graph.nodes:
            expected = sorted(
                numbering.outgoing_port(neighbour, node) for neighbour in graph.neighbors(node)
            )
            if sorted(outputs[node]) != expected:
                return False
        return True

    checked.append(
        (
            evidence8,
            evidence8.verify([vector_inner], _TEST_GRAPHS, vector_outputs_valid),
        )
    )

    # Theorem 9: VB ⊆ MB.  The minimum-degree workload is numbering-invariant.
    broadcast_inner = BroadcastMinimumDegreeAlgorithm()
    evidence9 = ContainmentEvidence(
        smaller=ProblemClass.VB,
        larger=ProblemClass.MB,
        description="Theorem 9: Multiset∩Broadcast simulation of a Broadcast algorithm",
        simulate=simulate_broadcast_with_multiset_broadcast,
    )

    run_broadcast_inner = _inner_runner(broadcast_inner)

    def broadcast_outputs_valid(graph: Graph, numbering, outputs: dict) -> bool:
        reference = run_broadcast_inner(graph, numbering).outputs
        return outputs == reference

    checked.append(
        (
            evidence9,
            evidence9.verify([broadcast_inner], _TEST_GRAPHS, broadcast_outputs_valid),
        )
    )
    return checked


def build_classification() -> ClassificationReport:
    """Assemble and verify the full classification."""
    report = ClassificationReport()
    report.containments.extend(_containment_evidences())
    for evidence in all_separations():
        report.separations.append((evidence, evidence.verify()))
    return report


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E3",
        title="The linear order SB ⊊ MB = VB ⊊ SV = MV = VV ⊊ VVc",
        paper_reference="Figure 5, results (1)-(2), Section 5",
    )
    report = build_classification()
    for evidence, verified in report.containments:
        result.add(
            f"{evidence.smaller} ⊆ {evidence.larger} (simulation)",
            evidence.description,
            "verified on test graphs" if verified else "verification failed",
            verified,
        )
    for evidence, verified in report.separations:
        result.add(
            f"{evidence.larger} ⊄ {evidence.smaller} (bisimulation witness)",
            evidence.problem_name,
            "verified (Corollary 3)" if verified else "verification failed",
            verified,
        )
    order = summary()
    result.add(
        "number of distinct classes",
        "4",
        str(order.number_of_distinct_classes()),
        order.number_of_distinct_classes() == len(LINEAR_ORDER) == 4,
    )
    result.add(
        "linear order",
        "SB ⊊ MB = VB ⊊ SV = MV = VV ⊊ VVc",
        order.describe(),
        report.all_verified(),
    )
    return result
