"""Experiment E10 -- symmetry breaking separates VV from VVc (Theorem 17, Figure 9).

Checks the three ingredients of the separation on the Figure 9 graph: the
graph really is a connected 3-regular graph with no perfect matching
(Lemma 16's hypothesis), the local-type algorithm solves the symmetry-breaking
problem under consistent port numberings (membership in VVc(1)), and under the
Lemma 15 symmetric numbering all nodes are bisimilar in K+,+ (impossibility in
VV via Corollary 3a).
"""

from __future__ import annotations

from repro.algorithms.local_types import LocalTypeSymmetryBreaking
from repro.experiments.report import ExperimentResult
from repro.graphs.generators import cycle_graph, figure9_graph, path_graph
from repro.graphs.matching import has_perfect_matching
from repro.problems.separating import SymmetryBreakingInMatchlessRegular, in_matchless_family
from repro.problems.verification import solves, worst_case_running_time
from repro.separations.matchless import matchless_separation


def run() -> ExperimentResult:
    """Replay the separation; each graph's adversarial numberings run as one
    superposed sweep, in this process."""
    result = ExperimentResult(
        experiment_id="E10",
        title="Symmetry breaking on matchless regular graphs: in VVc(1), not in VV",
        paper_reference="Theorem 17, Lemmas 15-16, Figure 9, Corollary 18",
    )
    graph = figure9_graph()
    result.add(
        "Figure 9 graph structure",
        "connected, 3-regular, no perfect matching",
        (
            f"connected={graph.is_connected()}, 3-regular={graph.is_regular(3)}, "
            f"perfect matching={has_perfect_matching(graph)}"
        ),
        graph.is_connected() and graph.is_regular(3) and not has_perfect_matching(graph),
    )
    result.add(
        "membership in the family G of Theorem 17",
        "G: connected, odd-regular, matchless",
        f"in_matchless_family={in_matchless_family(graph)}",
        in_matchless_family(graph),
    )
    problem = SymmetryBreakingInMatchlessRegular()
    solver = LocalTypeSymmetryBreaking()
    graphs = [graph, cycle_graph(4), path_graph(3)]
    in_vvc = solves(solver, problem, graphs, consistent_only=True, samples=10)
    runtime = worst_case_running_time(solver, graphs, consistent_only=True, samples=5)
    result.add(
        "membership: the local-type algorithm solves the problem assuming consistency",
        "Pi in VVc(1), two rounds",
        f"solved={in_vvc}, worst-case rounds={runtime}",
        in_vvc and runtime <= 2,
    )
    evidence = matchless_separation()
    result.add(
        "impossibility (Corollary 3a)",
        "under the Lemma 15 numbering, all nodes bisimilar in K+,+",
        f"bisimilar={evidence.witness_bisimilar()}, "
        f"constant outputs invalid={evidence.solutions_must_distinguish()}",
        evidence.witness_bisimilar() and evidence.solutions_must_distinguish(),
    )
    return result
