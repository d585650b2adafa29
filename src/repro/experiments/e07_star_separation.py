"""Experiment E7 -- leaf election separates VB from SV (Theorem 11, Corollary 12)."""

from __future__ import annotations

from repro.algorithms.leaf_election import LeafElectionAlgorithm
from repro.experiments.report import ExperimentResult
from repro.graphs.generators import path_graph, star_graph
from repro.problems.separating import LeafElectionInStars
from repro.problems.verification import solves, worst_case_running_time
from repro.separations.star import star_separation


def run() -> ExperimentResult:
    """Replay the separation; each graph's adversarial numberings run as one
    superposed sweep, in this process."""
    result = ExperimentResult(
        experiment_id="E7",
        title="Leaf election in stars: in SV(1), not in VB",
        paper_reference="Theorem 11, Corollary 12",
    )
    problem = LeafElectionInStars()
    solver = LeafElectionAlgorithm()
    graphs = [star_graph(2), star_graph(3), star_graph(4), path_graph(4)]
    in_sv = solves(solver, problem, graphs)
    runtime = worst_case_running_time(solver, graphs)
    result.add(
        "membership: Set algorithm solves the problem",
        "Pi in SV(1)",
        f"solved on all tested inputs={in_sv}, worst-case rounds={runtime}",
        in_sv and runtime <= 1,
    )
    for leaves in (2, 3, 5):
        evidence = star_separation(leaves)
        bisimilar = evidence.witness_bisimilar()
        must_distinguish = evidence.solutions_must_distinguish()
        result.add(
            f"impossibility on the {leaves}-star (Corollary 3b)",
            "all leaves bisimilar in K+,-; solutions must elect one leaf",
            f"bisimilar={bisimilar}, must distinguish={must_distinguish}",
            bisimilar and must_distinguish,
        )
    return result
