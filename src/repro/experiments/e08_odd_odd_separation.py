"""Experiment E8 -- odd-odd-neighbours separates SB from MB (Theorem 13, Corollary 14)."""

from __future__ import annotations

from repro.algorithms.parity import OddOddNeighboursAlgorithm
from repro.experiments.report import ExperimentResult
from repro.graphs.generators import cycle_graph, odd_odd_gadget_pair, path_graph, star_graph
from repro.logic.bisimulation import bisimilar_within
from repro.modal.encoding import KripkeVariant, kripke_encoding
from repro.problems.separating import OddOddNeighbours
from repro.problems.verification import solves, worst_case_running_time
from repro.separations.odd_odd import odd_odd_separation


def run() -> ExperimentResult:
    """Replay the separation; each graph's adversarial numberings run as one
    superposed sweep, in this process."""
    result = ExperimentResult(
        experiment_id="E8",
        title="Odd number of odd-degree neighbours: in MB(1), not in SB",
        paper_reference="Theorem 13, Corollary 14",
    )
    problem = OddOddNeighbours()
    solver = OddOddNeighboursAlgorithm()
    graphs = [path_graph(4), star_graph(3), cycle_graph(5), odd_odd_gadget_pair()[0]]
    in_mb = solves(solver, problem, graphs)
    runtime = worst_case_running_time(solver, graphs)
    result.add(
        "membership: counting broadcast algorithm solves the problem",
        "Pi in MB(1)",
        f"solved on all tested inputs={in_mb}, worst-case rounds={runtime}",
        in_mb and runtime <= 1,
    )
    evidence = odd_odd_separation()
    graph, first, second = odd_odd_gadget_pair()
    expected_first = problem.expected_output(graph, first)
    expected_second = problem.expected_output(graph, second)
    result.add(
        "the witness nodes need different outputs",
        "one white node answers 1, the other 0",
        f"outputs must be {expected_first} and {expected_second}",
        expected_first != expected_second,
    )
    result.add(
        "impossibility (Corollary 3c)",
        "the white nodes are bisimilar in K-,-",
        f"bisimilar={evidence.witness_bisimilar()}",
        evidence.witness_bisimilar(),
    )
    # Counting *does* separate them: graded bisimilarity distinguishes the two
    # witnesses, which is exactly why the problem is solvable in MB(1).
    encoding = kripke_encoding(graph, variant=KripkeVariant.NEITHER)
    graded_separates = not bisimilar_within(encoding, (first, second), graded=True)
    result.add(
        "graded bisimulation distinguishes the witnesses",
        "GML can count successors (Section 4.1)",
        f"distinguished={graded_separates}",
        graded_separates,
    )
    return result
