"""Unit tests for the separating problems and adversarial verification."""

from __future__ import annotations

import itertools

from repro.algorithms.basic import ConstantAlgorithm, DegreeAlgorithm
from repro.algorithms.leaf_election import LeafElectionAlgorithm
from repro.algorithms.parity import OddOddNeighboursAlgorithm, SomeOddNeighbourAlgorithm
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    figure9_graph,
    odd_odd_gadget_pair,
    path_graph,
    star_graph,
)
from repro.problems.base import GraphProblem
from repro.problems.separating import (
    LeafElectionInStars,
    OddOddNeighbours,
    SymmetryBreakingInMatchlessRegular,
    in_matchless_family,
    is_star,
)
from repro.problems.verification import find_counterexample, solves


class TestSeparatingProblems:
    def test_is_star(self):
        assert is_star(star_graph(3)) is not None
        assert is_star(path_graph(3)) is not None  # a path of 3 nodes is the 2-star
        assert is_star(cycle_graph(4)) is None
        assert is_star(path_graph(2)) is None  # k = 1 is excluded

    def test_leaf_election_on_stars(self):
        problem = LeafElectionInStars()
        graph = star_graph(3)
        assert problem.is_solution(graph, {0: 0, 1: 1, 2: 0, 3: 0})
        assert not problem.is_solution(graph, {0: 0, 1: 1, 2: 1, 3: 0})
        assert not problem.is_solution(graph, {0: 1, 1: 1, 2: 0, 3: 0})
        assert not problem.is_solution(graph, {0: 0, 1: 0, 2: 0, 3: 0})

    def test_leaf_election_unconstrained_off_stars(self):
        problem = LeafElectionInStars()
        graph = cycle_graph(4)
        assert problem.is_solution(graph, {node: 0 for node in graph.nodes})

    def test_odd_odd_unique_solution(self):
        problem = OddOddNeighbours()
        graph, first, second = odd_odd_gadget_pair()
        labellings = (
            dict(zip(graph.nodes, values))
            for values in itertools.product(problem.outputs, repeat=graph.number_of_nodes)
        )
        solutions = [labelling for labelling in labellings if problem.is_solution(graph, labelling)]
        assert len(solutions) == 1
        assert solutions[0][first] == 1 and solutions[0][second] == 0

    def test_in_matchless_family(self):
        assert in_matchless_family(figure9_graph())
        assert not in_matchless_family(cycle_graph(4))      # even-regular
        assert not in_matchless_family(complete_graph(4))   # has a perfect matching
        assert not in_matchless_family(path_graph(3))       # not regular

    def test_symmetry_breaking_problem(self):
        problem = SymmetryBreakingInMatchlessRegular()
        graph = figure9_graph()
        non_constant = {node: (1 if node == "z" else 0) for node in graph.nodes}
        constant = {node: 1 for node in graph.nodes}
        assert problem.is_solution(graph, non_constant)
        assert not problem.is_solution(graph, constant)
        # Off the family anything goes.
        assert problem.is_solution(cycle_graph(4), {node: 1 for node in cycle_graph(4).nodes})


class TestVerification:
    def test_leaf_election_solved_by_set_algorithm(self):
        graphs = [star_graph(2), star_graph(3), path_graph(4), cycle_graph(4)]
        assert solves(LeafElectionAlgorithm(), LeafElectionInStars(), graphs)

    def test_constant_algorithm_does_not_solve_leaf_election(self):
        graphs = [star_graph(3)]
        counterexample = find_counterexample(ConstantAlgorithm(0), LeafElectionInStars(), graphs)
        assert counterexample is not None
        graph, _numbering, outputs = counterexample
        assert outputs == {node: 0 for node in graph.nodes}

    def test_some_odd_neighbour_does_not_solve_odd_odd(self):
        graph = odd_odd_gadget_pair()[0]
        assert not solves(SomeOddNeighbourAlgorithm(), OddOddNeighbours(), [graph])

    def test_odd_odd_algorithm_solves_odd_odd(self):
        graphs = [path_graph(4), star_graph(3), cycle_graph(5), odd_odd_gadget_pair()[0]]
        assert solves(OddOddNeighboursAlgorithm(), OddOddNeighbours(), graphs)

    def test_degree_algorithm_solves_degree_labelling(self):
        class DegreeLabelling(GraphProblem):
            def is_solution(self, graph, assignment):
                return all(assignment[node] == graph.degree(node) for node in graph.nodes)

        graphs = [path_graph(3), star_graph(4), complete_graph(4)]
        assert solves(DegreeAlgorithm(), DegreeLabelling(), graphs)

    def test_non_halting_counts_as_failure(self):
        from repro.machines.algorithm import MultisetBroadcastAlgorithm

        class Forever(MultisetBroadcastAlgorithm):
            def initial_state(self, degree):
                return 0

            def broadcast(self, state):
                return "m"

            def transition(self, state, received):
                return state + 1

        counterexample = find_counterexample(
            Forever(), OddOddNeighbours(), [cycle_graph(3)], max_rounds=5
        )
        assert counterexample is not None
        assert counterexample[2] is None
