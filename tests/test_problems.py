"""Unit tests for graph problems and adversarial verification."""

from __future__ import annotations

import pytest

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
from repro.problems.base import enumerate_solutions, has_solution
from repro.problems.classic import (
    DegreeLabelling,
    DominatingSet,
    EulerianDecision,
    MaximalIndependentSet,
    VertexColouring,
    VertexCover,
)
from repro.problems.separating import (
    LeafElectionInStars,
    OddOddNeighbours,
    SymmetryBreakingInMatchlessRegular,
    in_matchless_family,
    is_star,
)
from repro.problems.verification import find_counterexample, solves


class TestMaximalIndependentSet:
    def test_valid_solution(self):
        graph = path_graph(4)
        assert MaximalIndependentSet().is_solution(graph, {0: 1, 1: 0, 2: 1, 3: 0})

    def test_not_independent(self):
        graph = path_graph(3)
        assert not MaximalIndependentSet().is_solution(graph, {0: 1, 1: 1, 2: 0})

    def test_not_maximal(self):
        graph = path_graph(3)
        assert not MaximalIndependentSet().is_solution(graph, {0: 0, 1: 0, 2: 0})

    def test_enumeration_on_triangle(self):
        graph = cycle_graph(3)
        solutions = list(enumerate_solutions(MaximalIndependentSet(), graph))
        assert len(solutions) == 3  # each single vertex


class TestVertexColouring:
    def test_proper_colouring_accepted(self):
        graph = cycle_graph(4)
        assert VertexColouring(2).is_solution(graph, {0: 1, 1: 2, 2: 1, 3: 2})

    def test_monochromatic_edge_rejected(self):
        graph = path_graph(2)
        assert not VertexColouring(3).is_solution(graph, {0: 1, 1: 1})

    def test_colours_outside_palette_rejected(self):
        graph = path_graph(2)
        assert not VertexColouring(2).is_solution(graph, {0: 1, 1: 5})

    def test_odd_cycle_not_2_colourable(self):
        assert not has_solution(VertexColouring(2), cycle_graph(5))
        assert has_solution(VertexColouring(3), cycle_graph(5))

    def test_invalid_palette(self):
        with pytest.raises(ValueError):
            VertexColouring(0)


class TestEulerianDecision:
    def test_yes_instance_needs_all_ones(self):
        graph = cycle_graph(4)
        problem = EulerianDecision()
        assert problem.is_solution(graph, {node: 1 for node in graph.nodes})
        assert not problem.is_solution(graph, {0: 0, 1: 1, 2: 1, 3: 1})

    def test_no_instance_needs_a_zero(self):
        graph = path_graph(3)
        problem = EulerianDecision()
        assert problem.is_solution(graph, {0: 0, 1: 1, 2: 1})
        assert not problem.is_solution(graph, {node: 1 for node in graph.nodes})


class TestVertexCoverProblem:
    def test_cover_validity(self):
        graph = path_graph(4)
        assert VertexCover().is_solution(graph, {0: 0, 1: 1, 2: 1, 3: 0})
        assert not VertexCover().is_solution(graph, {0: 1, 1: 0, 2: 0, 3: 1})

    def test_approximation_ratio(self):
        graph = star_graph(4)
        everything = {node: 1 for node in graph.nodes}
        assert VertexCover().is_solution(graph, everything)
        assert not VertexCover(approximation_ratio=2).is_solution(graph, everything)
        assert VertexCover(approximation_ratio=2).is_solution(graph, {0: 1, 1: 1, 2: 0, 3: 0, 4: 0})

    def test_ratio_must_be_at_least_one(self):
        with pytest.raises(ValueError):
            VertexCover(approximation_ratio=0.5)


class TestOtherClassics:
    def test_dominating_set(self):
        graph = star_graph(3)
        assert DominatingSet().is_solution(graph, {0: 1, 1: 0, 2: 0, 3: 0})
        assert not DominatingSet().is_solution(graph, {0: 0, 1: 1, 2: 0, 3: 0})

    def test_degree_labelling(self):
        graph = path_graph(3)
        assert DegreeLabelling().is_solution(graph, {0: 1, 1: 2, 2: 1})
        assert not DegreeLabelling().is_solution(graph, {0: 1, 1: 1, 2: 1})


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
        solutions = list(enumerate_solutions(problem, graph))
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
            Forever(), DegreeLabelling(), [cycle_graph(3)], max_rounds=5
        )
        assert counterexample is not None
        assert counterexample[2] is None
