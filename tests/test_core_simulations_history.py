"""Tests for Theorems 8 and 9: the history-based simulations."""

from __future__ import annotations

import pytest

from repro.algorithms.basic import BroadcastMinimumDegreeAlgorithm, PortEchoAlgorithm
from repro.algorithms.leaf_election import LeafElectionAlgorithm
from repro.core.simulations import (
    simulate_broadcast_with_multiset_broadcast,
    simulate_vector_with_multiset,
)
from repro.execution.runner import run
from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.graphs.ports import all_port_numberings, random_port_numbering
from repro.machines.algorithm import BroadcastAlgorithm, Output, VectorAlgorithm
from repro.machines.models import ReceiveMode, SendMode
from repro.problems.separating import LeafElectionInStars
from repro.problems.verification import solves


class TwoRoundVectorAlgorithm(VectorAlgorithm):
    """Outputs the vector of (neighbour degree, port used by the neighbour) pairs.

    Needs two rounds and genuinely uses the vector structure of the input, so
    it exercises the history reconstruction beyond a single round.
    """

    def initial_state(self, degree):
        return ("r1", degree)

    def send(self, state, port):
        if state[0] == "r1":
            return ("deg", state[1], port)
        return ("done", state[1])

    def transition(self, state, received):
        if state[0] == "r1":
            return ("r2", tuple(received))
        return Output(state[1])


class TestTheorem8Construction:
    def test_rejects_non_vector_algorithms(self):
        from repro.algorithms.basic import GatherDegreesAlgorithm

        with pytest.raises(ValueError):
            simulate_vector_with_multiset(GatherDegreesAlgorithm())

    def test_rejects_broadcast_send(self):
        with pytest.raises(ValueError):
            simulate_vector_with_multiset(BroadcastMinimumDegreeAlgorithm())

    def test_model_is_multiset(self):
        simulation = simulate_vector_with_multiset(PortEchoAlgorithm())
        assert simulation.model.receive is ReceiveMode.MULTISET
        assert simulation.model.send is SendMode.PORT
        assert simulation.inner.name == "PortEchoAlgorithm"


class TestTheorem8Correctness:
    @pytest.mark.parametrize("graph", [star_graph(3), path_graph(3), cycle_graph(4)],
                             ids=["star3", "path3", "cycle4"])
    def test_output_matches_some_compatible_port_numbering(self, graph, rng):
        """The simulated run equals the original under some numbering in P_0."""
        inner = PortEchoAlgorithm()
        simulation = simulate_vector_with_multiset(inner)
        numbering = random_port_numbering(graph, rng)
        simulated = run(simulation, graph, numbering).outputs
        compatible = [
            candidate
            for candidate in all_port_numberings(graph)
            if candidate.outgoing_assignment() == numbering.outgoing_assignment()
        ]
        assert any(run(inner, graph, candidate).outputs == simulated for candidate in compatible)

    def test_two_round_vector_algorithm(self, rng):
        graph = path_graph(4)
        inner = TwoRoundVectorAlgorithm()
        simulation = simulate_vector_with_multiset(inner)
        numbering = random_port_numbering(graph, rng)
        simulated = run(simulation, graph, numbering).outputs
        reference = run(inner, graph, numbering).outputs
        # Theorem 8 guarantees the simulated run equals the original under a
        # port numbering with the same *output* ports but possibly different
        # input ports, so the output vectors may be permuted per node.
        for node in graph.nodes:
            assert sorted(simulated[node]) == sorted(reference[node])

    def test_problem_solving_is_preserved(self):
        """If the Vector algorithm solves a problem, so does its simulation."""
        problem = LeafElectionInStars()
        inner = LeafElectionAlgorithm()  # a Set algorithm is a fortiori a Vector algorithm
        # Wrap it as a Vector algorithm by composing through the class hierarchy:
        # LeafElection only uses the set of messages, so it can be run as-is;
        # here we simulate the Multiset view of it.
        class VectorLeafElection(VectorAlgorithm):
            def initial_state(self, degree):
                return inner.initial_state(degree)

            def send(self, state, port):
                return inner.send(state, port)

            def transition(self, state, received):
                return inner.transition(state, frozenset(received))

        simulation = simulate_vector_with_multiset(VectorLeafElection())
        assert solves(simulation, problem, [star_graph(2), star_graph(3), path_graph(3)])

    def test_round_overhead_at_most_one(self, rng):
        graph = cycle_graph(5)
        inner = TwoRoundVectorAlgorithm()
        simulation = simulate_vector_with_multiset(inner)
        numbering = random_port_numbering(graph, rng)
        assert run(simulation, graph, numbering).rounds <= run(inner, graph, numbering).rounds + 1

    def test_message_growth_is_monotone_in_time(self):
        class Counter(VectorAlgorithm):
            def __init__(self, rounds):
                self._rounds = rounds

            def initial_state(self, degree):
                return 0

            def send(self, state, port):
                return state

            def transition(self, state, received):
                nxt = state + 1
                return Output(nxt) if nxt >= self._rounds else nxt

        sizes = []
        for rounds in (1, 3, 6):
            simulation = simulate_vector_with_multiset(Counter(rounds))
            trace = run(simulation, cycle_graph(4), record_trace=True).trace
            sizes.append(trace.max_message_size())
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]


class TestTheorem9:
    def test_rejects_non_broadcast_algorithms(self):
        with pytest.raises(ValueError):
            simulate_broadcast_with_multiset_broadcast(PortEchoAlgorithm())

    def test_model_is_multiset_broadcast(self):
        simulation = simulate_broadcast_with_multiset_broadcast(BroadcastMinimumDegreeAlgorithm())
        assert simulation.model.receive is ReceiveMode.MULTISET
        assert simulation.model.send is SendMode.BROADCAST

    @pytest.mark.parametrize("graph", [star_graph(3), path_graph(4), cycle_graph(5)],
                             ids=["star3", "path4", "cycle5"])
    def test_numbering_invariant_inner_is_reproduced(self, graph, rng):
        inner = BroadcastMinimumDegreeAlgorithm()
        simulation = simulate_broadcast_with_multiset_broadcast(inner)
        numbering = random_port_numbering(graph, rng)
        assert run(simulation, graph, numbering).outputs == run(inner, graph, numbering).outputs

    def test_two_round_broadcast_inner(self, rng):
        class TwoRoundBroadcast(BroadcastAlgorithm):
            """Output the sorted degrees seen within distance two."""

            def initial_state(self, degree):
                return ("r1", (degree,))

            def broadcast(self, state):
                return state[1]

            def transition(self, state, received):
                gathered = tuple(sorted(set(state[1] + tuple(x for item in received for x in item))))
                if state[0] == "r1":
                    return ("r2", gathered)
                return Output(gathered)

        inner = TwoRoundBroadcast()
        simulation = simulate_broadcast_with_multiset_broadcast(inner)
        for graph in (path_graph(4), star_graph(3)):
            numbering = random_port_numbering(graph, rng)
            assert (
                run(simulation, graph, numbering).outputs == run(inner, graph, numbering).outputs
            )
