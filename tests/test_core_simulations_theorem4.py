"""Tests for Theorem 4: simulating Multiset algorithms with Set algorithms."""

from __future__ import annotations

import pytest

from repro.algorithms.basic import GatherDegreesAlgorithm
from repro.algorithms.parity import OddOddNeighboursAlgorithm
from repro.core.simulations import simulate_multiset_with_set
from repro.execution.adversary import port_numberings_to_check
from repro.execution.runner import run
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    figure9_graph,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.ports import random_port_numbering
from repro.machines.algorithm import MultisetAlgorithm, Output
from repro.machines.models import ReceiveMode, SendMode


class TwoRoundMultisetAlgorithm(MultisetAlgorithm):
    """Round 1: exchange degrees; round 2: exchange the gathered multisets.

    The output is the multiset of the neighbours' degree-multisets -- a
    genuinely two-round Multiset computation used to exercise the phase-2
    simulation over several rounds.
    """

    def initial_state(self, degree):
        return ("round1", degree)

    def send(self, state, port):
        if state[0] == "round1":
            return state[1]
        return state[1]

    def transition(self, state, received):
        if state[0] == "round1":
            return ("round2", tuple(sorted(received)))
        return Output(tuple(sorted(tuple(sorted(item)) if isinstance(item, tuple) else item for item in received)))


class TestConstruction:
    def test_rejects_non_multiset_algorithms(self):
        from repro.algorithms.leaf_election import LeafElectionAlgorithm

        with pytest.raises(ValueError):
            simulate_multiset_with_set(LeafElectionAlgorithm(), delta=2)

    def test_rejects_broadcast_algorithms(self):
        with pytest.raises(ValueError):
            simulate_multiset_with_set(OddOddNeighboursAlgorithm(), delta=2)

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            simulate_multiset_with_set(GatherDegreesAlgorithm(), delta=-1)

    def test_resulting_model_is_set(self):
        simulation = simulate_multiset_with_set(GatherDegreesAlgorithm(), delta=3)
        assert simulation.model.receive is ReceiveMode.SET
        assert simulation.model.send is SendMode.PORT
        assert simulation.inner.name == "GatherDegreesAlgorithm"


class TestOutputEquivalence:
    @pytest.mark.parametrize(
        "graph",
        [star_graph(3), path_graph(5), cycle_graph(5), complete_graph(4), figure9_graph()],
        ids=["star3", "path5", "cycle5", "K4", "figure9"],
    )
    def test_single_round_inner_is_reproduced_exactly(self, graph, rng):
        inner = GatherDegreesAlgorithm()
        simulation = simulate_multiset_with_set(inner, graph.max_degree())
        for _ in range(3):
            numbering = random_port_numbering(graph, rng)
            assert run(simulation, graph, numbering).outputs == run(inner, graph, numbering).outputs

    def test_two_round_inner_is_reproduced_exactly(self, rng):
        inner = TwoRoundMultisetAlgorithm()
        for graph in (path_graph(4), cycle_graph(4), star_graph(3)):
            simulation = simulate_multiset_with_set(inner, graph.max_degree())
            for _ in range(2):
                numbering = random_port_numbering(graph, rng)
                assert (
                    run(simulation, graph, numbering).outputs
                    == run(inner, graph, numbering).outputs
                )

    def test_exhaustive_over_port_numberings_on_small_graph(self):
        graph = path_graph(3)
        inner = GatherDegreesAlgorithm()
        simulation = simulate_multiset_with_set(inner, graph.max_degree())
        for numbering in port_numberings_to_check(graph):
            assert run(simulation, graph, numbering).outputs == run(inner, graph, numbering).outputs

    def test_isolated_nodes(self):
        graph = Graph(nodes=["a", "b"], edges=[])
        inner = GatherDegreesAlgorithm()
        simulation = simulate_multiset_with_set(inner, delta=0)
        assert run(simulation, graph).outputs == run(inner, graph).outputs


class TestOverhead:
    def test_round_overhead_is_at_most_2_delta_plus_one(self, rng):
        inner = GatherDegreesAlgorithm()
        inner_time = 1
        for graph in (path_graph(4), star_graph(3), figure9_graph()):
            delta = graph.max_degree()
            simulation = simulate_multiset_with_set(inner, delta)
            numbering = random_port_numbering(graph, rng)
            result = run(simulation, graph, numbering)
            assert result.rounds <= inner_time + 2 * delta + 1

    def test_symmetry_breaking_tags_are_distinct(self, rng):
        """Lemma 6: after 2*Delta rounds the (beta, deg, port) tags are distinct."""
        graph = figure9_graph()
        delta = graph.max_degree()
        simulation = simulate_multiset_with_set(GatherDegreesAlgorithm(), delta)
        numbering = random_port_numbering(graph, rng)
        trace = run(simulation, graph, numbering, record_trace=True).trace
        tag_round = 2 * delta + 1
        for node in graph.nodes:
            received = trace.messages_received_by(node, tag_round)
            tags = [message[:4] for message in received.values()]
            assert len(tags) == len(set(tags)) == graph.degree(node)
