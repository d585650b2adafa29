"""Tests for the labelled-graph extension (Section 3.4: local inputs)."""

from __future__ import annotations

from repro.execution.runner import run
from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.logic.semantics import extension
from repro.logic.syntax import Diamond, Prop
from repro.machines.algorithm import MultisetBroadcastAlgorithm, Output
from repro.machines.multiset import FrozenMultiset
from repro.modal.encoding import KripkeVariant, input_proposition, kripke_encoding


class NeighbourHasMark(MultisetBroadcastAlgorithm):
    """Output 1 iff some neighbour carries the local input ``'mark'`` (MB(1))."""

    def initial_state(self, degree: int):
        return "plain"

    def initial_state_with_input(self, degree: int, local_input):
        return "marked" if local_input == "mark" else "plain"

    def broadcast(self, state):
        return state

    def transition(self, state, received: FrozenMultiset):
        return Output(1 if "marked" in received else 0)


class CountMarkedNeighbours(MultisetBroadcastAlgorithm):
    """Output the number of marked neighbours."""

    def initial_state(self, degree: int):
        return "plain"

    def initial_state_with_input(self, degree: int, local_input):
        return "marked" if local_input == "mark" else "plain"

    def broadcast(self, state):
        return state

    def transition(self, state, received: FrozenMultiset):
        return Output(received.count("marked"))


class TestRunnerWithInputs:
    def test_inputs_change_the_execution(self):
        graph = star_graph(3)
        marked = run(NeighbourHasMark(), graph, inputs={0: "mark"}).outputs
        unmarked = run(NeighbourHasMark(), graph, inputs={}).outputs
        assert marked == {0: 0, 1: 1, 2: 1, 3: 1}
        assert unmarked == {node: 0 for node in graph.nodes}

    def test_missing_inputs_default_to_none(self):
        graph = path_graph(3)
        outputs = run(NeighbourHasMark(), graph, inputs={1: "mark"}).outputs
        assert outputs == {0: 1, 1: 0, 2: 1}

    def test_without_inputs_the_default_hook_is_used(self):
        graph = cycle_graph(4)
        assert run(NeighbourHasMark(), graph).outputs == {node: 0 for node in graph.nodes}

    def test_counting_marked_neighbours(self):
        graph = star_graph(4)
        outputs = run(
            CountMarkedNeighbours(), graph, inputs={1: "mark", 2: "mark"}
        ).outputs
        assert outputs[0] == 2
        assert outputs[3] == 0

    def test_plain_algorithms_ignore_inputs(self):
        from repro.algorithms.parity import OddOddNeighboursAlgorithm

        graph = path_graph(4)
        with_inputs = run(OddOddNeighboursAlgorithm(), graph, inputs={0: "anything"}).outputs
        without = run(OddOddNeighboursAlgorithm(), graph).outputs
        assert with_inputs == without


class TestLabelledEncoding:
    def test_input_propositions_in_the_valuation(self):
        graph = path_graph(3)
        encoding = kripke_encoding(
            graph, variant=KripkeVariant.NEITHER, inputs={0: "a", 1: "b", 2: "a"}
        )
        assert encoding.valuation_of(input_proposition("a")) == frozenset({0, 2})
        assert encoding.valuation_of(input_proposition("b")) == frozenset({1})

    def test_formulas_over_inputs(self):
        graph = star_graph(3)
        encoding = kripke_encoding(
            graph, variant=KripkeVariant.NEITHER, inputs={1: "mark"}
        )
        has_marked_neighbour = Diamond(Prop(input_proposition("mark")), index=("*", "*"))
        assert extension(encoding, has_marked_neighbour) == frozenset({0})

    def test_inputs_can_separate_otherwise_bisimilar_nodes(self):
        from repro.logic.bisimulation import bisimilar_within

        graph = cycle_graph(4)
        plain = kripke_encoding(graph, variant=KripkeVariant.NEITHER)
        labelled = kripke_encoding(
            graph, variant=KripkeVariant.NEITHER, inputs={0: "mark"}
        )
        assert bisimilar_within(plain, graph.nodes)
        assert not bisimilar_within(labelled, graph.nodes)
