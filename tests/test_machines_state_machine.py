"""Unit tests for the formal state machine and its Algorithm wrapper."""

from __future__ import annotations

import pytest

from repro.algorithms.leaf_election import LeafElectionAlgorithm
from repro.execution.runner import run
from repro.graphs.generators import path_graph
from repro.machines.algorithm import Output
from repro.machines.state_machine import FiniteStateMachine, algorithm_from_machine


def _parity_machine(delta: int = 2) -> FiniteStateMachine:
    """A finite-state SB-style machine: output 1 iff some neighbour has odd degree."""

    def message(state, port):
        return "O" if state == "odd" else "E"

    def transition(state, vector):
        return 1 if "O" in set(vector) else 0

    return FiniteStateMachine(
        delta_bound=delta,
        intermediate_states=frozenset({"even", "odd"}),
        stopping_states=frozenset({0, 1}),
        messages=frozenset({"E", "O"}),
        initial_states={d: ("odd" if d % 2 else "even") for d in range(delta + 1)},
        message_table=message,
        transition_table=transition,
    )


class TestFiniteStateMachine:
    def test_overlapping_state_sets_rejected(self):
        with pytest.raises(ValueError):
            FiniteStateMachine(
                delta_bound=1,
                intermediate_states=frozenset({"s"}),
                stopping_states=frozenset({"s"}),
                messages=frozenset({"m"}),
                initial_states={0: "s", 1: "s"},
                message_table=lambda state, port: "m",
                transition_table=lambda state, vector: "s",
            )

    def test_unknown_initial_state_rejected(self):
        with pytest.raises(ValueError):
            FiniteStateMachine(
                delta_bound=1,
                intermediate_states=frozenset({"s"}),
                stopping_states=frozenset(),
                messages=frozenset({"m"}),
                initial_states={0: "mystery", 1: "s"},
                message_table=lambda state, port: "m",
                transition_table=lambda state, vector: "s",
            )

    def test_all_states(self):
        machine = _parity_machine()
        assert machine.all_states() == frozenset({"even", "odd", 0, 1})

    def test_as_state_machine_behaviour(self):
        generic = _parity_machine().as_state_machine()
        assert generic.outgoing("odd", 1) == "O"
        assert generic.outgoing(1, 1) == generic.no_message  # halted nodes send m0
        assert generic.padded_transition("even", ("O",)) == 1
        assert generic.padded_transition("even", ("E",)) == 0
        assert generic.padded_transition(0, ("O",)) == 0  # halted nodes do not move

    def test_padded_transition_rejects_oversized_vectors(self):
        generic = _parity_machine(delta=1).as_state_machine()
        with pytest.raises(ValueError):
            generic.padded_transition("even", ("O", "O"))


class TestMachineAsAlgorithm:
    def test_wrapped_machine_runs(self):
        algorithm = algorithm_from_machine(_parity_machine(delta=2).as_state_machine())
        result = run(algorithm, path_graph(3))
        # Ends of the path have a degree-2 neighbour (even), middle has two odd ones.
        assert result.outputs == {0: 0, 1: 1, 2: 0}

    def test_wrapped_machine_label(self):
        algorithm = algorithm_from_machine(
            _parity_machine().as_state_machine(), label="parity"
        )
        assert algorithm.name == "parity"


class TestOutputProtocol:
    def test_output_wrapper(self):
        algorithm = LeafElectionAlgorithm()
        assert algorithm.is_stopping(Output(1))
        assert not algorithm.is_stopping("running")
        assert algorithm.output(Output("value")) == "value"

    def test_output_of_non_stopping_state_raises(self):
        with pytest.raises(ValueError):
            LeafElectionAlgorithm().output("running")
