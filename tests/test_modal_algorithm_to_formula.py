"""Tests for Theorem 2, parts 3-4: compiling finite-state algorithms into formulas."""

from __future__ import annotations

import dataclasses

import pytest

from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.logic.syntax import modal_depth
from repro.machines.models import ProblemClass
from repro.machines.state_machine import FiniteStateMachine, algorithm_from_machine
from repro.modal.algorithm_to_formula import formula_for_machine
from repro.modal.correspondence import algorithm_matches_formula

GRAPHS = (path_graph(2), path_graph(3), star_graph(2), cycle_graph(3), cycle_graph(4))


def _some_odd_neighbour_machine(delta: int = 2) -> FiniteStateMachine:
    """Broadcast parity, accept iff some neighbour is odd (an SB machine)."""

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


def _odd_odd_machine(delta: int = 2) -> FiniteStateMachine:
    """Broadcast parity, accept iff the number of odd neighbours is odd (an MB machine)."""

    def message(state, port):
        return "O" if state == "odd" else "E"

    def transition(state, vector):
        return sum(1 for m in vector if m == "O") % 2

    return FiniteStateMachine(
        delta_bound=delta,
        intermediate_states=frozenset({"even", "odd"}),
        stopping_states=frozenset({0, 1}),
        messages=frozenset({"E", "O"}),
        initial_states={d: ("odd" if d % 2 else "even") for d in range(delta + 1)},
        message_table=message,
        transition_table=transition,
    )


def _leaf_election_machine(delta: int = 2) -> FiniteStateMachine:
    """Send the port number through each port; a leaf that hears 1 accepts (an SV machine)."""

    def message(state, port):
        return port

    def transition(state, vector):
        if state != "leaf":
            return 0
        return 1 if 1 in set(vector) else 0

    return FiniteStateMachine(
        delta_bound=delta,
        intermediate_states=frozenset({"leaf", "inner"}),
        stopping_states=frozenset({0, 1}),
        messages=frozenset(range(1, delta + 1)),
        initial_states={0: "inner", 1: "leaf", 2: "inner"},
        message_table=message,
        transition_table=transition,
    )


def _min_degree_parity_machine(delta: int = 2) -> FiniteStateMachine:
    """A Vector machine: accept iff the message received at port 1 is 'O'."""

    def message(state, port):
        return "O" if state == "odd" else "E"

    def transition(state, vector):
        return 1 if vector and vector[0] == "O" else 0

    return FiniteStateMachine(
        delta_bound=delta,
        intermediate_states=frozenset({"even", "odd"}),
        stopping_states=frozenset({0, 1}),
        messages=frozenset({"E", "O"}),
        initial_states={d: ("odd" if d % 2 else "even") for d in range(delta + 1)},
        message_table=message,
        transition_table=transition,
    )


class TestBasicProperties:
    def test_modal_depth_equals_running_time(self):
        machine = _some_odd_neighbour_machine()
        formula = formula_for_machine(machine, ProblemClass.SB, running_time=1)
        assert modal_depth(formula) == 1

    def test_time_zero_formula_is_propositional(self):
        machine = _some_odd_neighbour_machine()
        # With T = 0 no node has halted in an accepting state, so the formula
        # is unsatisfiable (but well-formed and of modal depth 0).
        formula = formula_for_machine(machine, ProblemClass.SB, running_time=0)
        assert modal_depth(formula) == 0

    def test_negative_running_time_rejected(self):
        with pytest.raises(ValueError):
            formula_for_machine(_some_odd_neighbour_machine(), ProblemClass.SB, running_time=-1)

    @pytest.mark.parametrize("running_time", [1, 2])
    def test_a_transition_into_an_undeclared_state_is_rejected(self, running_time):
        """Loudly, in the last round (which skips non-accepting targets) and
        in an earlier one."""
        machine = dataclasses.replace(
            _some_odd_neighbour_machine(),
            transition_table=lambda state, vector: "lost" if "O" in set(vector) else 0,
        )
        with pytest.raises(ValueError, match="undeclared state 'lost'"):
            formula_for_machine(machine, ProblemClass.SB, running_time=running_time)


class TestCorrectnessPerClass:
    @pytest.mark.parametrize(
        "factory, problem_class",
        [
            (_some_odd_neighbour_machine, ProblemClass.SB),
            (_odd_odd_machine, ProblemClass.MB),
            (_leaf_election_machine, ProblemClass.SV),
            (_leaf_election_machine, ProblemClass.MV),
            (_min_degree_parity_machine, ProblemClass.VB),
            (_min_degree_parity_machine, ProblemClass.VV),
        ],
        ids=["SB", "MB", "SV", "MV", "VB", "VV"],
    )
    def test_formula_matches_machine(self, factory, problem_class):
        machine = factory()
        formula = formula_for_machine(machine, problem_class, running_time=1)
        wrapped = algorithm_from_machine(machine.as_state_machine())
        assert algorithm_matches_formula(
            wrapped, formula, problem_class, GRAPHS, exhaustive_limit=120, samples=8
        )

    def test_formula_matches_machine_on_vvc(self):
        machine = _min_degree_parity_machine()
        formula = formula_for_machine(machine, ProblemClass.VVC, running_time=1)
        wrapped = algorithm_from_machine(machine.as_state_machine())
        assert algorithm_matches_formula(
            wrapped, formula, ProblemClass.VVC, GRAPHS, exhaustive_limit=60, samples=5
        )


class TestRoundTrip:
    def test_machine_formula_machine_round_trip(self):
        """Compile a machine to a formula, the formula back to an algorithm, compare."""
        from repro.execution.runner import run
        from repro.graphs.ports import random_port_numbering
        from repro.modal.formula_to_algorithm import algorithm_for_formula
        import random

        machine = _odd_odd_machine()
        formula = formula_for_machine(machine, ProblemClass.MB, running_time=1)
        recompiled = algorithm_for_formula(formula, ProblemClass.MB)
        original = algorithm_from_machine(machine.as_state_machine())
        rng = random.Random(7)
        for graph in GRAPHS:
            numbering = random_port_numbering(graph, rng)
            original_outputs = run(original, graph, numbering).outputs
            recompiled_outputs = run(recompiled, graph, numbering).outputs
            assert {n: v for n, v in original_outputs.items()} == {
                n: 1 if v == 1 else 0 for n, v in recompiled_outputs.items()
            }
