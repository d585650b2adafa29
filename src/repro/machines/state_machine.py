"""The formal distributed state machine of Section 1.1.

A distributed state machine for the family ``F(Delta)`` is a tuple
``A = (Y, Z, z0, M, m0, mu, delta)``:

* ``Y`` -- finite set of stopping states,
* ``Z`` -- set of intermediate states,
* ``z0`` -- initial state as a function of the node degree,
* ``M``, ``m0`` -- messages and the "no message" symbol,
* ``mu(z, i)`` -- the message sent to output port ``i``,
* ``delta(z, vector)`` -- the state transition on a received message vector of
  length ``Delta`` (padded with ``m0``).

:class:`StateMachine` represents such a tuple with callables;
:class:`FiniteStateMachine` additionally carries explicit finite state and
message sets, which is what the modal compilation of Theorem 2 (parts 3-4)
needs in order to enumerate the formulas ``phi_{z,t}`` and ``theta_{m,j,t}``.
:func:`algorithm_from_machine` runs a formal machine as a Vector-model
:class:`~repro.machines.algorithm.Algorithm`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.machines.algorithm import NO_MESSAGE, Algorithm, VectorAlgorithm


@dataclass(frozen=True)
class StateMachine:
    """The paper's tuple ``(Y, Z, z0, M, m0, mu, delta)`` with callable components.

    ``delta_bound`` is the ``Delta`` for which the machine is defined: message
    vectors passed to ``transition`` always have exactly that length.
    """

    delta_bound: int
    initial_state: Callable[[int], Any]
    message: Callable[[Any, int], Any]
    transition: Callable[[Any, tuple[Any, ...]], Any]
    is_stopping: Callable[[Any], bool]
    output: Callable[[Any], Any]
    no_message: Any = NO_MESSAGE

    def padded_transition(self, state: Any, messages: Sequence[Any]) -> Any:
        """Apply ``delta`` after padding ``messages`` with ``m0`` to length ``Delta``."""
        if len(messages) > self.delta_bound:
            raise ValueError(
                f"received {len(messages)} messages but the machine is defined for "
                f"Delta = {self.delta_bound}"
            )
        padded = tuple(messages) + (self.no_message,) * (self.delta_bound - len(messages))
        if self.is_stopping(state):
            return state
        return self.transition(state, padded)

    def outgoing(self, state: Any, port: int) -> Any:
        """``mu(state, port)``, extended so that halted nodes send ``m0``."""
        if self.is_stopping(state):
            return self.no_message
        return self.message(state, port)


@dataclass(frozen=True)
class FiniteStateMachine:
    """A state machine with explicit finite state and message sets.

    The modal compilation of Theorem 2 enumerates all intermediate states and
    messages, so they must be provided explicitly here.  ``initial_states``
    maps each degree ``0..Delta`` to a state; ``message_table`` maps
    ``(state, port)`` to a message; ``transition_table`` is a callable
    ``delta(state, padded_vector)`` (a callable rather than a table because the
    domain ``Z x M^Delta`` is large but cheap to evaluate on demand).
    """

    delta_bound: int
    intermediate_states: frozenset[Any]
    stopping_states: frozenset[Any]
    messages: frozenset[Any]
    initial_states: dict[int, Any]
    message_table: Callable[[Any, int], Any]
    transition_table: Callable[[Any, tuple[Any, ...]], Any]
    no_message: Any = NO_MESSAGE
    output_map: Callable[[Any], Any] = field(default=lambda state: state)

    def __post_init__(self) -> None:
        overlap = self.intermediate_states & self.stopping_states
        if overlap:
            raise ValueError(f"states {overlap!r} are both intermediate and stopping")
        for degree, state in self.initial_states.items():
            if state not in self.intermediate_states and state not in self.stopping_states:
                raise ValueError(f"initial state for degree {degree} is not a known state")

    def as_state_machine(self) -> StateMachine:
        """View this finite machine through the generic :class:`StateMachine` interface."""
        stopping = self.stopping_states

        return StateMachine(
            delta_bound=self.delta_bound,
            initial_state=lambda degree: self.initial_states[degree],
            message=self.message_table,
            transition=self.transition_table,
            is_stopping=lambda state: state in stopping,
            output=self.output_map,
            no_message=self.no_message,
        )

    def all_states(self) -> frozenset[Any]:
        return self.intermediate_states | self.stopping_states


# ---------------------------------------------------------------------- #
# Adapters
# ---------------------------------------------------------------------- #


class MachineAlgorithm(VectorAlgorithm):
    """An :class:`Algorithm` wrapper around a formal :class:`StateMachine`."""

    def __init__(self, machine: StateMachine, label: str = "MachineAlgorithm") -> None:
        self._machine = machine
        self._label = label

    @property
    def name(self) -> str:
        return self._label

    @property
    def machine(self) -> StateMachine:
        return self._machine

    def initial_state(self, degree: int) -> Any:
        return self._machine.initial_state(degree)

    def send(self, state: Any, port: int) -> Any:
        return self._machine.outgoing(state, port)

    def transition(self, state: Any, received: tuple[Any, ...]) -> Any:
        return self._machine.padded_transition(state, received)

    def is_stopping(self, state: Any) -> bool:
        return self._machine.is_stopping(state)

    def output(self, state: Any) -> Any:
        return self._machine.output(state)


def algorithm_from_machine(machine: StateMachine, label: str = "MachineAlgorithm") -> Algorithm:
    """Wrap a formal state machine as a Vector-model :class:`Algorithm`."""
    return MachineAlgorithm(machine, label=label)
