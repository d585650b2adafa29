"""Theorem 4: every Multiset algorithm can be simulated by a Set algorithm.

The construction is the paper's two-phase algorithm:

**Phase 1 (symmetry breaking, ``2 * Delta`` rounds).**  Every node ``v``
iterates the local algorithm ``C_Delta``: it maintains a pair of sequences
``beta_t(v)`` and ``B_t(v)``, where ``beta_t = (beta_{t-1}, B_{t-1})`` and
``B_t`` is the *set* of messages received in round ``t``; the message sent to
port ``i`` in round ``t`` is ``(beta_t(v), deg(v), i)``.  Lemmas 5 and 6 show
that after ``2 * Delta`` rounds no node has two "indistinguishable"
neighbours: the triples ``(beta_{2Delta}(u), deg(u), pi(u, v))`` are pairwise
distinct over the neighbours ``u`` of any node ``v``.

**Phase 2 (simulation).**  The wrapped Multiset algorithm is executed, but
every message ``a`` it would send to port ``i`` is shipped as the 4-tuple
``(beta_{2Delta}(u), deg(u), i, a)``.  Because the first three components are
distinct across a node's neighbours, the *set* of received tuples determines
the *multiset* of the underlying messages, which is exactly what the wrapped
algorithm needs.

The wrapper halts one round after its own simulated node and all of its
neighbours' simulated nodes have halted, so the total running time is at most
``T + 2 * Delta + 1`` rounds for a Multiset algorithm running in ``T`` rounds
(the paper states ``T + O(Delta)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.machines.algorithm import NO_MESSAGE, Algorithm, Output, SetAlgorithm
from repro.machines.models import ReceiveMode, SendMode
from repro.machines.multiset import FrozenMultiset

#: Marker distinguishing the two phases inside wrapper states.
_PHASE_BREAK = "symmetry-breaking"
_PHASE_SIMULATE = "simulate"


@dataclass(frozen=True)
class _Phase1State:
    """State during the symmetry-breaking phase: ``(t, beta_t, B_t)``."""

    rounds_done: int
    beta: Any
    bag: frozenset
    degree: int


@dataclass(frozen=True)
class _Phase2State:
    """State during the simulation phase."""

    beta: Any
    inner: Any
    degree: int


class SetSimulationOfMultiset(SetAlgorithm):
    """The Set-model algorithm ``B_Delta`` simulating a Multiset algorithm ``A_Delta``.

    Parameters
    ----------
    inner:
        The Multiset algorithm to simulate.  (Any algorithm whose receive mode
        is MULTISET and send mode is PORT is accepted.)
    delta:
        The maximum degree ``Delta`` of the graph family; determines the
        length ``2 * Delta`` of the symmetry-breaking phase.
    """

    def __init__(self, inner: Algorithm, delta: int) -> None:
        if inner.model.receive is not ReceiveMode.MULTISET:
            raise ValueError("SetSimulationOfMultiset expects a Multiset-receive algorithm")
        if inner.model.send is not SendMode.PORT:
            raise ValueError("SetSimulationOfMultiset expects a port-addressed algorithm")
        if delta < 0:
            raise ValueError("delta must be non-negative")
        self._inner = inner
        self._delta = delta
        self._phase1_rounds = 2 * delta

    @property
    def name(self) -> str:
        return f"SetSimulationOfMultiset({self._inner.name}, delta={self._delta})"

    @property
    def inner(self) -> Algorithm:
        return self._inner

    # ------------------------------------------------------------------ #

    def initial_state(self, degree: int) -> Any:
        if self._phase1_rounds == 0:
            return self._start_phase2(beta=(), degree=degree)
        return _Phase1State(rounds_done=0, beta=(), bag=frozenset(), degree=degree)

    def _start_phase2(self, beta: Any, degree: int) -> Any:
        inner_state = self._inner.initial_state(degree)
        if self._inner.is_stopping(inner_state) and degree == 0:
            # An isolated node can never learn anything more; finish immediately.
            return Output(self._inner.output(inner_state))
        return _Phase2State(beta=beta, inner=inner_state, degree=degree)

    # ------------------------------------------------------------------ #
    # Message construction
    # ------------------------------------------------------------------ #

    def send(self, state: Any, port: int) -> Any:
        if isinstance(state, _Phase1State):
            beta_next = (state.beta, state.bag)
            return (_PHASE_BREAK, beta_next, state.degree, port)
        if isinstance(state, _Phase2State):
            if self._inner.is_stopping(state.inner):
                payload = NO_MESSAGE
            else:
                payload = self._inner.send(state.inner, port)
            return (_PHASE_SIMULATE, state.beta, state.degree, port, payload)
        raise ValueError(f"unexpected wrapper state {state!r}")

    # ------------------------------------------------------------------ #
    # Transitions
    # ------------------------------------------------------------------ #

    def transition(self, state: Any, received: frozenset) -> Any:
        if isinstance(state, _Phase1State):
            beta_next = (state.beta, state.bag)
            rounds_done = state.rounds_done + 1
            bag_next = frozenset(received)
            if rounds_done == self._phase1_rounds:
                return self._start_phase2(beta=(beta_next, bag_next), degree=state.degree)
            return _Phase1State(
                rounds_done=rounds_done, beta=beta_next, bag=bag_next, degree=state.degree
            )
        if isinstance(state, _Phase2State):
            return self._phase2_step(state, received)
        raise ValueError(f"unexpected wrapper state {state!r}")

    def _phase2_step(self, state: _Phase2State, received: frozenset) -> Any:
        if self._inner.is_stopping(state.inner):
            # Halt once every neighbour's simulated node has halted as well;
            # until then keep providing the "no message" placeholders they need.
            neighbours_done = all(
                message == NO_MESSAGE
                or (isinstance(message, tuple) and len(message) == 5 and message[4] == NO_MESSAGE)
                for message in received
            )
            if neighbours_done:
                return Output(self._inner.output(state.inner))
            return state
        # Reconstruct the multiset of simulated messages: by Lemma 6 the
        # (beta, degree, port) prefixes are distinct across neighbours, so each
        # received tuple corresponds to exactly one neighbour.
        simulated = [
            message[4]
            for message in received
            if isinstance(message, tuple) and len(message) == 5 and message[0] == _PHASE_SIMULATE
        ]
        # The "no message" placeholders of halted neighbours are kept: the
        # plain execution of the wrapped algorithm would receive them too.
        inner_received = FrozenMultiset(simulated)
        inner_next = self._inner.transition(state.inner, inner_received)
        return _Phase2State(beta=state.beta, inner=inner_next, degree=state.degree)


def simulate_multiset_with_set(inner: Algorithm, delta: int) -> SetSimulationOfMultiset:
    """Convenience constructor for :class:`SetSimulationOfMultiset` (Theorem 4)."""
    return SetSimulationOfMultiset(inner, delta)
