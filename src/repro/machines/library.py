"""A library of finite-state machines for the Theorem 2 pipeline.

The correspondence pipeline (:mod:`repro.modal`) needs concrete
:class:`~repro.machines.state_machine.FiniteStateMachine` instances for every
problem class: the campaign ``correspondence`` workload, experiment E4 and
the randomized round-trip property tests all draw from here.

Every machine in this module is *delta-parametric* (built for the ``Delta``
of the graph family it will run on) and its transition function factors
through the class's view of the received vector:

* Vector classes see the padded vector itself,
* Multiset classes see it up to reordering,
* Set classes see it up to reordering and multiplicities.

Factoring through the view is exactly the invariance the Table 4/5
construction needs: the padded vector that
:func:`~repro.modal.algorithm_to_formula.formula_for_machine` rebuilds from a
received-message spec is one *representative* of the spec, so the transition
must not depend on which representative was chosen.  (Machines may still
behave degree-dependently -- the construction guards every spec with a degree
formula, mirroring how the paper's ``z0`` depends on the degree.)

:func:`reference_machine` builds the deterministic per-class workload (one or
two rounds); :func:`random_machine` builds seed-deterministic random machines
whose every table entry is an independent hash-derived choice -- the fuzzing
surface of the round-trip property tests.  Randomness is derived via SHA-256,
never :func:`hash`, so machines are identical across processes and Python
versions.
"""

from __future__ import annotations

import hashlib
from typing import Any, Sequence

from repro.machines.algorithm import NO_MESSAGE
from repro.machines.models import ProblemClass, ReceiveMode, SendMode
from repro.machines.state_machine import FiniteStateMachine

#: The message alphabet of the library machines (``m0`` is added implicitly).
LETTERS = ("x", "y")


def _pick(options: Sequence[Any], *parts: Any) -> Any:
    """A deterministic pseudo-random choice keyed by ``parts`` (SHA-256)."""
    text = "\x1f".join(repr(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return options[int.from_bytes(digest[:8], "big") % len(options)]


def class_view(problem_class: ProblemClass, padded: tuple[Any, ...]) -> Any:
    """The canonical view of a padded received vector in the class's model.

    Two padded vectors with the same view are indistinguishable to the
    class's algorithms, so any transition defined as a function of
    ``(state, class_view(...))`` is automatically a legal machine of the
    class -- and well-defined on the received-message specs of the Table 4/5
    construction.
    """
    receive = problem_class.model.receive
    if receive is ReceiveMode.VECTOR:
        return tuple(padded)
    if receive is ReceiveMode.MULTISET:
        return tuple(sorted(padded, key=repr))
    return tuple(sorted(set(padded), key=repr))


def _letter(problem_class: ProblemClass, state_letter: str, port: int) -> str:
    """The message a library machine sends: port-dependent iff the class sends
    per-port (alternating by port parity), constant under broadcast."""
    if problem_class.model.send is SendMode.PORT and port % 2 == 0:
        return LETTERS[1] if state_letter == LETTERS[0] else LETTERS[0]
    return state_letter


def _predicate(problem_class: ProblemClass, padded: tuple[Any, ...]) -> bool:
    """A class-appropriate 0/1 observable of one round of messages.

    Chosen so that each receive mode's distinguishing power is exercised:
    Set classes test membership, Multiset classes a multiplicity threshold,
    Vector classes the first input port.
    """
    receive = problem_class.model.receive
    if receive is ReceiveMode.VECTOR:
        return padded[0] == LETTERS[0] if padded else False
    if receive is ReceiveMode.MULTISET:
        return sum(1 for message in padded if message == LETTERS[0]) >= 2
    return LETTERS[0] in set(padded)


def reference_machine(
    problem_class: ProblemClass, delta: int, rounds: int = 1
) -> FiniteStateMachine:
    """The deterministic library machine of a class, for ``F(delta)``.

    ``rounds=1``: two intermediate states (chosen by degree parity), each
    node broadcasts/port-sends its state letter and halts on the class
    predicate of what it received.  ``rounds=2``: a second phase first
    records the round-1 predicate in the state, then halts on the XOR of the
    two rounds' predicates -- modal depth 2, and the instance whose fully
    expanded Table 4/5 tree is infeasible while the DAG stays small.
    """
    if delta < 1:
        raise ValueError("delta must be at least 1")
    if rounds not in (1, 2):
        raise ValueError("the reference machines are defined for 1 or 2 rounds")
    phase1 = ("a", "b")
    if rounds == 1:
        intermediate = frozenset(phase1)
    else:
        intermediate = frozenset(phase1) | {
            f"{state}{sign}" for state in phase1 for sign in "+-"
        }

    def state_letter(state: str) -> str:
        if state in phase1:
            return LETTERS[0] if state == "a" else LETTERS[1]
        return LETTERS[0] if state.endswith("+") else LETTERS[1]

    def message(state: str, port: int) -> str:
        return _letter(problem_class, state_letter(state), port)

    def transition(state: str, padded: tuple[Any, ...]) -> Any:
        held = _predicate(problem_class, padded)
        if rounds == 2 and state in phase1:
            return f"{state}{'+' if held else '-'}"
        if rounds == 2:
            return 1 if (state.endswith("+")) != held else 0
        return 1 if held else 0

    return FiniteStateMachine(
        delta_bound=delta,
        intermediate_states=intermediate,
        stopping_states=frozenset({0, 1}),
        messages=frozenset(LETTERS),
        initial_states={degree: phase1[degree % 2] for degree in range(delta + 1)},
        message_table=message,
        transition_table=transition,
        no_message=NO_MESSAGE,
    )


def random_machine(
    problem_class: ProblemClass, delta: int, seed: int
) -> FiniteStateMachine:
    """A seed-deterministic random one-round machine of the class.

    Every table entry -- the initial state of each degree, the message of
    each ``(state, port)`` (port-independent under broadcast), and the
    stopping state reached from each ``(state, view)`` -- is an independent
    hash-derived choice, so sweeping seeds fuzzes the whole Theorem 2
    construction.  The transition factors through :func:`class_view`, which
    is what makes the machine a legal member of the class.
    """
    if delta < 1:
        raise ValueError("delta must be at least 1")
    states = ("a", "b")

    def message(state: str, port: int) -> str:
        if problem_class.model.send is SendMode.BROADCAST:
            return _pick(LETTERS, "msg", seed, state)
        return _pick(LETTERS, "msg", seed, state, port)

    def transition(state: str, padded: tuple[Any, ...]) -> int:
        return _pick((0, 1), "next", seed, state, class_view(problem_class, padded))

    return FiniteStateMachine(
        delta_bound=delta,
        intermediate_states=frozenset(states),
        stopping_states=frozenset({0, 1}),
        messages=frozenset(LETTERS),
        initial_states={
            degree: _pick(states, "init", seed, degree) for degree in range(delta + 1)
        },
        message_table=message,
        transition_table=transition,
        no_message=NO_MESSAGE,
    )


__all__ = [
    "LETTERS",
    "class_view",
    "random_machine",
    "reference_machine",
]
