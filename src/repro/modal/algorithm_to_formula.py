"""Compiling local algorithms into modal formulas (Theorem 2, parts 3-4).

Given a finite-state local algorithm ``A`` (a :class:`~repro.machines.
state_machine.FiniteStateMachine`) of one of the seven classes and its running
time ``T``, this module constructs a formula ``psi`` of the matching logic
such that for every graph ``G`` of maximum degree at most ``Delta`` and every
port numbering ``p``, the extension of ``psi`` in the corresponding Kripke
encoding of ``(G, p)`` equals the set of nodes on which ``A`` outputs 1.  The
modal depth of ``psi`` equals ``T``, mirroring the paper's correspondence
between running time and modal depth (Table 3).

The construction follows Tables 4 and 5: formulas ``phi_{z,t}`` ("the local
state at time ``t`` is ``z``"), ``theta_{m,j,t}`` ("the node sends ``m`` to
port ``j`` in round ``t``") and diamond formulas describing the received
messages are built by recursion on ``t``.  The received-message descriptions
are enumerated explicitly (vectors, multisets or sets of messages, depending
on the class), so the *tree* size of the output formula grows quickly with
``Delta``, ``|M|`` and ``T`` -- exactly as in the paper, where the
construction is syntactic.  The emitted formula, however, is a node of the
hash-consed pool (:mod:`repro.logic.syntax`): the ``phi``/``theta`` subterms
that every spec repeats are memoised (``theta`` by ``(message, port, time)``
on top of the pool's structural dedup), so the construction materialises one
DAG node per *distinct* subterm.  ``psi`` is the disjunction of ``phi_{z,T}``
over the accepting states only, so the last round builds just those and the
received-message conditions of the transitions into them: a compilation grows
the pool by about the DAG it returns (VV at ``Delta = 4``: 37,762 nodes for a
37,760-node DAG).  Machines whose Table 4/5 tree has millions of nodes compile
to DAGs orders of magnitude smaller and evaluate on the compiled bitset
checker without ever expanding the tree.

Infeasible coordinates fail fast instead of hanging:
:func:`predict_formula_nodes` computes (exactly, with big ints) the number
of received-message specs the construction would enumerate and an upper
estimate of the pool nodes it would allocate; :func:`formula_for_machine`
raises :class:`FormulaSizeError` carrying that prediction when it exceeds
the ``max_formula_nodes`` budget, and a live pool-growth guard backstops the
estimate during construction.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from typing import Any

from repro.logic.syntax import (
    And,
    Diamond,
    Formula,
    GradedDiamond,
    Not,
    Prop,
    conjunction,
    disjunction,
    formula_pool,
)
from repro.machines.models import ProblemClass, ReceiveMode, SendMode
from repro.machines.state_machine import FiniteStateMachine
from repro.modal.encoding import STAR, degree_proposition
from repro.obs import metrics as _metrics

#: Default budget on the pool nodes one compilation may allocate.  Roughly
#: bounds both construction time and memory (a pool node costs a few hundred
#: bytes); raise it explicitly for heroic instances.
DEFAULT_MAX_FORMULA_NODES = 500_000


class FormulaSizeError(ValueError):
    """The Table 4/5 construction would exceed its node budget.

    Attributes
    ----------
    predicted_nodes:
        Upper estimate of the pool nodes the construction would allocate
        (exact spec enumeration, per-spec node cost over-approximated).
    specs:
        The exact number of received-message specs that would be enumerated.
    budget:
        The ``max_formula_nodes`` value that was exceeded.
    """

    def __init__(self, predicted_nodes: int, specs: int, budget: int, detail: str) -> None:
        super().__init__(
            f"the Theorem 2 construction would allocate ~{predicted_nodes} formula "
            f"nodes over {specs} received-message specs, exceeding the budget of "
            f"{budget} ({detail}); raise max_formula_nodes (or pass None) to force it"
        )
        self.predicted_nodes = predicted_nodes
        self.specs = specs
        self.budget = budget


def _degree_formula(degree: int, delta: int) -> Formula:
    """The formula asserting that a node has the given degree."""
    if degree >= 1:
        return Prop(degree_proposition(degree))
    return conjunction(Not(Prop(degree_proposition(k))) for k in range(1, delta + 1))


def _sorted_messages(machine: FiniteStateMachine) -> list[Any]:
    return sorted(machine.messages | {machine.no_message}, key=repr)


# ---------------------------------------------------------------------- #
# Received-message specifications
#
# A *spec* describes one possible way the messages of a single round can be
# delivered to a node of degree d, at the level of detail visible to the
# class.  Each spec yields (a) the padded message vector handed to delta and
# (b) the modal condition formula asserting that exactly this spec occurred.
# ---------------------------------------------------------------------- #


def _vector_specs(messages: Sequence[Any], delta: int, degree: int) -> Iterator[tuple]:
    """Specs for the Vector classes: one (message, sender out-port) pair per in-port."""
    yield from itertools.product(
        itertools.product(messages, range(1, delta + 1)), repeat=degree
    )


def _broadcast_vector_specs(messages: Sequence[Any], degree: int) -> Iterator[tuple]:
    """Specs for VB: one message per in-port (no out-port information)."""
    yield from itertools.product(messages, repeat=degree)


def _profile_specs(cells: Sequence[Any], degree: int) -> Iterator[tuple]:
    """Specs for the Multiset classes: a multiset of ``degree`` cells."""
    yield from itertools.combinations_with_replacement(cells, degree)


def _set_specs(cells: Sequence[Any], degree: int) -> Iterator[tuple]:
    """Specs for the Set classes: a non-empty set of at most ``degree`` cells."""
    if degree == 0:
        yield ()
        return
    for size in range(1, degree + 1):
        yield from itertools.combinations(cells, size)


def _pad(real: list[Any], degree: int, delta: int, no_message: Any) -> tuple[Any, ...]:
    """Extend the delivered messages to a padded vector of length ``delta``."""
    if len(real) < degree:
        # Set semantics: duplicate an arbitrary delivered message so that the
        # vector has exactly ``degree`` real entries; a set-invariant delta
        # cannot tell the difference.
        filler = real[0] if real else no_message
        real = real + [filler] * (degree - len(real))
    return tuple(real) + (no_message,) * (delta - degree)


# ---------------------------------------------------------------------- #
# Size prediction
# ---------------------------------------------------------------------- #


def _spec_count(model: Any, m: int, delta: int, degree: int) -> int:
    """Exactly how many received-message specs one ``(state, degree)`` pair has."""
    receive, send = model.receive, model.send
    if receive is ReceiveMode.VECTOR and send is SendMode.PORT:
        return (m * delta) ** degree
    if receive is ReceiveMode.VECTOR and send is SendMode.BROADCAST:
        return m**degree
    if receive is ReceiveMode.MULTISET and send is SendMode.PORT:
        return math.comb(m * delta + degree - 1, degree)
    if receive is ReceiveMode.MULTISET and send is SendMode.BROADCAST:
        return math.comb(m + degree - 1, degree)
    cells = m * delta if send is SendMode.PORT else m
    if degree == 0:
        return 1
    return sum(math.comb(cells, size) for size in range(1, degree + 1))


def predict_formula_nodes(
    machine: FiniteStateMachine, problem_class: ProblemClass, running_time: int
) -> tuple[int, int]:
    """``(predicted_nodes, specs)`` for the Table 4/5 construction.

    ``specs`` is the exact number of received-message specs the construction
    enumerates (the quantity that explodes in ``Delta``, ``|M|`` and ``T``);
    ``predicted_nodes`` multiplies it by an upper estimate of the pool nodes
    allocated per spec, plus the memoised ``theta`` table.  Both are plain
    big-int arithmetic -- cheap even when the answer has dozens of digits.
    """
    delta = machine.delta_bound
    model = problem_class.model
    m = len(machine.messages | {machine.no_message})
    states = len(machine.intermediate_states) + len(machine.stopping_states)
    intermediate = len(machine.intermediate_states)
    specs_per_degree = [_spec_count(model, m, delta, d) for d in range(delta + 1)]
    specs = running_time * intermediate * sum(specs_per_degree)
    if model.receive is ReceiveMode.SET:
        cells = m * delta if model.send is SendMode.PORT else m
        per_spec = [3 * cells + 4] * (delta + 1)
    else:
        per_spec = [2 * d + 4 for d in range(delta + 1)]
    nodes = running_time * intermediate * sum(
        count * cost for count, cost in zip(specs_per_degree, per_spec)
    )
    # theta_{m,j,t}: a disjunction over states, memoised per (message, port, time).
    ports = delta if model.send is SendMode.PORT else 1
    nodes += m * ports * max(running_time, 1) * (states + 1)
    # Degree formulas, initial phi layer, final disjunction.
    nodes += (delta + 2) * (states + delta + 2)
    return nodes, specs


# ---------------------------------------------------------------------- #
# The main construction
# ---------------------------------------------------------------------- #


def formula_for_machine(
    machine: FiniteStateMachine,
    problem_class: ProblemClass,
    running_time: int,
    accepting_output: Any = 1,
    max_formula_nodes: int | None = DEFAULT_MAX_FORMULA_NODES,
) -> Formula:
    """The formula ``psi`` capturing the algorithm's output-1 set (Theorem 2).

    Rounds ``1..T-1`` build ``phi_{z,t}`` for every state ``z``.  Round ``T``
    builds ``phi_{z,T}`` only for the accepting stopping states, whose
    disjunction is ``psi``, and a received-message condition only when a
    transition into one of them uses it, so the pool grows by about
    ``dag_size(psi)``.  A transition into a state the machine does not
    declare raises ``ValueError``.

    Parameters
    ----------
    machine:
        A finite-state machine that belongs to ``problem_class``'s algorithm
        model (its ``delta`` must be invariant under the class's projection of
        the received vector; this is assumed, not checked here -- see
        :mod:`repro.machines.inspection`).
    problem_class:
        The class determining both the logic and the Kripke encoding.
    running_time:
        A round bound ``T`` by which the machine halts on every admissible
        input; the resulting formula has modal depth ``T``.
    accepting_output:
        The local output whose indicator the formula defines (default 1).
    max_formula_nodes:
        Budget on the pool nodes the construction may allocate.  Infeasible
        ``(Delta, |M|, T)`` coordinates raise :class:`FormulaSizeError`
        (with the exact spec count and the predicted node count) *before*
        enumerating anything; a live pool-growth guard backstops the
        prediction during construction.  ``None`` disables both checks.
    """
    if running_time < 0:
        raise ValueError("running_time must be non-negative")
    if max_formula_nodes is not None:
        predicted, spec_total = predict_formula_nodes(machine, problem_class, running_time)
        if predicted > max_formula_nodes:
            raise FormulaSizeError(
                predicted, spec_total, max_formula_nodes,
                f"Delta={machine.delta_bound}, |M|={len(machine.messages)}, "
                f"T={running_time}, class={problem_class}",
            )
    pool = formula_pool()
    pool_start = len(pool)
    delta = machine.delta_bound
    model = problem_class.model
    messages = _sorted_messages(machine)
    intermediate = sorted(machine.intermediate_states, key=repr)
    stopping = sorted(machine.stopping_states, key=repr)
    all_states = intermediate + stopping
    declared = machine.all_states()

    # phi[(state, t)]: "the node is in this state at time t".
    phi: dict[tuple[Any, int], Formula] = {}
    for state in all_states:
        matching_degrees = [
            degree
            for degree in range(0, delta + 1)
            if machine.initial_states.get(degree) == state
        ]
        phi[(state, 0)] = disjunction(
            _degree_formula(degree, delta) for degree in matching_degrees
        )

    def outgoing_message(state: Any, port: int) -> Any:
        if state in machine.stopping_states:
            return machine.no_message
        return machine.message_table(state, port)

    theta_cache: dict[tuple[Any, int, int], Formula] = {}

    def theta(message: Any, port: int, time: int) -> Formula:
        """``theta_{m,j,t}``: the node sends ``message`` to ``port`` in round ``time``.

        Memoised per ``(message, port, time)``: every spec of a round refers
        to the same theta family, so each member is built once and every
        later reference is a pooled-node reuse.
        """
        key = (message, port, time)
        result = theta_cache.get(key)
        if result is None:
            result = theta_cache[key] = disjunction(
                phi[(state, time - 1)]
                for state in all_states
                if outgoing_message(state, port) == message
            )
        return result

    def spec_vector(spec: tuple, degree: int) -> tuple[Any, ...]:
        """The padded message vector that ``spec`` hands to the machine."""
        if model.send is SendMode.PORT:
            return _pad([message for message, _ in spec], degree, delta, machine.no_message)
        return _pad(list(spec), degree, delta, machine.no_message)

    def spec_condition(spec: tuple, time: int) -> Formula:
        """The modal condition asserting that ``spec`` occurred in round ``time``."""
        receive, send = model.receive, model.send
        if receive is ReceiveMode.VECTOR and send is SendMode.PORT:
            return conjunction(
                Diamond(theta(message, out_port, time), index=(in_port, out_port))
                for in_port, (message, out_port) in enumerate(spec, start=1)
            )
        if receive is ReceiveMode.VECTOR and send is SendMode.BROADCAST:
            return conjunction(
                Diamond(theta(message, 1, time), index=(in_port, STAR))
                for in_port, message in enumerate(spec, start=1)
            )
        if receive is ReceiveMode.MULTISET and send is SendMode.PORT:
            counts: dict[tuple[Any, int], int] = {}
            for cell in spec:
                counts[cell] = counts.get(cell, 0) + 1
            return conjunction(
                GradedDiamond(theta(message, out_port, time), grade=count, index=(STAR, out_port))
                for (message, out_port), count in sorted(counts.items(), key=repr)
            )
        if receive is ReceiveMode.MULTISET and send is SendMode.BROADCAST:
            message_counts: dict[Any, int] = {}
            for message in spec:
                message_counts[message] = message_counts.get(message, 0) + 1
            return conjunction(
                GradedDiamond(theta(message, 1, time), grade=count, index=(STAR, STAR))
                for message, count in sorted(message_counts.items(), key=repr)
            )
        if receive is ReceiveMode.SET and send is SendMode.PORT:
            present = set(spec)
            absent = [
                cell
                for cell in itertools.product(messages, range(1, delta + 1))
                if cell not in present
            ]
            return conjunction(
                itertools.chain(
                    (
                        Diamond(theta(message, out_port, time), index=(STAR, out_port))
                        for message, out_port in sorted(present, key=repr)
                    ),
                    (
                        Not(Diamond(theta(message, out_port, time), index=(STAR, out_port)))
                        for message, out_port in absent
                    ),
                )
            )
        # Set receive, broadcast send (SB).
        present_messages = set(spec)
        absent_messages = [message for message in messages if message not in present_messages]
        return conjunction(
            itertools.chain(
                (
                    Diamond(theta(message, 1, time), index=(STAR, STAR))
                    for message in sorted(present_messages, key=repr)
                ),
                (
                    Not(Diamond(theta(message, 1, time), index=(STAR, STAR)))
                    for message in absent_messages
                ),
            )
        )

    def specs_for_degree(degree: int) -> Iterator[tuple]:
        receive, send = model.receive, model.send
        if receive is ReceiveMode.VECTOR and send is SendMode.PORT:
            return _vector_specs(messages, delta, degree)
        if receive is ReceiveMode.VECTOR and send is SendMode.BROADCAST:
            return _broadcast_vector_specs(messages, degree)
        if receive is ReceiveMode.MULTISET and send is SendMode.PORT:
            cells = list(itertools.product(messages, range(1, delta + 1)))
            return _profile_specs(cells, degree)
        if receive is ReceiveMode.MULTISET and send is SendMode.BROADCAST:
            return _profile_specs(messages, degree)
        if receive is ReceiveMode.SET and send is SendMode.PORT:
            cells = list(itertools.product(messages, range(1, delta + 1)))
            return _set_specs(cells, degree)
        return _set_specs(messages, degree)

    def check_pool_growth(where: str) -> None:
        """Backstop for a prediction that underestimated."""
        if max_formula_nodes is not None:
            grown = len(pool) - pool_start
            if grown > max_formula_nodes:
                raise FormulaSizeError(
                    grown, 0, max_formula_nodes, f"live pool growth at {where}"
                )

    # psi is the disjunction of phi_{z,T} over the accepting states, so the
    # last round builds those and nothing that only other states would reach.
    accepting = [state for state in stopping if machine.output_map(state) == accepting_output]
    rows: dict[int, tuple[Formula, list[tuple]]] = {}

    def row(degree: int) -> tuple[Formula, list[tuple]]:
        """The degree guard and the ``(spec, padded vector)`` pairs of ``degree``.

        A padded vector depends on neither the state nor the round, so each
        row is built once, on first use: only if some intermediate state is
        there to use it, and never before the live guard has seen the
        smaller degrees' growth.
        """
        result = rows.get(degree)
        if result is None:
            result = rows[degree] = (
                _degree_formula(degree, delta),
                [(spec, spec_vector(spec, degree)) for spec in specs_for_degree(degree)],
            )
        return result

    # Build phi for t = 1..T.
    for time in range(1, running_time + 1):
        targets = accepting if time == running_time else all_states
        accumulator: dict[Any, list[Formula]] = {state: [] for state in targets}
        # A halted node stays halted, no matter what it receives.
        for state in stopping:
            if state in accumulator:
                accumulator[state].append(phi[(state, time - 1)])
        # A received-message condition does not depend on the state: it is
        # built on its first use in the round and reused by every later state.
        conditions: dict[tuple, Formula] = {}
        for state in intermediate:
            previous = phi[(state, time - 1)]
            for degree in range(0, delta + 1):
                degree_guard, specs = row(degree)
                guarded = And(degree_guard, previous)
                for spec, vector in specs:
                    target = machine.transition_table(state, vector)
                    terms = accumulator.get(target)
                    if terms is None:
                        if target not in declared:
                            raise ValueError(
                                f"state {state!r} moves to the undeclared state "
                                f"{target!r} on {vector!r}"
                            )
                        continue
                    condition = conditions.get(spec)
                    if condition is None:
                        condition = conditions[spec] = spec_condition(spec, time)
                    terms.append(And(guarded, condition))
                check_pool_growth(f"t={time}, state={state!r}, degree={degree}")
        for state in targets:
            phi[(state, time)] = disjunction(accumulator[state])

    psi = disjunction(phi[(state, running_time)] for state in accepting)
    if _metrics.enabled():
        _metrics.counter("formula.emit.nodes").inc(len(pool) - pool_start)
    return psi
