"""The seed reference runner (Section 1.3), kept as an executable oracle.

This is the original, dictionary-based synchronous round loop that shipped
with the seed of this reproduction: every round it re-derives the port
topology through ``numbering.inverse``, rebuilds ``(node, port)``-keyed
message dictionaries and rescans all nodes for stopping states.  The compiled
engine (:mod:`repro.execution.engine`) replaces it on the hot path, but the
reference loop stays as the differential oracle: the engines must be
node-for-node identical to this loop on every model and every input (see
``tests/test_execution_engine.py``), and E5 checks the Theorem 4 simulation
against it (``run_iter(..., engine="reference")``).

Do not optimize this module; its value is being the fixed baseline.
"""

from __future__ import annotations

from typing import Any

from repro.graphs.graph import Graph, Node
from repro.graphs.ports import PortNumbering, consistent_port_numbering
from repro.machines.algorithm import NO_MESSAGE, Algorithm
from repro.machines.models import SendMode
from repro.execution.engine import DEFAULT_MAX_ROUNDS, ExecutionError, ExecutionResult
from repro.execution.trace import Trace


def run_reference(
    algorithm: Algorithm,
    graph: Graph,
    numbering: PortNumbering | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    record_trace: bool = False,
    require_halt: bool = True,
    inputs: dict[Node, Any] | None = None,
) -> ExecutionResult:
    """Execute ``algorithm`` with the seed (uncompiled) round loop.

    Same contract as :func:`repro.execution.runner.run`.
    """
    if numbering is None:
        numbering = consistent_port_numbering(graph)
    elif numbering.graph != graph:
        raise ValueError("the port numbering belongs to a different graph")

    broadcast = algorithm.model.send is SendMode.BROADCAST
    if inputs is None:
        states: dict[Node, Any] = {
            node: algorithm.initial_state(graph.degree(node)) for node in graph.nodes
        }
    else:
        states = {
            node: algorithm.initial_state_with_input(graph.degree(node), inputs.get(node))
            for node in graph.nodes
        }
    trace = Trace() if record_trace else None
    if trace is not None:
        trace.state_history.append(dict(states))
        trace.received_messages.append({})

    rounds = 0
    while not all(algorithm.is_stopping(states[node]) for node in graph.nodes):
        if rounds >= max_rounds:
            if require_halt:
                raise ExecutionError(
                    f"{algorithm.name} did not halt on {graph!r} within {max_rounds} rounds"
                )
            partial = {
                node: algorithm.output(state)
                for node, state in states.items()
                if algorithm.is_stopping(state)
            }
            return ExecutionResult(
                outputs=partial, rounds=rounds, halted=False, trace=trace, states=dict(states)
            )
        rounds += 1

        # Message construction: what each node emits through each output port.
        outgoing: dict[tuple[Node, int], Any] = {}
        for node in graph.nodes:
            state = states[node]
            degree = graph.degree(node)
            if algorithm.is_stopping(state):
                for port in range(1, degree + 1):
                    outgoing[(node, port)] = NO_MESSAGE
            elif broadcast:
                message = algorithm.broadcast(state)
                for port in range(1, degree + 1):
                    outgoing[(node, port)] = message
            else:
                for port in range(1, degree + 1):
                    outgoing[(node, port)] = algorithm.send(state, port)

        # Message delivery: input port (u, i) receives from p^{-1}((u, i)).
        received: dict[tuple[Node, int], Any] = {}
        for node in graph.nodes:
            for in_port in range(1, graph.degree(node) + 1):
                source, out_port = numbering.inverse(node, in_port)
                received[(node, in_port)] = outgoing[(source, out_port)]

        # State transition on the model-specific projection of the received vector.
        new_states: dict[Node, Any] = {}
        for node in graph.nodes:
            state = states[node]
            if algorithm.is_stopping(state):
                new_states[node] = state
                continue
            vector = tuple(
                received[(node, in_port)] for in_port in range(1, graph.degree(node) + 1)
            )
            projected = algorithm.model.receive.project(vector)
            new_states[node] = algorithm.transition(state, projected)
        states = new_states

        if trace is not None:
            trace.state_history.append(dict(states))
            trace.received_messages.append(received)

    outputs = {node: algorithm.output(states[node]) for node in graph.nodes}
    return ExecutionResult(
        outputs=outputs, rounds=rounds, halted=True, trace=trace, states=dict(states)
    )
