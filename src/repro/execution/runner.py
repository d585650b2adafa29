"""The synchronous execution engine (Section 1.3) -- compatibility front door.

Given an algorithm ``A``, a graph ``G`` and a port numbering ``p``, the
execution proceeds in synchronous rounds: every node sends a message through
each of its output ports, receives one message through each of its input
ports, and updates its state.  Which *view* of the received messages the
algorithm sees (vector / multiset / set) and whether it may address output
ports individually is determined by the algorithm's model -- the engine itself
is shared by all seven classes, mirroring the way the paper compares them on
identical inputs.

:func:`run` is a thin wrapper over the compiled engine of
:mod:`repro.execution.engine`: it compiles ``(graph, numbering)`` into flat
index arrays and executes the active-set round loop.  The original
dictionary-based loop survives as :func:`repro.execution.legacy.run_reference`
for differential tests; batch workloads should use
:func:`repro.execution.engine.run_many` directly.
"""

from __future__ import annotations

from typing import Any

from repro.graphs.graph import Graph, Node
from repro.graphs.ports import PortNumbering
from repro.machines.algorithm import Algorithm
from repro.execution.engine import (
    DEFAULT_MAX_ROUNDS,
    ExecutionError,
    ExecutionResult,
    compiled_for,
    execute,
)

__all__ = [
    "DEFAULT_MAX_ROUNDS",
    "ExecutionError",
    "ExecutionResult",
    "run",
]


def run(
    algorithm: Algorithm,
    graph: Graph,
    numbering: PortNumbering | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    record_trace: bool = False,
    require_halt: bool = True,
    inputs: dict[Node, Any] | None = None,
) -> ExecutionResult:
    """Execute ``algorithm`` on ``(graph, numbering)`` until every node stops.

    Parameters
    ----------
    algorithm:
        The distributed algorithm; its :attr:`~repro.machines.algorithm.
        Algorithm.model` determines how messages are constructed and
        presented.
    graph:
        The input graph.
    numbering:
        The port numbering; defaults to the canonical consistent numbering.
    max_rounds:
        Upper bound on the number of communication rounds.
    record_trace:
        Whether to record a full :class:`~repro.execution.trace.Trace`.
    require_halt:
        If ``True`` (default), raise :class:`ExecutionError` when the bound is
        exceeded; otherwise return a result with ``halted=False``, the partial
        outputs of the nodes that did stop, and the final ``states`` of all
        nodes.
    inputs:
        Optional local inputs ``f(u)`` (Section 3.4, labelled graphs).  When
        given, the initial state of node ``u`` is
        ``algorithm.initial_state_with_input(deg(u), inputs.get(u))``.
    """
    return execute(
        algorithm,
        compiled_for(graph, numbering),
        max_rounds=max_rounds,
        record_trace=record_trace,
        require_halt=require_halt,
        inputs=inputs,
    )
