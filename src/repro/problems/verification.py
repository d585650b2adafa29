"""Adversarial verification: does an algorithm solve a problem? (Section 1.4.)

An algorithm ``A`` solves a problem ``Pi`` when, for *every* graph of the
family and *every* port numbering (only consistent ones if the VVc convention
is used), the execution halts and its output lies in ``Pi(G)``.  These
functions check that condition over a supplied, finite collection of graphs --
exhaustively over port numberings when feasible, by seeded sampling otherwise.

Each graph's numberings run as one superposed sweep through
:func:`repro.execution.adversary.outputs_over_port_numberings`, and the
checks here loop over its ``(numbering, result)`` pairs in enumeration order.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from repro.execution.adversary import outputs_over_port_numberings
from repro.execution.engine import ExecutionError
from repro.graphs.graph import Graph, Node
from repro.graphs.ports import PortNumbering
from repro.machines.algorithm import Algorithm
from repro.problems.base import GraphProblem


def find_counterexample(
    algorithm: Algorithm,
    problem: GraphProblem,
    graphs: Iterable[Graph],
    consistent_only: bool = False,
    exhaustive_limit: int = 2_000,
    samples: int = 50,
    max_rounds: int = 10_000,
) -> tuple[Graph, PortNumbering, dict[Node, Any] | None] | None:
    """The first input on which the algorithm fails, or ``None`` if none is found.

    A failure is either non-termination within ``max_rounds`` (the output slot
    of the returned triple is then ``None``) or an invalid output.  Graphs
    are checked in order and each graph's numberings in enumeration order,
    so the first failing numbering is the one returned.  The sweep answers a
    whole graph's numberings at once: on a failing algorithm the rest of
    that graph's numberings still run (later graphs do not).
    """
    for graph in graphs:
        for numbering, result in outputs_over_port_numberings(
            algorithm,
            graph,
            consistent_only=consistent_only,
            exhaustive_limit=exhaustive_limit,
            samples=samples,
            max_rounds=max_rounds,
        ):
            if not result.halted:
                return graph, numbering, None
            if not problem.is_solution(graph, result.outputs):
                return graph, numbering, result.outputs
    return None


def solves(
    algorithm: Algorithm,
    problem: GraphProblem,
    graphs: Iterable[Graph],
    consistent_only: bool = False,
    exhaustive_limit: int = 2_000,
    samples: int = 50,
    max_rounds: int = 10_000,
) -> bool:
    """Whether the algorithm solves the problem on every tested input.

    A :func:`find_counterexample` search: on a failing algorithm the failing
    graph's remaining numberings still run, since its sweep is one batch.
    """
    return (
        find_counterexample(
            algorithm,
            problem,
            graphs,
            consistent_only=consistent_only,
            exhaustive_limit=exhaustive_limit,
            samples=samples,
            max_rounds=max_rounds,
        )
        is None
    )


def worst_case_running_time(
    algorithm: Algorithm,
    graphs: Iterable[Graph],
    consistent_only: bool = False,
    exhaustive_limit: int = 2_000,
    samples: int = 50,
    max_rounds: int = 10_000,
) -> int:
    """The maximum number of rounds over all tested inputs (for locality checks).

    Raises :class:`~repro.execution.engine.ExecutionError` at the first run,
    in enumeration order, that does not halt within ``max_rounds``.
    """
    worst = 0
    for graph in graphs:
        for _numbering, result in outputs_over_port_numberings(
            algorithm,
            graph,
            consistent_only=consistent_only,
            exhaustive_limit=exhaustive_limit,
            samples=samples,
            max_rounds=max_rounds,
        ):
            if not result.halted:
                raise ExecutionError(
                    f"{algorithm.name} did not halt on {graph!r} "
                    f"within {max_rounds} rounds"
                )
            worst = max(worst, result.rounds)
    return worst
