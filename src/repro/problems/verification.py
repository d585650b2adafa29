"""Adversarial verification: does an algorithm solve a problem? (Section 1.4.)

An algorithm ``A`` solves a problem ``Pi`` when, for *every* graph of the
family and *every* port numbering (only consistent ones if the VVc convention
is used), the execution halts and its output lies in ``Pi(G)``.  These
functions check that condition over a supplied, finite collection of graphs --
exhaustively over port numberings when feasible, by seeded sampling otherwise.

The per-graph sweep over port numberings runs in-process on the compiled
batch engine (:func:`repro.execution.engine.run_iter`), with transitions
memoized across the sweep: the graph topology is compiled once and shared by
every numbering, and the engine streams lazily, so a check stops executing at
the first counterexample.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from repro.execution.adversary import port_numberings_to_check
from repro.execution.engine import run_iter, run_many
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
    of the returned triple is then ``None``) or an invalid output.
    """
    for graph in graphs:
        numberings = list(
            port_numberings_to_check(
                graph,
                consistent_only=consistent_only,
                exhaustive_limit=exhaustive_limit,
                samples=samples,
            )
        )
        results = run_iter(
            algorithm,
            [(graph, numbering) for numbering in numberings],
            max_rounds=max_rounds,
            require_halt=False,
            memoize_transitions=True,
        )
        # run_iter is lazy: the sweep short-circuits at the first failure.
        for numbering, result in zip(numberings, results):
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
    """Whether the algorithm solves the problem on every tested input."""
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
    """The maximum number of rounds over all tested inputs (for locality checks)."""
    worst = 0
    for graph in graphs:
        results = run_many(
            algorithm,
            [
                (graph, numbering)
                for numbering in port_numberings_to_check(
                    graph,
                    consistent_only=consistent_only,
                    exhaustive_limit=exhaustive_limit,
                    samples=samples,
                )
            ],
            max_rounds=max_rounds,
            memoize_transitions=True,
        )
        for result in results:
            if result.rounds > worst:
                worst = result.rounds
    return worst
