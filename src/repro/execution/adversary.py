"""Adversarial execution over port numberings.

An algorithm *solves* a graph problem only if its output is valid for *every*
port numbering of the input graph (Section 1.4) -- the port numbering is
chosen by an adversary.  For small witness graphs the adversary can be
exhausted; for larger graphs it is sampled.  This module produces the set of
port numberings to check and collects the outputs an algorithm produces over
them.

The experiments sweep every numbering of the same small witness graphs many
times over (classification, round trips, formula checks, running times), so
an exhaustive enumeration of at most :data:`DEFAULT_EXHAUSTIVE_LIMIT`
numberings is built once per graph object and memoized on the graph itself.
Every later sweep of that graph gets the same validated
:class:`~repro.graphs.ports.PortNumbering` objects, and with them the
compiled instances the engine caches on each numbering.  The memo lives
exactly as long as its graph and is never pickled.  Sampled numberings and
larger enumerations are streamed afresh on every call and never retained.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any

from repro.graphs.graph import Graph
from repro.graphs.ports import (
    PortNumbering,
    all_port_numberings,
    consistent_port_numbering,
    count_port_numberings,
    random_port_numbering,
)
from repro.machines.algorithm import Algorithm
from repro.execution.engine import run_many
from repro.execution.runner import DEFAULT_MAX_ROUNDS, ExecutionResult

#: If a graph has at most this many port numberings, enumerate them all.
DEFAULT_EXHAUSTIVE_LIMIT = 2_000


@dataclass(frozen=True)
class AdversarialOutcome:
    """One adversarial execution: the port numbering and what it produced.

    Unpacks as a ``(numbering, result)`` pair, so existing
    ``for numbering, result in ...`` loops keep working.
    """

    #: The port numbering the adversary chose.
    numbering: PortNumbering
    #: The execution of the algorithm under that numbering.
    result: ExecutionResult

    def __iter__(self) -> Iterator[Any]:
        return iter((self.numbering, self.result))


def port_numberings_to_check(
    graph: Graph,
    consistent_only: bool = False,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    samples: int = 50,
    seed: int = 0,
) -> Iterator[PortNumbering]:
    """Port numberings an adversarial check should cover.

    If the total number of port numberings of ``graph`` does not exceed
    ``exhaustive_limit``, every port numbering is produced; otherwise the
    canonical consistent numbering plus ``samples`` pseudo-random numberings
    (seeded, hence reproducible) are produced.

    An exhaustive enumeration of at most :data:`DEFAULT_EXHAUSTIVE_LIMIT`
    numberings is built in full on the first call and memoized on ``graph``
    per ``consistent_only``, so every later call on the same graph object
    yields the identical numbering objects in the same order.  A larger
    enumeration (a caller-raised ``exhaustive_limit``) and the sampled
    numberings are produced afresh on each call and never retained: the
    1,024 numberings of a 5-cycle already take ~1.9 MB, ~3.6 MB once
    compiled, so the bound keeps a streaming caller from pinning far more.
    """
    total = count_port_numberings(graph, consistent_only=consistent_only)
    if total <= exhaustive_limit:
        if total > DEFAULT_EXHAUSTIVE_LIMIT:
            yield from all_port_numberings(graph, consistent_only=consistent_only)
            return
        memo = graph._numberings
        if memo is None:
            memo = graph._numberings = {}
        numberings = memo.get(consistent_only)
        if numberings is None:
            numberings = memo[consistent_only] = tuple(
                all_port_numberings(graph, consistent_only=consistent_only)
            )
        yield from numberings
        return
    yield consistent_port_numbering(graph)
    rng = random.Random(seed)
    for _ in range(samples):
        yield random_port_numbering(graph, rng=rng, consistent=consistent_only)


def outputs_over_port_numberings(
    algorithm: Algorithm,
    graph: Graph,
    consistent_only: bool = False,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    samples: int = 50,
    seed: int = 0,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    engine: str = "sweep",
) -> list[AdversarialOutcome]:
    """Run ``algorithm`` on ``graph`` under every adversarial port numbering.

    Returns one :class:`AdversarialOutcome` per numbering produced by
    :func:`port_numberings_to_check` (each unpacks as a
    ``(numbering, result)`` pair).  The whole sweep executes through the
    superposed batch engine (:func:`repro.execution.sweep.run_sweep`) by
    default; ``engine`` selects, through
    :func:`~repro.execution.engine.run_many`, the vectorized kernel or, as
    memoizing oracles, the per-instance compiled loop or the seed runner.
    """
    numberings = list(
        port_numberings_to_check(
            graph,
            consistent_only=consistent_only,
            exhaustive_limit=exhaustive_limit,
            samples=samples,
            seed=seed,
        )
    )
    results = run_many(
        algorithm,
        [(graph, numbering) for numbering in numberings],
        max_rounds=max_rounds,
        engine=engine,
        memoize_transitions=True,
    )
    return [
        AdversarialOutcome(numbering=numbering, result=result)
        for numbering, result in zip(numberings, results)
    ]
