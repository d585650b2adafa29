"""Inputs, one pass and the checks of the ``library`` workload.

One pass makes four kinds of batch call, each on algorithm objects built
just before the pass (outside the timed region), so every call interns its
tables cold, as a caller with a new algorithm pays:

* ``run_sweep`` on an E9-shaped sweep: a two-round VV reference machine over
  sampled port numberings of one 3-regular graph;
* ``run_many(engine="vector")`` on a uniform batch: cyclic multiset and set
  machines on one 256-node 3-regular graph under 100 numberings, 48 rounds;
* the same call on a mixed-family batch of small cycles, paths, stars and
  bounded-degree graphs, where the program picks its arena path itself;
* ``check_many`` with ``engine="vector"`` and ``"compiled"`` on a sparse
  10^4-world Kripke model whose compiled forms set-up has built.

Every input derives from the workload seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.execution.engine import compile_instance, run_many
from repro.execution.sweep import run_sweep
from repro.graphs.generators import (
    cycle_graph,
    path_graph,
    random_bounded_degree_graph,
    random_regular_graph,
    star_graph,
)
from repro.graphs.ports import random_port_numbering
from repro.logic.engine import check_many
from repro.logic.kripke import KripkeModel
from repro.logic.syntax import And, Box, Diamond, GradedDiamond, Not, Or, Prop
from repro.machines import MultisetAlgorithm, SetAlgorithm
from repro.machines.library import reference_machine
from repro.machines.models import ProblemClass
from repro.machines.state_machine import algorithm_from_machine

UNIFORM_NODES, UNIFORM_SAMPLES, ROUNDS = 256, 100, 48
E9_NODES, E9_SAMPLES, E9_CALLS = 128, 400, 4
MIXED_FAMILIES, MIXED_NUMBERINGS = 32, 3
CHECK_WORLDS, CHECK_REPEATS = 10_000, 3


class _Cyclic:
    """A finite-state phase counter: its configuration tables saturate."""

    PERIOD = 5

    def initial_state(self, degree):
        return (0, degree)

    def send(self, state, port):
        return (state[0], port)

    def transition(self, state, received):
        return ((state[0] + 1) % self.PERIOD, state[1])


class CyclicMultiset(_Cyclic, MultisetAlgorithm):
    pass


class CyclicSet(_Cyclic, SetAlgorithm):
    pass


@dataclass
class Inputs:
    uniform: list
    e9: list
    mixed: list
    model: KripkeModel
    formulas: list


def _sparse_model(rng: random.Random, worlds: int, out_degree: int = 6) -> KripkeModel:
    rel_a, rel_b = set(), set()
    for world in range(worlds):
        rel_a.update((world, rng.randrange(worlds)) for _ in range(out_degree))
        rel_b.update((world, rng.randrange(worlds)) for _ in range(out_degree // 2))
    valuation = {
        name: frozenset(w for w in range(worlds) if rng.random() < share)
        for name, share in (("p", 0.5), ("q", 0.25), ("r", 0.1))
    }
    return KripkeModel(
        worlds=frozenset(range(worlds)),
        relations={"a": frozenset(rel_a), "b": frozenset(rel_b)},
        valuation=valuation,
    )


def _formulas() -> list:
    p, q, r = Prop("p"), Prop("q"), Prop("r")
    batch = []
    for index in ("a", "b"):
        batch += [
            Diamond(p, index=index),
            Box(Or(p, q), index=index),
            GradedDiamond(p, 2, index=index),
            GradedDiamond(Not(q), 3, index=index),
            Diamond(Box(p, index=index), index=index),
            And(Diamond(q, index=index), Not(GradedDiamond(r, 1, index=index))),
            Box(Diamond(Or(q, r), index=index), index=index),
            GradedDiamond(Diamond(p, index=index), 4, index=index),
        ]
    return batch


def _mixed_graphs(rng: random.Random) -> list:
    graphs = []
    for index in range(MIXED_FAMILIES):
        size = 8 + index // 4
        kind = index % 4
        if kind == 0:
            graphs.append(cycle_graph(size))
        elif kind == 1:
            graphs.append(path_graph(size))
        elif kind == 2:
            graphs.append(star_graph(size - 1))
        else:
            graphs.append(random_bounded_degree_graph(size, 3, seed=rng.randrange(10**9)))
    return graphs


def build(seed: int, index: int) -> Inputs:
    """Generate the inputs of set-up ``index`` from ``seed``; fill the caches callers keep warm.

    Each set-up of a run draws its own inputs: the program caches compiled
    topologies by graph *equality*, so equal graphs left over from an earlier
    set-up could otherwise share (or, once collected, split) those caches.
    """
    rng = random.Random(f"library:{seed}:{index}")
    uniform_graph = random_regular_graph(3, UNIFORM_NODES, seed=rng.randrange(10**9))
    uniform = [
        compile_instance((uniform_graph, random_port_numbering(uniform_graph, rng=rng)))
        for _ in range(UNIFORM_SAMPLES)
    ]
    e9_graph = random_regular_graph(3, E9_NODES, seed=rng.randrange(10**9))
    e9 = [(e9_graph, random_port_numbering(e9_graph, rng=rng)) for _ in range(E9_SAMPLES)]
    mixed = [
        (graph, random_port_numbering(graph, rng=rng))
        for graph in _mixed_graphs(rng)
        for _ in range(MIXED_NUMBERINGS)
    ]
    inputs = Inputs(uniform, e9, mixed, _sparse_model(rng, CHECK_WORLDS), _formulas())
    # The compiled Kripke forms and compiled instances are cached on the
    # model and the numberings; callers reuse them, so set-up builds them.
    for engine in ("vector", "compiled"):
        check_many(inputs.model, inputs.formulas, engine=engine)
    for instance in inputs.e9 + inputs.mixed:
        compile_instance(instance)
    return inputs


def _e9_machine():
    return algorithm_from_machine(reference_machine(ProblemClass.VV, 3, rounds=2).as_state_machine())


def fresh_algorithms() -> dict:
    return {
        "e9": [_e9_machine() for _ in range(E9_CALLS)],
        "uniform": [CyclicMultiset(), CyclicSet()],
        "mixed": [CyclicMultiset(), CyclicSet()],
    }


def one_pass(inputs: Inputs, algorithms: dict) -> dict:
    results = {
        "e9": [run_sweep(algorithm, inputs.e9) for algorithm in algorithms["e9"]],
        "check": [],
    }
    for batch in ("uniform", "mixed"):
        results[batch] = [
            run_many(
                algorithm,
                getattr(inputs, batch),
                engine="vector",
                require_halt=False,
                max_rounds=ROUNDS,
            )
            for algorithm in algorithms[batch]
        ]
    for _ in range(CHECK_REPEATS):
        results["check"].append(
            {
                engine: check_many(inputs.model, inputs.formulas, engine=engine)
                for engine in ("vector", "compiled")
            }
        )
    return results


def _summary(results: list) -> list:
    return [(result.halted, result.rounds, result.outputs) for result in results]


def check(inputs: Inputs, results: dict, references: dict) -> None:
    """Vector batches must equal ``run_sweep``; vector ``check_many`` must equal compiled.

    ``references`` caches the ``run_sweep`` results across the passes of a run.
    """
    from harness import CheckFailed

    if not references:
        for batch in ("uniform", "mixed"):
            references[batch] = [
                _summary(run_sweep(algorithm, getattr(inputs, batch),
                                   require_halt=False, max_rounds=ROUNDS))
                for algorithm in (CyclicMultiset(), CyclicSet())
            ]
    for batch in ("uniform", "mixed"):
        if [_summary(r) for r in results[batch]] != references[batch]:
            raise CheckFailed(f"vector results on the {batch} batch differ from run_sweep")
    first = _summary(results["e9"][0])
    if not all(halted for halted, _, _ in first):
        raise CheckFailed("the E9 sweep did not halt")
    if any(_summary(other) != first for other in results["e9"][1:]):
        raise CheckFailed("E9 sweeps of identical inputs differ")
    for pair in results["check"]:
        if pair["vector"] != pair["compiled"]:
            raise CheckFailed("check_many vector differs from compiled")
