"""Engine agreement as a hypothesis property.

For a random machine of each of the seven classes and a random batch of
small graphs and port numberings, every execution engine must return the
same results: the superposed ``sweep``, the ``compiled`` active-set loop
(memoizing), the seed ``reference`` loop and, when NumPy is installed, the
``vector`` kernel.  The batch runs as two successive calls of different
maximum degree on one fresh wrapper per engine, and the cumulative
:class:`~repro.execution.sweep.SweepStats` of ``vector`` must equal
``sweep``'s: both engines share one configuration table per wrapper, so a
configuration costs one transition evaluation whichever degree met it.
Without NumPy the three stdlib engines still run.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.engines import available_engines
from repro.execution.engine import run_many
from repro.execution.sweep import SweepStats, run_sweep
from repro.execution.vector import run_vector
from repro.graphs.generators import (
    cycle_graph,
    path_graph,
    random_bounded_degree_graph,
    star_graph,
)
from repro.graphs.ports import random_port_numbering
from repro.machines.fastpath import fast_path
from repro.machines.library import random_machine
from repro.machines.state_machine import algorithm_from_machine

from test_sweep_engine import SEVEN_CLASSES, assert_identical

#: The batched engines, which account their work in ``SweepStats``, by entry point.
BATCHED = {"sweep": run_sweep}
if "vector" in available_engines():
    BATCHED["vector"] = run_vector


@st.composite
def graphs(draw, max_degree: int):
    """A path, cycle, star or random graph of maximum degree <= ``max_degree``."""
    kinds = ["path", "random"] + (["star"] if max_degree else [])
    kinds += ["cycle"] if max_degree >= 2 else []
    kind = draw(st.sampled_from(kinds))
    if kind == "path":
        return path_graph(draw(st.integers(1, 6 if max_degree >= 2 else max_degree + 1)))
    if kind == "cycle":
        return cycle_graph(draw(st.integers(3, 6)))
    if kind == "star":
        return star_graph(draw(st.integers(1, max_degree)))
    return random_bounded_degree_graph(
        draw(st.integers(1, 7)), max_degree, seed=draw(st.integers(0, 999))
    )


@st.composite
def batches(draw):
    """A class, a machine, two sub-batches of different maximum degree and a budget.

    The first sub-batch has maximum degree at most ``low < delta``; the
    second always holds a star with ``delta`` leaves, so its maximum degree
    is ``delta``.  Together they hold 2-4 graphs with 1-4 numberings each.
    """
    _, problem_class = draw(st.sampled_from(SEVEN_CLASSES))
    delta = draw(st.integers(1, 3))
    low = draw(st.integers(0, delta - 1))
    machine = random_machine(problem_class, delta, seed=draw(st.integers(0, 10**6)))
    first = draw(st.lists(graphs(low), min_size=1, max_size=2))
    second = [star_graph(delta)] + draw(st.lists(graphs(delta), max_size=1))
    rng = random.Random(draw(st.integers(0, 10**6)))
    consistent = problem_class.requires_consistency

    def instances(graph_list):
        return [
            (graph, random_port_numbering(graph, rng=rng, consistent=consistent))
            for graph in graph_list
            for _ in range(draw(st.integers(1, 4)))
        ]

    budget = draw(st.one_of(st.none(), st.integers(0, 2)))
    return machine, instances(first), instances(second), budget


@settings(max_examples=40, deadline=None)
@given(batches())
def test_engines_agree_on_results_and_work(batch):
    machine, first, second, budget = batch
    options = (
        {"require_halt": True}
        if budget is None
        else {"require_halt": False, "max_rounds": budget}
    )

    def algorithm():
        return algorithm_from_machine(machine.as_state_machine())

    expected = run_many(algorithm(), first + second, engine="reference", **options)
    compiled = run_many(
        algorithm(), first + second, engine="compiled", memoize_transitions=True, **options
    )
    assert_identical(compiled, expected)

    work = {}
    for engine, runner in BATCHED.items():
        wrapper = fast_path(algorithm(), memoize_transitions=True)
        stats = SweepStats()
        results = [
            result
            for part in (first, second)
            for result in runner(wrapper, part, stats=stats, **options)
        ]
        assert_identical(results, expected)
        work[engine] = stats.to_dict()
    assert work.get("vector", work["sweep"]) == work["sweep"]
