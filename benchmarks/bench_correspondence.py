"""Benchmark -- the Theorem 2 correspondence pipeline, compiled vs seed.

Two families of measurements:

* **round trips** -- :func:`repro.modal.correspondence.machine_roundtrip_report`
  for the library machine of each problem class over an adversarial
  numbering sweep, under both backends (the ``runner`` parameter selects
  ``compiled`` -- flat-state formula-algorithm + bitset model checker +
  compiled execution engine -- vs ``reference`` -- the seed construction on
  the seed checker and runner).  ``run_all.py`` pairs them into the
  ``correspondence_pairs`` / ``geomean_correspondence_speedup`` figures of
  ``BENCH_<date>.json``.
* **construction sizes** -- :func:`formula_for_machine` emission into the
  hash-consed pool, recording ``tree_size`` vs ``dag_size`` per class in
  ``extra_info`` (the DAG-compression table of the README), including the
  two-round Vector instance whose fully expanded tree exceeds ``10^6`` nodes
  -- infeasible to materialise as a tree, routine as a DAG.

Set ``REPRO_BENCH_SMOKE=1`` for the tiny CI size budget.
"""

from __future__ import annotations

import os

import pytest

from repro.graphs.generators import path_graph, star_graph
from repro.logic.syntax import dag_size, modal_depth, tree_size
from repro.machines.library import reference_machine
from repro.machines.models import ProblemClass
from repro.modal.algorithm_to_formula import formula_for_machine
from repro.modal.correspondence import machine_roundtrip_report

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Classes paired compiled-vs-reference.  The smoke budget keeps one class
#: per receive mode; the full run covers all seven.
ROUNDTRIP_CLASSES = ("SB", "MV", "VV") if SMOKE else tuple(c.value for c in ProblemClass)
SIZE_CLASSES = tuple(c.value for c in ProblemClass)

DELTA = 3
GRAPHS = (star_graph(3), path_graph(3)) if SMOKE else (star_graph(3), path_graph(4))
EXHAUSTIVE_LIMIT = 8 if SMOKE else 24
SAMPLES = 4 if SMOKE else 8


@pytest.mark.parametrize("problem_class", ROUNDTRIP_CLASSES)
@pytest.mark.parametrize("runner", ("compiled", "reference"))
def test_machine_roundtrip(benchmark, problem_class: str, runner: str) -> None:
    """One full round trip (machine == formula == recompiled algorithm)."""
    pclass = ProblemClass(problem_class)
    machine = reference_machine(pclass, DELTA)
    formula = formula_for_machine(machine, pclass, 1)

    def work():
        return machine_roundtrip_report(
            machine,
            pclass,
            1,
            graphs=GRAPHS,
            engine=runner,
            cross_check=False,
            exhaustive_limit=EXHAUSTIVE_LIMIT,
            samples=SAMPLES,
            formula=formula,
        )

    report = benchmark(work)
    assert report.agree
    benchmark.extra_info["instances"] = report.instances
    benchmark.extra_info["dag_size"] = report.dag_size


@pytest.mark.parametrize("problem_class", SIZE_CLASSES)
def test_formula_construction(benchmark, problem_class: str) -> None:
    """Table 4/5 emission into the pool; records the DAG-vs-tree compression."""
    pclass = ProblemClass(problem_class)
    machine = reference_machine(pclass, DELTA)
    formula = benchmark(lambda: formula_for_machine(machine, pclass, 1))
    benchmark.extra_info["tree_size"] = tree_size(formula)
    benchmark.extra_info["dag_size"] = dag_size(formula)
    assert dag_size(formula) <= tree_size(formula)


def test_infeasible_tree_feasible_dag(benchmark) -> None:
    """The two-round VV instance: tree size > 10^6, DAG in the thousands.

    The seed representation would materialise one node per tree occurrence
    -- hundreds of millions for this coordinate -- so the instance was
    previously infeasible; the hash-consed emission completes in well under
    a second and the compiled pipeline evaluates it directly.
    """
    pclass = ProblemClass.VV
    machine = reference_machine(pclass, DELTA, rounds=2)
    formula = benchmark(
        lambda: formula_for_machine(machine, pclass, 2, max_formula_nodes=2_000_000)
    )
    benchmark.extra_info["tree_size"] = tree_size(formula)
    benchmark.extra_info["dag_size"] = dag_size(formula)
    assert tree_size(formula) > 10**6
    assert dag_size(formula) < 100_000
    assert modal_depth(formula) == 2
