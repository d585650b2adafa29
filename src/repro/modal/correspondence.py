"""Round-trip checks between algorithms and formulas (Theorem 2).

The capture theorems assert two inclusions for every class: a formula can be
realised by an algorithm and an algorithm can be captured by a formula.  This
module provides the machinery to *check* such correspondences on concrete
graph families: evaluate a formula in the class's Kripke encoding, run an
algorithm under the adversarial port numberings, and compare.

Both halves run on the batch engines.  :func:`algorithm_matches_formula`
takes its executions from the one adversarial sweep
(:func:`~repro.execution.adversary.outputs_over_port_numberings`, superposed
through :mod:`repro.execution.sweep`: one transition evaluation per distinct
configuration across all numberings of a graph).  The formula side is
evaluated by the compiled bitset model checker (:mod:`repro.logic.engine`)
once per graph, on the disjoint union of the *distinct* Kripke encodings its
numberings induce (:func:`~repro.modal.encoding.kripke_unions`).  The weaker
encodings forget port information, so many numberings share one copy, and
each copy is a generated submodel of the union: by bisimulation invariance
(Fact 1) the union's extension restricted to a copy is the extension in that
copy's encoding.

:func:`machine_roundtrip_report` is the full Theorem 2 pipeline in one call:
a finite-state machine is compiled to its Table 4/5 formula (a hash-consed
DAG), the formula is compiled back to a
:class:`~repro.modal.formula_to_algorithm.CompiledFormulaAlgorithm`, and
machine outputs, formula extensions and recompiled-algorithm outputs are
cross-checked over every adversarial port numbering of the given graphs --
optionally against the seed formula-algorithm as a differential oracle.
It enumerates the numberings itself, because it runs its algorithms on its
own ``engine`` axis, where the per-instance compiled loop and the seed
runner stay selectable as differential oracles.
The oracle runs on every instance, memoized: :func:`roundtrip_algorithms`
builds the three algorithms once as memoizing fast-path wrappers, so the
seed loop evaluates each distinct initial state and transition once per
report.  Experiment E4 runs the round trip with the oracle.  The campaign
subsystem's ``correspondence`` scenario kind runs it without
(``cross_check=False``): the seed engine is a test oracle, and a tier-1
test runs it over every scenario of the built-in ``e2-correspondence``
campaign.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.execution.adversary import (
    outputs_over_port_numberings,
    port_numberings_to_check,
)
from repro.engines.registry import logic_engine_for
from repro.execution.engine import DEFAULT_MAX_ROUNDS, ExecutionError, run_iter
from repro.graphs.graph import Graph, Node
from repro.graphs.ports import PortNumbering
from repro.logic.engine import check_many
from repro.logic.syntax import Formula, dag_size, modal_depth, tree_size
from repro.machines.algorithm import Algorithm
from repro.machines.fastpath import FastPathAlgorithm, fast_path
from repro.machines.models import ProblemClass
from repro.machines.state_machine import FiniteStateMachine, algorithm_from_machine
from repro.modal.algorithm_to_formula import (
    DEFAULT_MAX_FORMULA_NODES,
    formula_for_machine,
)
from repro.modal.encoding import kripke_unions, variant_for_class
from repro.modal.formula_to_algorithm import algorithm_for_formula


def formula_outputs(
    graph: Graph,
    numberings: Sequence[PortNumbering],
    formula: Formula,
    problem_class: ProblemClass,
    delta: int | None = None,
    engine: str = "compiled",
) -> list[dict[Node, int]]:
    """The 0/1 labellings ``||formula||`` in the class's encodings of ``(G, p)``.

    One labelling per numbering, in input order.  The formula is checked
    once per union of the distinct encodings the numberings induce
    (:func:`~repro.modal.encoding.kripke_unions`), and each numbering's
    labelling is its copy's slice of the union's extension -- its extension
    in its own encoding, since the copy is a generated submodel (Fact 1).
    """
    unions, places = kripke_unions(
        graph, numberings, variant_for_class(problem_class), delta=delta
    )
    truths = [check_many(union, [formula], engine=engine)[0] for union in unions]
    return [
        {node: 1 if (copy, node) in truths[union] else 0 for node in graph.nodes}
        for union, copy in places
    ]


def formula_output(
    graph: Graph,
    numbering: PortNumbering,
    formula: Formula,
    problem_class: ProblemClass,
    delta: int | None = None,
    engine: str = "compiled",
) -> dict[Node, int]:
    """The 0/1 labelling ``||formula||`` in the class's encoding of ``(G, p)``.

    The one-numbering case of :func:`formula_outputs`.
    """
    return formula_outputs(graph, [numbering], formula, problem_class, delta, engine)[0]


def algorithm_matches_formula(
    algorithm: Algorithm,
    formula: Formula,
    problem_class: ProblemClass,
    graphs: Iterable[Graph],
    delta: int | None = None,
    exhaustive_limit: int = 500,
    samples: int = 20,
    max_rounds: int = 10_000,
) -> bool:
    """Whether the algorithm and the formula agree on every tested input.

    For each graph and each adversarial port numbering (consistent only when
    the class is VVc), the algorithm's output vector is compared against the
    extension of the formula in the matching Kripke encoding.  Outputs other
    than 0/1 are compared against membership: output 1 must coincide with
    truth.

    Per graph, the executions come from one adversarial sweep
    (:func:`~repro.execution.adversary.outputs_over_port_numberings`) and
    all labellings from one model check (:func:`formula_outputs`), made
    when the graph's first halted numbering needs them.  Results are
    compared in numbering order: a disagreement returns ``False`` and a
    non-halting run raises :class:`ExecutionError`, whichever comes first.
    Raises ``ValueError`` after checking no instance at all, instead of
    reporting agreement vacuously.
    """
    checked = 0
    for graph in graphs:
        outcomes = outputs_over_port_numberings(
            algorithm,
            graph,
            consistent_only=problem_class.requires_consistency,
            exhaustive_limit=exhaustive_limit,
            samples=samples,
            max_rounds=max_rounds,
        )
        labellings = None
        for k, (_numbering, result) in enumerate(outcomes):
            if not result.halted:
                raise ExecutionError(
                    f"{algorithm.name} did not halt on {graph!r} "
                    f"within {max_rounds} rounds"
                )
            if labellings is None:
                labellings = formula_outputs(
                    graph,
                    [numbering for numbering, _result in outcomes],
                    formula,
                    problem_class,
                    delta=delta,
                )
            checked += 1
            actual = {node: 1 if result.outputs[node] == 1 else 0 for node in graph.nodes}
            if actual != labellings[k]:
                return False
    if not checked:
        raise ValueError(
            "no instance to check: the graphs select no (graph, numbering) "
            "pair, and an empty check would report agreement vacuously"
        )
    return True


# --------------------------------------------------------------------------- #
# The Theorem 2 round-trip pipeline
# --------------------------------------------------------------------------- #


@dataclass
class RoundTripReport:
    """Outcome of one machine -> formula -> algorithm round trip.

    ``formula_agrees`` compares the machine's outputs against the formula's
    extension in the class's Kripke encoding (Theorem 2, parts 3-4);
    ``algorithms_agree`` compares the recompiled formula-algorithm's outputs
    against the same extension (parts 1-2) -- and, when the differential
    oracle ran, against the seed formula-algorithm's outputs.  ``dag_size``
    vs ``tree_size`` quantifies the hash-consing win on the emitted formula.
    """

    problem_class: ProblemClass
    running_time: int
    modal_depth: int
    dag_size: int
    tree_size: int
    instances: int
    formula_agrees: bool = True
    algorithms_agree: bool = True
    oracle_checked: bool = False
    first_disagreement: dict[str, Any] | None = field(default=None, repr=False)

    @property
    def agree(self) -> bool:
        return self.formula_agrees and self.algorithms_agree

    def to_dict(self) -> dict[str, Any]:
        return {
            "problem_class": str(self.problem_class),
            "running_time": self.running_time,
            "modal_depth": self.modal_depth,
            "dag_size": self.dag_size,
            "tree_size": self.tree_size,
            "instances": self.instances,
            "formula_agrees": self.formula_agrees,
            "algorithms_agree": self.algorithms_agree,
            "oracle_checked": self.oracle_checked,
            "agree": self.agree,
        }


def _zero_one(
    outputs: dict[Node, Any], nodes: Iterable[Node], accepting: Any = 1
) -> dict[Node, int]:
    return {node: 1 if outputs.get(node) == accepting else 0 for node in nodes}


def roundtrip_algorithms(
    machine: FiniteStateMachine,
    formula: Formula,
    problem_class: ProblemClass,
    engine: str = "sweep",
    cross_check: bool = True,
) -> tuple[FastPathAlgorithm, FastPathAlgorithm, FastPathAlgorithm | None]:
    """The ``(original, realized, oracle)`` algorithms of one round trip.

    Each is wrapped in a memoizing fast-path wrapper, so every run of the
    round trip that shares the triple evaluates each distinct initial state
    and transition once.  Algorithms are deterministic state machines
    (Section 1.1), so the memo changes no output.  ``oracle`` is the seed
    formula-algorithm, and ``None`` unless ``cross_check`` is set and
    ``engine`` is not ``"reference"``.
    """
    original = fast_path(
        algorithm_from_machine(machine.as_state_machine()), memoize_transitions=True
    )
    realized = fast_path(
        algorithm_for_formula(formula, problem_class, engine=logic_engine_for(engine)),
        memoize_transitions=True,
    )
    oracle = None
    if cross_check and engine != "reference":
        oracle = fast_path(
            algorithm_for_formula(formula, problem_class, engine="reference"),
            memoize_transitions=True,
        )
    return original, realized, oracle


def machine_roundtrip_report(
    machine: FiniteStateMachine,
    problem_class: ProblemClass,
    running_time: int,
    graphs: Iterable[Graph] | None = None,
    pairs: Sequence[tuple[Graph, PortNumbering]] | None = None,
    engine: str = "sweep",
    cross_check: bool = True,
    exhaustive_limit: int = 500,
    samples: int = 20,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    max_formula_nodes: int | None = DEFAULT_MAX_FORMULA_NODES,
    accepting_output: Any = 1,
    formula: Formula | None = None,
    algorithms: tuple[Any, Any, Any] | None = None,
) -> RoundTripReport:
    """Run the full Theorem 2 round trip for one machine and report.

    Either ``graphs`` (each swept over its adversarial port numberings,
    consistent-only where the class requires it) or explicit
    ``(graph, numbering)`` ``pairs`` select the instances; a selection with
    no instance raises ``ValueError`` instead of agreeing vacuously.  All three
    fronts stream through the batch engines: one superposed adversarial
    sweep per algorithm per graph (``engine="sweep"``, the default), and
    for the formula side one model check per graph, on the union of its
    distinct Kripke encodings (:func:`formula_outputs`).  ``engine`` selects
    the execution backend (``"sweep"``, ``"compiled"`` or
    ``"reference"``); the formula-algorithm and model-checker backends
    follow it, with ``"sweep"`` mapping to their compiled implementations.
    With ``cross_check=True`` and a non-reference engine the seed
    formula-algorithm additionally runs as a differential oracle.  Callers
    evaluating one machine over many instance batches may pass a
    pre-compiled ``formula`` (the campaign executor does) to skip the
    Table 4/5 enumeration, and/or pre-built ``algorithms`` -- an
    ``(original, realized, oracle)`` triple matching this call's ``engine``,
    as :func:`roundtrip_algorithms` builds it -- so the three fronts (and
    their memos and sweep tables) are reused across calls instead of
    recompiled per call.  Without ``algorithms`` the triple is built once
    for this call, so one memo spans every graph of the report.
    """
    if pairs is not None:
        batches: list[tuple[Graph, list[PortNumbering]]] = []
        by_graph: dict[int, int] = {}
        for graph, numbering in pairs:
            slot = by_graph.get(id(graph))
            if slot is None:
                by_graph[id(graph)] = len(batches)
                batches.append((graph, [numbering]))
            else:
                batches[slot][1].append(numbering)
    else:
        batches = [
            (
                graph,
                list(
                    port_numberings_to_check(
                        graph,
                        consistent_only=problem_class.requires_consistency,
                        exhaustive_limit=exhaustive_limit,
                        samples=samples,
                    )
                ),
            )
            for graph in graphs or ()
        ]
    if not any(numberings for _graph, numberings in batches):
        raise ValueError(
            "machine_roundtrip_report needs 'graphs' (adversarial sweep) or "
            "explicit (graph, numbering) 'pairs' selecting at least one "
            "instance; an empty round trip would report agreement vacuously"
        )
    if formula is None:
        formula = formula_for_machine(
            machine,
            problem_class,
            running_time,
            accepting_output=accepting_output,
            max_formula_nodes=max_formula_nodes,
        )
    report = RoundTripReport(
        problem_class=problem_class,
        running_time=running_time,
        modal_depth=modal_depth(formula),
        dag_size=dag_size(formula),
        tree_size=tree_size(formula),
        instances=0,
    )
    logic_engine = logic_engine_for(engine)
    if algorithms is None:
        algorithms = roundtrip_algorithms(
            machine, formula, problem_class, engine, cross_check
        )
    original, realized, oracle = algorithms
    if not (cross_check and engine != "reference"):
        oracle = None

    for graph, numberings in batches:
        instances = [(graph, numbering) for numbering in numberings]
        streams = [
            run_iter(
                original, instances, max_rounds=max_rounds,
                engine=engine, memoize_transitions=True,
            ),
            run_iter(
                realized, instances, max_rounds=max_rounds,
                engine=engine, memoize_transitions=True,
            ),
        ]
        if oracle is not None:
            streams.append(
                run_iter(
                    oracle, instances, max_rounds=max_rounds,
                    engine="reference", memoize_transitions=True,
                )
            )
        labellings = formula_outputs(
            graph, numberings, formula, problem_class, engine=logic_engine
        )
        for numbering, expected, results in zip(numberings, labellings, zip(*streams)):
            report.instances += 1
            # The formula is the indicator of ``accepting_output``; the
            # realized algorithms genuinely output 0/1.
            machine_out = _zero_one(results[0].outputs, graph.nodes, accepting_output)
            realized_out = _zero_one(results[1].outputs, graph.nodes)
            agrees = True
            if machine_out != expected:
                report.formula_agrees = False
                agrees = False
            if realized_out != expected:
                report.algorithms_agree = False
                agrees = False
            oracle_out = None
            if oracle is not None:
                report.oracle_checked = True
                oracle_out = _zero_one(results[2].outputs, graph.nodes)
                if oracle_out != realized_out:
                    report.algorithms_agree = False
                    agrees = False
            if not agrees and report.first_disagreement is None:
                report.first_disagreement = {
                    "graph": graph,
                    "numbering": numbering,
                    "formula": expected,
                    "machine": machine_out,
                    "realized": realized_out,
                }
                if oracle_out is not None:
                    report.first_disagreement["oracle"] = oracle_out
    return report


__all__ = [
    "RoundTripReport",
    "algorithm_matches_formula",
    "formula_output",
    "formula_outputs",
    "machine_roundtrip_report",
    "roundtrip_algorithms",
]
