"""Experiment E4 -- the modal-logic characterisation (Theorem 2, Table 3).

Checks both halves of the capture theorem on concrete inputs:

* formula -> algorithm: compiled algorithms of every class agree with the
  extension of the formula in the matching Kripke encoding, and run within
  ``md(phi) + 1`` rounds;
* algorithm -> formula: the library machine of *every* class is pushed
  through the full round-trip pipeline
  (:func:`~repro.modal.correspondence.machine_roundtrip_report`): machine
  outputs, the hash-consed Table 4/5 formula's extension and the recompiled
  formula-algorithm's outputs must coincide on every adversarial port
  numbering, with the seed formula-algorithm running as a differential
  oracle against the compiled one.

The formula side runs on the compiled bitset model checker and the
executions run as superposed adversarial sweeps (both via
:mod:`repro.modal.correspondence`); a final row cross-checks the compiled
checker against the seed reference checker on every encoding the experiment
touches.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult
from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.logic.engine import check_many
from repro.logic.syntax import And, Diamond, GradedDiamond, Not, Prop, Top, modal_depth
from repro.machines.library import reference_machine
from repro.modal.encoding import kripke_encoding, variant_for_class
from repro.machines.models import ProblemClass
from repro.machines.state_machine import FiniteStateMachine, algorithm_from_machine
from repro.modal.algorithm_to_formula import formula_for_machine
from repro.modal.correspondence import (
    algorithm_matches_formula,
    machine_roundtrip_report,
)
from repro.modal.formula_to_algorithm import algorithm_for_formula
from repro.problems.verification import worst_case_running_time

_GRAPHS = (star_graph(3), path_graph(4), cycle_graph(4), path_graph(2))

_FORMULA_CASES = (
    (ProblemClass.SB, Diamond(Diamond(Prop("deg1"), index=("*", "*")), index=("*", "*"))),
    (ProblemClass.MB, GradedDiamond(Prop("deg2"), grade=2, index=("*", "*"))),
    (ProblemClass.VB, And(Prop("deg2"), Diamond(Not(Prop("deg2")), index=(2, "*")))),
    (ProblemClass.SV, And(Prop("deg1"), Diamond(Top(), index=("*", 1)))),
    (ProblemClass.MV, GradedDiamond(Diamond(Prop("deg1"), index=("*", 1)), grade=2, index=("*", 2))),
    (ProblemClass.VV, And(Prop("deg2"), Diamond(Prop("deg1"), index=(1, 2)))),
)


def _tiny_machine() -> FiniteStateMachine:
    """A one-round SB machine: output 1 iff some neighbour has odd degree."""

    def message(state, port):
        return "O" if state == "odd" else "E"

    def transition(state, vector):
        return 1 if "O" in set(vector) else 0

    return FiniteStateMachine(
        delta_bound=3,
        intermediate_states=frozenset({"even", "odd"}),
        stopping_states=frozenset({0, 1}),
        messages=frozenset({"E", "O"}),
        initial_states={0: "even", 1: "odd", 2: "even", 3: "odd"},
        message_table=message,
        transition_table=transition,
    )


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E4",
        title="Modal logics capture the constant-time classes",
        paper_reference="Theorem 2, Tables 3-5",
    )
    for problem_class, formula in _FORMULA_CASES:
        algorithm = algorithm_for_formula(formula, problem_class)
        matches = algorithm_matches_formula(algorithm, formula, problem_class, _GRAPHS)
        runtime = worst_case_running_time(
            algorithm,
            _GRAPHS,
            consistent_only=problem_class.requires_consistency,
            exhaustive_limit=100,
            samples=5,
        )
        bound = modal_depth(formula) + 1
        result.add(
            f"{problem_class}: formula -> algorithm",
            "algorithm realises ||phi||, time <= md(phi)+1",
            f"agrees={matches}, time={runtime} <= {bound}",
            matches and runtime <= bound,
        )

    # Differential sanity for the logic engine itself: on every encoding the
    # experiment uses, the compiled bitset checker and the seed reference
    # checker must produce identical extensions (batched per model).
    by_variant: dict = {}
    for case_class, formula in _FORMULA_CASES:
        by_variant.setdefault(variant_for_class(case_class), []).append(formula)
    engines_agree = True
    for variant, formulas in by_variant.items():
        for graph in _GRAPHS:
            encoding = kripke_encoding(graph, variant=variant)
            if check_many(encoding, formulas, engine="compiled") != check_many(
                encoding, formulas, engine="reference"
            ):
                engines_agree = False
    result.add(
        "compiled checker == seed checker",
        "bitset engine and reference agree on every E4 encoding",
        f"agree={engines_agree} over {len(_GRAPHS)} graphs x {len(by_variant)} encodings",
        engines_agree,
    )

    machine = _tiny_machine()
    formula = formula_for_machine(machine, ProblemClass.SB, running_time=1)
    wrapped = algorithm_from_machine(machine.as_state_machine())
    machine_matches = algorithm_matches_formula(wrapped, formula, ProblemClass.SB, _GRAPHS)
    result.add(
        "SB: algorithm -> formula",
        "formula captures the machine, md = running time",
        f"agrees={machine_matches}, md={modal_depth(formula)} (T=1)",
        machine_matches and modal_depth(formula) == 1,
    )

    # The full round trip for every class: machine -> hash-consed Table 4/5
    # formula -> compiled formula-algorithm, cross-checked (on the compiled
    # engine) against the seed formula-algorithm as a differential oracle.
    for problem_class in ProblemClass:
        report = machine_roundtrip_report(
            reference_machine(problem_class, delta=3),
            problem_class,
            running_time=1,
            graphs=_GRAPHS,
        )
        result.add(
            f"{problem_class}: machine -> formula -> algorithm",
            "round trip agrees on every adversarial numbering (compiled == seed)",
            f"agree={report.agree}, oracle={report.oracle_checked}, "
            f"instances={report.instances}, dag={report.dag_size} vs "
            f"tree={report.tree_size}, md={report.modal_depth}",
            report.agree and report.oracle_checked and report.modal_depth == 1,
        )
    return result
