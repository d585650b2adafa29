"""Tests for Theorem 2, parts 1-2: compiling formulas into local algorithms."""

from __future__ import annotations

import pytest

from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    odd_odd_gadget_pair,
    path_graph,
    star_graph,
)
from repro.logic.syntax import (
    And,
    Box,
    Diamond,
    GradedDiamond,
    Implies,
    Not,
    Prop,
    Top,
    modal_depth,
)
from repro.machines.models import ProblemClass, ReceiveMode, SendMode
from repro.modal.correspondence import algorithm_matches_formula
from repro.modal.formula_to_algorithm import FormulaAlgorithm, algorithm_for_formula
from repro.problems.verification import worst_case_running_time

GRAPHS = (star_graph(3), path_graph(4), cycle_graph(4), path_graph(2), complete_graph(3))


class TestModelSelection:
    def test_algorithm_model_matches_class(self):
        phi = Diamond(Prop("deg1"), index=("*", "*"))
        for problem_class in (ProblemClass.SB, ProblemClass.MB):
            algorithm = algorithm_for_formula(phi, problem_class)
            assert algorithm.model == problem_class.model

    def test_broadcast_classes_broadcast(self):
        phi = Diamond(Prop("deg1"), index=("*", "*"))
        algorithm = algorithm_for_formula(phi, ProblemClass.SB)
        assert algorithm.model.send is SendMode.BROADCAST
        assert algorithm.model.receive is ReceiveMode.SET


class TestIndexValidation:
    def test_sb_rejects_port_indices(self):
        with pytest.raises(ValueError):
            algorithm_for_formula(Diamond(Prop("p"), index=(1, 2)), ProblemClass.SB)

    def test_vv_requires_both_ports(self):
        with pytest.raises(ValueError):
            algorithm_for_formula(Diamond(Prop("p"), index=("*", 2)), ProblemClass.VV)
        with pytest.raises(ValueError):
            algorithm_for_formula(Diamond(Prop("p"), index=(1, "*")), ProblemClass.VV)

    def test_sv_rejects_incoming_port(self):
        with pytest.raises(ValueError):
            algorithm_for_formula(Diamond(Prop("p"), index=(1, 2)), ProblemClass.SV)

    def test_vb_rejects_outgoing_port(self):
        with pytest.raises(ValueError):
            algorithm_for_formula(Diamond(Prop("p"), index=(1, 2)), ProblemClass.VB)

    def test_set_classes_reject_counting(self):
        graded = GradedDiamond(Prop("p"), grade=2, index=("*", "*"))
        with pytest.raises(ValueError):
            algorithm_for_formula(graded, ProblemClass.SB)
        graded_sv = GradedDiamond(Prop("p"), grade=2, index=("*", 1))
        with pytest.raises(ValueError):
            algorithm_for_formula(graded_sv, ProblemClass.SV)

    def test_malformed_index_rejected(self):
        with pytest.raises(ValueError):
            algorithm_for_formula(Diamond(Prop("p"), index="weird"), ProblemClass.SB)


class TestAgreementWithSemantics:
    @pytest.mark.parametrize(
        "problem_class, formula",
        [
            (ProblemClass.SB, Diamond(Prop("deg1"), index=("*", "*"))),
            (ProblemClass.SB, Diamond(Diamond(Prop("deg3"), index=("*", "*")), index=("*", "*"))),
            (ProblemClass.SB, Not(Diamond(Prop("deg2"), index=("*", "*")))),
            (ProblemClass.MB, GradedDiamond(Prop("deg1"), grade=2, index=("*", "*"))),
            (ProblemClass.MB, GradedDiamond(Prop("deg2"), grade=2, index=(None))),
            (ProblemClass.VB, And(Prop("deg2"), Diamond(Prop("deg1"), index=(1, "*")))),
            (ProblemClass.VB, Box(Prop("deg2"), index=(2, "*"))),
            (ProblemClass.SV, And(Prop("deg1"), Diamond(Top(), index=("*", 1)))),
            (ProblemClass.SV, Diamond(Diamond(Prop("deg1"), index=("*", 2)), index=("*", 1))),
            (ProblemClass.MV, GradedDiamond(Prop("deg1"), grade=2, index=("*", 1))),
            (ProblemClass.VV, And(Prop("deg2"), Diamond(Prop("deg1"), index=(1, 2)))),
            (ProblemClass.VV, Implies(Diamond(Prop("deg1"), index=(1, 1)), Prop("deg3"))),
            (ProblemClass.VVC, Diamond(Diamond(Prop("deg1"), index=(2, 2)), index=(1, 1))),
        ],
        ids=lambda value: str(value),
    )
    def test_compiled_algorithm_matches_extension(self, problem_class, formula):
        algorithm = algorithm_for_formula(formula, problem_class)
        assert algorithm_matches_formula(algorithm, formula, problem_class, GRAPHS)

    def test_running_time_is_bounded_by_modal_depth(self):
        formula = Diamond(Diamond(Prop("deg1"), index=("*", "*")), index=("*", "*"))
        algorithm = algorithm_for_formula(formula, ProblemClass.SB)
        runtime = worst_case_running_time(algorithm, GRAPHS, exhaustive_limit=50, samples=5)
        assert runtime <= modal_depth(formula) + 1
        assert algorithm.running_time_bound == modal_depth(formula) + 1

    def test_depth_zero_formula_needs_no_communication(self):
        algorithm = algorithm_for_formula(Prop("deg2"), ProblemClass.SB)
        runtime = worst_case_running_time(algorithm, GRAPHS, exhaustive_limit=20, samples=3)
        assert runtime == 0

    def test_odd_odd_problem_as_a_gml_formula(self):
        """The Theorem 13 problem written directly in GML and compiled to MB."""
        odd_degree = Prop("deg1") | Prop("deg3")
        # "an odd number of odd-degree neighbours" for maximum degree 3:
        # exactly 1 or exactly 3.

        def at_least(k):
            return GradedDiamond(odd_degree, grade=k, index=("*", "*"))

        formula = (at_least(1) & ~at_least(2)) | at_least(3)
        algorithm = algorithm_for_formula(formula, ProblemClass.MB)
        graph, first, second = odd_odd_gadget_pair()
        from repro.execution.runner import run
        from repro.problems.separating import OddOddNeighbours

        outputs = run(algorithm, graph).outputs
        problem = OddOddNeighbours()
        assert outputs == {
            node: problem.expected_output(graph, node) for node in graph.nodes
        }
        assert outputs[first] != outputs[second]


class TestMetadata:
    def test_name_mentions_class_and_formula(self):
        algorithm = algorithm_for_formula(Prop("deg1"), ProblemClass.MB)
        assert "MB" in algorithm.name and "deg1" in algorithm.name

    @pytest.mark.parametrize("engine", ["compiled", "sweep", "vector"])
    def test_a_stalled_large_formula_algorithm_raises_execution_error(self, engine):
        """The name of a Table 4/5 formula algorithm describes its formula
        instead of printing a tree whose printer would exhaust the stack."""
        from repro.engines import available_engines
        from repro.execution.engine import ExecutionError, run_many
        from repro.machines.library import reference_machine
        from repro.modal.algorithm_to_formula import formula_for_machine

        if engine not in available_engines():
            pytest.skip(f"engine {engine!r} is unavailable")
        vv = ProblemClass.VV
        phi = formula_for_machine(reference_machine(vv, delta=3), vv, 2)
        algorithm = algorithm_for_formula(phi, vv)
        with pytest.raises(ExecutionError, match=r"\[VV\]\(tree_size=\d+, modal_depth=2\)"):
            run_many(algorithm, [star_graph(3)], max_rounds=1, engine=engine)
        assert "tree_size=" in FormulaAlgorithm(phi, vv).name

    def test_formula_and_class_accessors(self):
        phi = Diamond(Prop("deg1"), index=("*", "*"))
        algorithm = FormulaAlgorithm(phi, ProblemClass.SB)
        assert algorithm.formula == phi
        assert algorithm.problem_class is ProblemClass.SB
