"""Unit tests for the formula parser."""

from __future__ import annotations

import sys

import pytest

from repro.logic.parser import FormulaParseError, parse_formula
from repro.logic.syntax import (
    And,
    Bottom,
    Box,
    Diamond,
    GradedDiamond,
    Implies,
    Not,
    Or,
    Prop,
    Top,
)
from repro.machines.library import reference_machine
from repro.machines.models import ProblemClass
from repro.modal.algorithm_to_formula import formula_for_machine


class TestAtoms:
    def test_proposition(self):
        assert parse_formula("q1") == Prop("q1")

    def test_constants(self):
        assert parse_formula("true") == Top()
        assert parse_formula("false") == Bottom()

    def test_parentheses(self):
        assert parse_formula("((q))") == Prop("q")


class TestConnectives:
    def test_negation(self):
        assert parse_formula("~p") == Not(Prop("p"))
        assert parse_formula("~~p") == Not(Not(Prop("p")))

    def test_conjunction_is_left_associative(self):
        assert parse_formula("a & b & c") == And(And(Prop("a"), Prop("b")), Prop("c"))

    def test_precedence_and_over_or(self):
        assert parse_formula("a | b & c") == Or(Prop("a"), And(Prop("b"), Prop("c")))

    def test_implication_is_right_associative(self):
        assert parse_formula("a -> b -> c") == Implies(Prop("a"), Implies(Prop("b"), Prop("c")))


class TestModalities:
    def test_plain_diamond_and_box(self):
        assert parse_formula("<> p") == Diamond(Prop("p"))
        assert parse_formula("[] p") == Box(Prop("p"))

    def test_indexed_diamond(self):
        assert parse_formula("<2,1> p") == Diamond(Prop("p"), index=(2, 1))
        assert parse_formula("<*,1> p") == Diamond(Prop("p"), index=("*", 1))

    def test_graded_diamond(self):
        assert parse_formula("<>>=2 p") == GradedDiamond(Prop("p"), grade=2)
        assert parse_formula("<*,*>>=3 q") == GradedDiamond(Prop("q"), grade=3, index=("*", "*"))

    def test_modal_scope_is_tight(self):
        assert parse_formula("<>p & q") == And(Diamond(Prop("p")), Prop("q"))


class TestRoundTrips:
    @pytest.mark.parametrize(
        "formula",
        [
            Prop("deg1"),
            Not(Prop("q")),
            And(Prop("a"), Or(Prop("b"), Not(Prop("c")))),
            Diamond(Prop("p")),
            Diamond(And(Prop("p"), Prop("q")), index=(1, 2)),
            GradedDiamond(Diamond(Prop("p"), index=("*", 1)), grade=2, index=("*", 2)),
            Box(Not(Prop("p")), index=(3, "*")),
            Implies(Prop("a"), Diamond(Prop("b"))),
        ],
        ids=lambda f: str(f),
    )
    def test_str_then_parse_is_identity(self, formula):
        assert parse_formula(str(formula)) == formula


class TestErrors:
    @pytest.mark.parametrize(
        "text", ["", "p &", "(p", "p )", "<>>=x p", "p q", "& p", "p # q"]
    )
    def test_malformed_inputs_raise(self, text):
        with pytest.raises(FormulaParseError):
            parse_formula(text)


@pytest.fixture
def default_recursion_limit():
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(previous)


@pytest.mark.usefixtures("default_recursion_limit")
class TestDeepFormulas:
    """The Table 4/5 formulas nest far deeper than the recursion limit, and
    their printed text still parses back to the interned formula."""

    @staticmethod
    def parity_formula(problem_class, delta):
        machine = reference_machine(problem_class, delta, rounds=1)
        return formula_for_machine(machine, problem_class, 1)

    def test_the_one_round_vv_formula_at_delta_3(self):
        formula = self.parity_formula(ProblemClass.VV, 3)
        text = str(formula)
        assert len(text) > 70_000
        assert parse_formula(text) is formula

    @pytest.mark.parametrize("delta", [2, 3])
    @pytest.mark.parametrize("problem_class", list(ProblemClass), ids=str)
    def test_library_parity_formulas_round_trip(self, problem_class, delta):
        formula = self.parity_formula(problem_class, delta)
        assert parse_formula(str(formula)) is formula
