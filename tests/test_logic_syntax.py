"""Unit tests for the formula AST (Section 4.1)."""

from __future__ import annotations

import hashlib

import pytest

from repro.logic import syntax
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
    conjunction,
    disjunction,
    is_graded,
    logic_of,
    modal_depth,
    modal_indices,
    propositions,
    subformulas,
)
from repro.machines.library import reference_machine
from repro.machines.models import ProblemClass
from repro.modal.algorithm_to_formula import formula_for_machine


class TestConstruction:
    def test_formulas_are_hashable_values(self):
        assert Prop("q") == Prop("q")
        assert hash(And(Prop("p"), Prop("q"))) == hash(And(Prop("p"), Prop("q")))
        assert Prop("p") != Prop("q")

    def test_operator_sugar(self):
        sugar = Prop("p") & ~Prop("q") | Prop("r")
        explicit = Or(And(Prop("p"), Not(Prop("q"))), Prop("r"))
        assert sugar == explicit

    def test_implication_sugar(self):
        assert (Prop("p") >> Prop("q")) == Implies(Prop("p"), Prop("q"))

    def test_graded_diamond_rejects_negative_grade(self):
        with pytest.raises(ValueError):
            GradedDiamond(Prop("p"), grade=-1)

    def test_conjunction_and_disjunction_builders(self):
        assert conjunction([]) == Top()
        assert disjunction([]) == Bottom()
        assert conjunction([Prop("p")]) == Prop("p")
        assert disjunction([Prop("p"), Prop("q")]) == Or(Prop("p"), Prop("q"))


class TestModalDepth:
    def test_depth_of_propositional_formulas(self):
        assert modal_depth(Prop("q")) == 0
        assert modal_depth(And(Prop("p"), Not(Prop("q")))) == 0

    def test_depth_counts_nesting_not_occurrences(self):
        one_deep = And(Diamond(Prop("p")), Diamond(Prop("q")))
        assert modal_depth(one_deep) == 1
        nested = Diamond(Diamond(Diamond(Prop("p"))))
        assert modal_depth(nested) == 3

    def test_graded_and_box_count_as_modalities(self):
        assert modal_depth(GradedDiamond(Prop("p"), grade=2)) == 1
        assert modal_depth(Box(Diamond(Prop("p")))) == 2

    def test_depth_of_mixed_formula(self):
        phi = Implies(Diamond(Prop("p")), Diamond(Diamond(Prop("q"))))
        assert modal_depth(phi) == 2


class TestStructuralQueries:
    def test_subformulas(self):
        phi = And(Prop("p"), Diamond(Not(Prop("q"))))
        subs = subformulas(phi)
        assert Prop("p") in subs and Prop("q") in subs
        assert Not(Prop("q")) in subs and phi in subs
        assert len(subs) == 5

    def test_propositions(self):
        phi = Or(Prop("a"), Diamond(And(Prop("b"), Prop("a"))))
        assert propositions(phi) == frozenset({"a", "b"})

    def test_modal_indices(self):
        phi = And(Diamond(Prop("p"), index=(1, 2)), GradedDiamond(Prop("q"), 2, index=("*", 1)))
        assert modal_indices(phi) == frozenset({(1, 2), ("*", 1)})

    def test_is_graded(self):
        assert is_graded(GradedDiamond(Prop("p"), 3))
        assert not is_graded(Diamond(Prop("p")))


class TestLogicClassification:
    def test_plain_ml(self):
        assert logic_of(Diamond(Prop("p"))) == "ML"

    def test_graded_ml(self):
        assert logic_of(GradedDiamond(Prop("p"), 2)) == "GML"

    def test_multimodal(self):
        assert logic_of(Diamond(Prop("p"), index=(1, 1))) == "MML"

    def test_graded_multimodal(self):
        phi = And(Diamond(Prop("p"), index=(1, 1)), GradedDiamond(Prop("q"), 2, index=(1, 2)))
        assert logic_of(phi) == "GMML"

    def test_propositional_formula_is_ml(self):
        assert logic_of(And(Prop("p"), Not(Prop("q")))) == "ML"


class TestPrinting:
    def test_round_trippable_strings(self):
        assert str(Prop("q1")) == "q1"
        assert str(Not(Prop("q"))) == "~q"
        assert str(Diamond(Prop("p"))) == "<>p"
        assert str(Diamond(Prop("p"), index=(2, 1))) == "<2,1>p"
        assert str(GradedDiamond(Prop("p"), 2, index=("*", "*"))) == "<*,*>>=2 p"
        assert str(Box(Prop("p"))) == "[]p"
        assert str(And(Prop("p"), Prop("q"))) == "(p & q)"

    def test_constructor_reprs(self):
        assert repr(Not(Prop("q"))) == "Not(operand=Prop(name='q'))"
        assert repr(Implies(Bottom(), Box(Prop(3)))) == (
            "Implies(left=Bottom(), right=Box(operand=Prop(name=3), index=None))"
        )
        assert repr(GradedDiamond(Top(), 2, index=(1, "*"))) == (
            "GradedDiamond(operand=Top(), grade=2, index=(1, '*'))"
        )

    def test_deep_table_formula_prints_in_full(self):
        """The one-round VV formula at Delta=3 (tree 17,990) nests deeper than
        the default recursion limit; printing it must not recurse.  The pins
        are the output of the recursive printers under a raised limit."""
        formula = formula_for_machine(reference_machine(ProblemClass.VV, 3), ProblemClass.VV, 1)

        def fingerprint(text):
            return len(text), hashlib.sha256(text.encode()).hexdigest()[:16]

        assert fingerprint(str(formula)) == (72_146, "89ae1cc9a1c27877")
        assert fingerprint(repr(formula)) == (314_001, "4b6907761943723a")

    def test_formula_over_the_limit_prints_a_summary(self, monkeypatch):
        phi = And(Diamond(Prop("p"), index=(1, 1)), Not(Prop("p")))
        monkeypatch.setattr(syntax, "PRINT_TREE_LIMIT", 4)
        assert str(phi) == repr(phi) == "<And: dag_size=4, tree_size=5, modal_depth=1>"
        assert str(Not(Prop("p"))) == "~p"
