"""Unit tests for the model checker (truth definition of Section 4.1)."""

from __future__ import annotations

import pytest

from repro.engines import available_engines
from repro.logic.kripke import KripkeModel
from repro.logic.semantics import equivalent_on, extension, satisfies
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


@pytest.fixture
def chain() -> KripkeModel:
    """A 4-world chain 0 -> 1 -> 2 -> 3 with p true at even worlds."""
    return KripkeModel(
        worlds=[0, 1, 2, 3],
        relations={"R": [(0, 1), (1, 2), (2, 3)]},
        valuation={"p": [0, 2], "q": [3]},
    )


@pytest.fixture
def branching() -> KripkeModel:
    """A root with three children, two of which satisfy p."""
    return KripkeModel(
        worlds=["root", "a", "b", "c"],
        relations={"R": [("root", "a"), ("root", "b"), ("root", "c")]},
        valuation={"p": ["a", "b"]},
    )


class TestBooleanConnectives:
    def test_constants(self, chain):
        assert extension(chain, Top()) == chain.worlds
        assert extension(chain, Bottom()) == frozenset()

    def test_proposition(self, chain):
        assert extension(chain, Prop("p")) == frozenset({0, 2})

    def test_negation(self, chain):
        assert extension(chain, Not(Prop("p"))) == frozenset({1, 3})

    def test_conjunction_disjunction(self, chain):
        assert extension(chain, And(Prop("p"), Prop("q"))) == frozenset()
        assert extension(chain, Or(Prop("p"), Prop("q"))) == frozenset({0, 2, 3})

    def test_implication(self, chain):
        # p -> q is false exactly where p holds and q fails.
        assert extension(chain, Implies(Prop("p"), Prop("q"))) == frozenset({1, 3})


class TestModalities:
    def test_diamond(self, chain):
        # <>p holds where some successor satisfies p: 1 -> 2.
        assert extension(chain, Diamond(Prop("p"))) == frozenset({1})

    def test_box(self, chain):
        # []p holds where every successor satisfies p (including dead ends).
        assert extension(chain, Box(Prop("p"))) == frozenset({1, 3})

    def test_box_diamond_duality(self, chain):
        assert equivalent_on(chain, Box(Prop("p")), Not(Diamond(Not(Prop("p")))))

    def test_nested_modalities(self, chain):
        # <><>q holds two steps before q.
        assert extension(chain, Diamond(Diamond(Prop("q")))) == frozenset({1})

    def test_graded_diamond(self, branching):
        assert extension(branching, GradedDiamond(Prop("p"), grade=1)) == frozenset({"root"})
        assert extension(branching, GradedDiamond(Prop("p"), grade=2)) == frozenset({"root"})
        assert extension(branching, GradedDiamond(Prop("p"), grade=3)) == frozenset()

    def test_graded_zero_is_trivially_true(self, branching):
        assert extension(branching, GradedDiamond(Prop("p"), grade=0)) == branching.worlds

    def test_graded_diamond_generalises_diamond(self, branching):
        assert equivalent_on(branching, Diamond(Prop("p")), GradedDiamond(Prop("p"), grade=1))


class TestMultimodal:
    def test_indexed_diamonds_use_their_relation(self):
        model = KripkeModel(
            worlds=["x", "y"],
            relations={"a": [("x", "y")], "b": []},
            valuation={"p": ["y"]},
        )
        assert extension(model, Diamond(Prop("p"), index="a")) == frozenset({"x"})
        assert extension(model, Diamond(Prop("p"), index="b")) == frozenset()

    def test_unindexed_diamond_on_multimodal_model_rejected(self):
        model = KripkeModel(
            worlds=["x"],
            relations={"a": [], "b": []},
            valuation={},
        )
        with pytest.raises(ValueError):
            extension(model, Diamond(Prop("p")))


class TestSatisfies:
    def test_satisfies(self, chain):
        assert satisfies(chain, 0, Prop("p"))
        assert not satisfies(chain, 1, Prop("p"))

    def test_unknown_world_rejected(self, chain):
        with pytest.raises(ValueError):
            satisfies(chain, 99, Prop("p"))


@pytest.mark.parametrize("engine", available_engines(requires={"logic"}))
class TestSatisfiesOnEveryEngine:
    """``satisfies`` answers from each logic engine's own extension."""

    def test_connectives_and_modalities(self, chain, engine):
        expected = {
            Prop("p"): {0, 2},
            Not(Prop("p")): {1, 3},
            Implies(Prop("p"), Prop("q")): {1, 3},
            Diamond(Prop("p")): {1},
            Box(Prop("p")): {1, 3},
            Diamond(Diamond(Prop("q"))): {1},
        }
        for formula, worlds in expected.items():
            holds = {world for world in chain.worlds if satisfies(chain, world, formula, engine=engine)}
            assert holds == worlds, formula

    def test_box_holds_vacuously_at_a_dead_end(self, chain, engine):
        assert satisfies(chain, 3, Box(Bottom()), engine=engine)
        assert not satisfies(chain, 3, Diamond(Top()), engine=engine)
        assert not satisfies(chain, 2, Box(Bottom()), engine=engine)

    def test_graded_diamond_counts_successors(self, branching, engine):
        for grade, holds in ((0, True), (1, True), (2, True), (3, False)):
            formula = GradedDiamond(Prop("p"), grade=grade)
            assert satisfies(branching, "root", formula, engine=engine) is holds
        assert not satisfies(branching, "a", GradedDiamond(Prop("p"), grade=1), engine=engine)

    def test_indexed_diamonds_use_their_relation(self, engine):
        model = KripkeModel(
            worlds=["x", "y"],
            relations={"a": [("x", "y")], "b": []},
            valuation={"p": ["y"]},
        )
        assert satisfies(model, "x", Diamond(Prop("p"), index="a"), engine=engine)
        assert not satisfies(model, "x", Diamond(Prop("p"), index="b"), engine=engine)
        assert not satisfies(model, "y", Diamond(Prop("p"), index="a"), engine=engine)
