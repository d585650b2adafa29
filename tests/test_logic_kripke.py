"""Unit tests for Kripke models."""

from __future__ import annotations

import pytest

from repro.logic.kripke import KripkeModel


def _simple_model() -> KripkeModel:
    return KripkeModel(
        worlds={"u", "v", "w"},
        relations={"R": [("u", "v"), ("v", "w"), ("w", "w")]},
        valuation={"p": ["u", "w"], "q": ["v"]},
    )


class TestConstruction:
    def test_empty_world_set_rejected(self):
        with pytest.raises(ValueError):
            KripkeModel([], {}, {})

    def test_relation_over_unknown_world_rejected(self):
        with pytest.raises(ValueError):
            KripkeModel(["a"], {"R": [("a", "b")]})

    def test_valuation_over_unknown_world_rejected(self):
        with pytest.raises(ValueError):
            KripkeModel(["a"], {}, {"p": ["zzz"]})

    def test_missing_valuation_defaults_to_false(self):
        model = KripkeModel(["a"], {}, {})
        assert not model.holds("p", "a")
        assert model.valuation_of("p") == frozenset()


class TestQueries:
    def test_successors(self):
        model = _simple_model()
        assert model.successors("u", "R") == ("v",)
        assert model.successors("w", "R") == ("w",)
        assert model.successors("u", "unknown") == ()

    def test_relation_and_indices(self):
        model = _simple_model()
        assert ("u", "v") in model.relation("R")
        assert model.indices == frozenset({"R"})

    def test_labels(self):
        model = _simple_model()
        assert model.label("u") == frozenset({"p"})
        assert model.label("v") == frozenset({"q"})

    def test_holds(self):
        model = _simple_model()
        assert model.holds("p", "w")
        assert not model.holds("q", "w")


class TestValueSemantics:
    def test_equality_and_hash(self):
        assert _simple_model() == _simple_model()
        assert hash(_simple_model()) == hash(_simple_model())

    def test_inequality_on_valuation(self):
        other = KripkeModel(
            worlds={"u", "v", "w"},
            relations={"R": [("u", "v"), ("v", "w"), ("w", "w")]},
            valuation={"p": ["u"], "q": ["v"]},
        )
        assert other != _simple_model()

    def test_repr(self):
        assert "KripkeModel" in repr(_simple_model())
