"""Differential tests: the packed-uint64 vector logic kernel vs compiled/seed.

``engine="vector"`` model checking must be extension-identical to the
compiled bitset engine and the seed reference checker on random Kripke
models -- including models crossing the 64-bit word boundary, graded
modalities, multimodal indices, unknown propositions and empty relations.
Skipped wholesale when NumPy is not installed.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from test_logic_engine import formula_indices, random_formula, random_model  # noqa: E402

from repro.logic.engine import check_many, check_sweep, compile_kripke  # noqa: E402
from repro.logic.kripke import KripkeModel  # noqa: E402
from repro.logic.semantics import equivalent_on, extension, satisfies  # noqa: E402
from repro.logic.syntax import (  # noqa: E402
    And,
    Bottom,
    Box,
    Diamond,
    GradedDiamond,
    Not,
    Prop,
    Top,
)
from repro.logic.vector import VectorKripke, vector_check_many, vector_kripke  # noqa: E402


def big_model(n=150, seed=99):
    """A random bimodal model wide enough to cross the uint64 word boundary."""
    rng = random.Random(seed)
    worlds = list(range(n))
    relations = {
        "a": frozenset((u, v) for u in worlds for v in worlds if rng.random() < 0.03),
        "b": frozenset((u, v) for u in worlds for v in worlds if rng.random() < 0.01),
    }
    valuation = {
        "p": frozenset(w for w in worlds if rng.random() < 0.4),
        "q": frozenset(w for w in worlds if rng.random() < 0.2),
    }
    return KripkeModel(
        worlds=frozenset(worlds), relations=relations, valuation=valuation
    )


BIG_FORMULAS = [
    Diamond(Prop("p"), index="a"),
    Box(Prop("q"), index="b"),
    GradedDiamond(Prop("p"), 3, index="a"),
    GradedDiamond(Prop("q"), 0, index="a"),
    GradedDiamond(Not(Prop("q")), 2, index="b"),
    And(
        Diamond(Box(Prop("p"), index="a"), index="b"),
        Not(GradedDiamond(Top(), 2, index="a")),
    ),
    Bottom(),
    Top(),
    Prop("r"),  # unknown proposition: empty extension
]


class TestRandomModelsDifferential:
    @pytest.mark.parametrize("seed", range(25))
    def test_check_many_identical_to_compiled_and_reference(self, seed):
        model = random_model(seed)
        rng = random.Random(seed + 1000)
        indices = formula_indices(model)
        formulas = [
            random_formula(rng, rng.randrange(0, 5), indices) for _ in range(12)
        ]
        vectored = check_many(model, formulas, engine="vector")
        assert vectored == check_many(model, formulas)
        assert vectored == check_many(model, formulas, engine="reference")

    @pytest.mark.parametrize("seed", range(0, 25, 5))
    def test_extension_satisfies_equivalent_on(self, seed):
        model = random_model(seed)
        rng = random.Random(seed + 2000)
        indices = formula_indices(model)
        first = random_formula(rng, 4, indices)
        second = random_formula(rng, 4, indices)
        assert extension(model, first, engine="vector") == extension(model, first)
        assert equivalent_on(model, first, second, engine="vector") == equivalent_on(
            model, first, second
        )
        assert equivalent_on(model, first, first, engine="vector")
        for world in sorted(model.worlds, key=repr)[:3]:
            assert satisfies(model, world, first, engine="vector") == satisfies(
                model, world, first
            )


class TestWordBoundaryAndEdgeCases:
    def test_model_crossing_word_boundary(self):
        model = big_model()
        vectored = check_many(model, BIG_FORMULAS, engine="vector")
        assert vectored == check_many(model, BIG_FORMULAS)
        assert vectored == check_many(model, BIG_FORMULAS, engine="reference")

    def test_packed_rows_decode_to_compiled_bitsets(self):
        model = big_model(n=70, seed=5)
        compiled = compile_kripke(model)
        vector = vector_kripke(model)
        assert isinstance(vector, VectorKripke)
        cache: dict = {}
        for formula in BIG_FORMULAS:
            assert vector.extension_bits(formula, cache) == compiled.extension_bits(
                formula, {}
            )

    def test_vector_form_cached_on_compiled_form(self):
        model = random_model(4)
        assert vector_kripke(model) is vector_kripke(model)
        assert vector_kripke(model) is vector_kripke(compile_kripke(model))

    def test_empty_relation_index(self):
        model = KripkeModel(
            worlds=frozenset([0, 1]),
            relations={"a": frozenset()},
            valuation={"p": frozenset([0])},
        )
        formulas = [
            Diamond(Prop("p"), index="a"),
            Box(Prop("p"), index="a"),
            GradedDiamond(Top(), 1, index="a"),
        ]
        assert check_many(model, formulas, engine="vector") == check_many(
            model, formulas
        )

    def test_single_world_model(self):
        model = KripkeModel(
            worlds=frozenset(["w"]),
            relations={"a": frozenset([("w", "w")])},
            valuation={"p": frozenset(["w"])},
        )
        formulas = [Diamond(Prop("p"), index="a"), GradedDiamond(Prop("p"), 2, index="a")]
        assert check_many(model, formulas, engine="vector") == check_many(
            model, formulas
        )

    def test_check_sweep_vector_engine(self):
        models = [random_model(s) for s in range(5)]
        rng = random.Random(7)
        shared = [
            random_formula(rng, 3, formula_indices(models[0])) for _ in range(6)
        ]
        assert check_sweep(models, shared, engine="vector") == check_sweep(
            models, shared
        )

    def test_vector_check_many_entry_point(self):
        model = random_model(6)
        rng = random.Random(8)
        formulas = [random_formula(rng, 3, formula_indices(model)) for _ in range(4)]
        assert vector_check_many(model, formulas) == check_many(model, formulas)

    def test_graded_grades_across_popcount_paths(self):
        # grade 0 (trivially true), grade 1 (diamond path) and grades that
        # force the popcount path must all agree with the oracles.
        model = big_model(n=90, seed=21)
        formulas = [
            GradedDiamond(Top(), grade, index="a") for grade in (0, 1, 2, 3, 5, 64)
        ]
        vectored = check_many(model, formulas, engine="vector")
        assert vectored == check_many(model, formulas)
        assert vectored == check_many(model, formulas, engine="reference")
