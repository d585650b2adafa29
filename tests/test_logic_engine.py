"""Differential tests: compiled logic engine vs the seed reference oracles.

The compiled bitset model checker and the signature-hash partition refinement
must be *identical* (not just equivalent) to the seed implementations kept in
``repro.logic.semantics`` / ``repro.logic.bisimulation``: same extensions,
same block numbering.  Randomized models exercise every formula constructor;
Fact 1 is cross-checked structurally against the truncated universal-cover
views of ``repro.graphs.covers``.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.graphs.covers import view_classes
from repro.graphs.generators import random_bounded_degree_graph, random_regular_graph
from repro.logic.bisimulation import (
    are_bisimilar,
    bisimilarity_classes,
    bisimilarity_partition,
    bounded_bisimilarity_partition,
    reference_bisimilarity_partition,
    reference_bounded_bisimilarity_partition,
)
from repro.logic.engine import (
    CompiledKripke,
    check_many,
    check_sweep,
    compile_kripke,
)
from repro.logic.kripke import KripkeModel
from repro.logic.semantics import (
    equivalent_on,
    extension,
    reference_extension,
    satisfies,
)
from repro.logic.syntax import (
    And,
    Bottom,
    Box,
    Diamond,
    Formula,
    GradedDiamond,
    Implies,
    Not,
    Or,
    Prop,
    Top,
)
from repro.modal.encoding import KripkeVariant, kripke_encoding

PROPS = ("p", "q", "unknown-prop")


def random_model(seed: int) -> KripkeModel:
    rng = random.Random(seed)
    n = rng.randrange(1, 14)
    worlds = list(range(n))
    indices = ["a", "b"][: rng.randrange(1, 3)]
    density = rng.choice([0.05, 0.15, 0.4])
    relations = {
        index: [(v, w) for v in worlds for w in worlds if rng.random() < density]
        for index in indices
    }
    valuation = {
        prop: [w for w in worlds if rng.random() < 0.4] for prop in ("p", "q")
    }
    return KripkeModel(worlds, relations, valuation)


def random_formula(rng: random.Random, depth: int, indices: list) -> Formula:
    if depth == 0:
        return rng.choice([Prop(rng.choice(PROPS)), Top(), Bottom()])

    def sub() -> Formula:
        return random_formula(rng, depth - 1, indices)

    kind = rng.randrange(8)
    if kind == 0:
        return Not(sub())
    if kind == 1:
        return And(sub(), sub())
    if kind == 2:
        return Or(sub(), sub())
    if kind == 3:
        return Implies(sub(), sub())
    index = rng.choice(indices)
    if kind == 4:
        return Diamond(sub(), index=index)
    if kind == 5:
        return Box(sub(), index=index)
    if kind == 6:
        return GradedDiamond(sub(), grade=rng.randrange(4), index=index)
    return Prop(rng.choice(PROPS))


def formula_indices(model: KripkeModel) -> list:
    indices = sorted(model.indices, key=repr)
    # Unindexed modalities are only legal on unimodal models; an index
    # absent from the model exercises the empty-relation paths.
    extra = [None] if len(indices) == 1 else []
    return indices + ["missing-index"] + extra


class TestDifferentialModelChecking:
    @pytest.mark.parametrize("seed", range(25))
    def test_extension_matches_reference_on_random_models(self, seed):
        model = random_model(seed)
        rng = random.Random(1000 + seed)
        indices = formula_indices(model)
        for depth in range(4):
            formula = random_formula(rng, depth, indices)
            assert extension(model, formula) == reference_extension(model, formula)

    @pytest.mark.parametrize("seed", range(10))
    def test_satisfies_matches_reference_on_random_models(self, seed):
        model = random_model(seed)
        rng = random.Random(2000 + seed)
        formula = random_formula(rng, 3, formula_indices(model))
        truth = reference_extension(model, formula)
        for world in model.worlds:
            assert satisfies(model, world, formula) == (world in truth)

    @pytest.mark.parametrize("seed", range(10))
    def test_check_many_matches_per_formula_extensions(self, seed):
        model = random_model(seed)
        rng = random.Random(3000 + seed)
        formulas = [random_formula(rng, 2, formula_indices(model)) for _ in range(6)]
        batched = check_many(model, formulas)
        assert batched == [reference_extension(model, f) for f in formulas]
        assert batched == check_many(model, formulas, engine="reference")

    def test_check_sweep_runs_many_models(self):
        models = [random_model(seed) for seed in range(4)]
        formulas = [Prop("p"), Diamond(Prop("q"), index="a"), Box(Prop("p"), index="a")]
        sweep = check_sweep(models, formulas)
        assert sweep == [
            [reference_extension(model, f) for f in formulas] for model in models
        ]

    def test_unknown_engine_rejected(self):
        model = random_model(0)
        with pytest.raises(ValueError):
            extension(model, Prop("p"), engine="quantum")
        with pytest.raises(ValueError):
            bisimilarity_partition(model, engine="quantum")

    def test_none_is_a_legal_relation_index_on_unimodal_models(self):
        # ``None`` is both the "unindexed modality" marker and a perfectly
        # legal relation index; a unimodal model keyed by ``None`` must not
        # be mistaken for a multimodal one.
        model = KripkeModel(
            ("a", "b", "c"), {None: [("a", "b"), ("b", "c")]}, {"p": ["c"]}
        )
        for formula in (
            Diamond(Prop("p")),
            Box(Prop("p")),
            GradedDiamond(Prop("p"), grade=1),
        ):
            assert extension(model, formula) == reference_extension(model, formula)
        assert extension(model, Diamond(Prop("p"))) == frozenset({"b"})
        assert satisfies(model, "b", Diamond(Prop("p")))

    def test_unindexed_modality_on_multimodal_model_rejected_by_both_engines(self):
        model = KripkeModel(["x"], {"a": [], "b": []}, {})
        with pytest.raises(ValueError):
            extension(model, Diamond(Prop("p")))
        with pytest.raises(ValueError):
            extension(model, Diamond(Prop("p")), engine="reference")


class TestDifferentialRefinement:
    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("graded", [False, True], ids=["plain", "graded"])
    def test_partition_identical_to_reference(self, seed, graded):
        model = random_model(seed)
        assert bisimilarity_partition(model, graded=graded) == (
            reference_bisimilarity_partition(model, graded=graded)
        )

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("graded", [False, True], ids=["plain", "graded"])
    def test_bounded_partition_identical_to_reference(self, seed, graded):
        model = random_model(seed)
        for rounds in range(4):
            assert bounded_bisimilarity_partition(model, rounds, graded=graded) == (
                reference_bounded_bisimilarity_partition(model, rounds, graded=graded)
            )

    def test_partition_identical_on_kripke_encodings(self):
        for seed in range(3):
            graph = random_bounded_degree_graph(12, 3, seed=seed)
            for variant in KripkeVariant:
                encoding = kripke_encoding(graph, variant=variant)
                for graded in (False, True):
                    assert bisimilarity_partition(encoding, graded=graded) == (
                        reference_bisimilarity_partition(encoding, graded=graded)
                    )

    def test_are_bisimilar_agrees_across_engines(self):
        one = KripkeModel(["r", "c1"], {"R": [("r", "c1")]}, {"p": ["c1"]})
        two = KripkeModel(
            ["r", "c1", "c2"], {"R": [("r", "c1"), ("r", "c2")]}, {"p": ["c1", "c2"]}
        )
        for graded in (False, True):
            assert are_bisimilar(one, "r", two, "r", graded=graded) == are_bisimilar(
                one, "r", two, "r", graded=graded, engine="reference"
            )

    def test_engine_knob_reference_roundtrip(self):
        model = random_model(7)
        assert bisimilarity_partition(model, engine="reference") == (
            bisimilarity_partition(model, engine="compiled")
        )


class TestCompiledKripke:
    def test_compiled_form_is_cached_on_the_model(self):
        model = random_model(3)
        assert compile_kripke(model) is compile_kripke(model)

    def test_compiled_form_holds_no_reference_to_its_model(self):
        """The cache is one-way (model -> compiled form), so the pair forms no
        reference cycle and is freed without the cyclic collector."""
        model = random_model(3)
        assert not any(referent is model for referent in gc.get_referents(compile_kripke(model)))

    def test_world_interning_matches_reference_order(self):
        model = random_model(4)
        compiled = compile_kripke(model)
        assert list(compiled.worlds) == sorted(model.worlds, key=repr)
        round_trip = compiled.to_worlds(compiled.to_bits(model.worlds))
        assert round_trip == model.worlds

    def test_compiled_repr_mentions_sizes(self):
        compiled = CompiledKripke(random_model(5))
        assert "CompiledKripke" in repr(compiled)

    def test_satisfies_is_localized_not_full_extension(self):
        # A long chain: checking <R><R>p at world 0 must only visit the
        # worlds reachable within the modal depth, not the whole model (the
        # seed implementation computed the full extension for every query).
        n = 500
        model = KripkeModel(
            worlds=range(n),
            relations={"R": [(i, i + 1) for i in range(n - 1)]},
            valuation={"p": [2]},
        )
        compiled = compile_kripke(model)
        trace: list = []
        assert compiled.satisfies(0, Diamond(Diamond(Prop("p"))), _trace=trace)
        visited_worlds = {world for _, world in trace}
        assert len(visited_worlds) <= 4
        assert len(trace) <= 10

    def test_satisfies_short_circuits_graded_counting(self):
        model = KripkeModel(
            worlds=range(6),
            relations={"R": [(0, j) for j in range(1, 6)]},
            valuation={"p": [1, 2, 3, 4, 5]},
        )
        compiled = compile_kripke(model)
        trace: list = []
        assert compiled.satisfies(0, GradedDiamond(Prop("p"), grade=2), _trace=trace)
        # Counting stops at the grade: only 2 successors are ever evaluated.
        assert sum(1 for phi, _ in trace if isinstance(phi, Prop)) == 2


class TestExtensionCacheRegression:
    """The ``_cache`` dict is owned by one model; foreign reuse must fail."""

    def test_cache_reuse_across_models_raises(self):
        first = KripkeModel([0, 1], {"R": [(0, 1)]}, {"p": [0]})
        second = KripkeModel([0, 1], {"R": [(0, 1)]}, {"p": [1]})
        cache: dict = {}
        assert extension(first, Prop("p"), _cache=cache) == frozenset({0})
        with pytest.raises(ValueError):
            extension(second, Prop("p"), _cache=cache)
        with pytest.raises(ValueError):
            reference_extension(second, Prop("p"), cache)

    def test_cache_reuse_on_same_model_is_allowed_and_correct(self):
        model = KripkeModel([0, 1, 2], {"R": [(0, 1), (1, 2)]}, {"p": [2]})
        cache: dict = {}
        formula = Diamond(Prop("p"))
        first = extension(model, formula, _cache=cache)
        assert extension(model, formula, _cache=cache) == first == frozenset({1})
        # An equal (but not identical) model may share the cache: cached
        # extensions are identical on equal models.
        twin = KripkeModel([0, 1, 2], {"R": [(0, 1), (1, 2)]}, {"p": [2]})
        assert extension(twin, formula, _cache=cache) == first

    def test_reference_cache_still_memoises_subformulas(self):
        model = KripkeModel([0, 1], {"R": [(0, 1)]}, {"p": [1]})
        cache: dict = {}
        reference_extension(model, Diamond(Prop("p")), cache)
        assert cache[Prop("p")] == frozenset({1})

    def test_equivalent_on_agrees_across_engines(self):
        for seed in range(8):
            model = random_model(seed)
            rng = random.Random(4000 + seed)
            indices = formula_indices(model)
            first = random_formula(rng, 2, indices)
            second = random_formula(rng, 2, indices)
            assert equivalent_on(model, first, second) == equivalent_on(
                model, first, second, engine="reference"
            )


class TestFact1CrossCheck:
    """Engine bisimilarity classes == truncated universal-cover view classes.

    In the K-,- encoding, two nodes have equal radius-``r`` views exactly
    when they are ``r``-round (graded with counting, plain without)
    bisimilar -- the graph-theoretic half of Fact 1 / Theorem 2.
    """

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("counting", [False, True], ids=["set", "multiset"])
    def test_view_classes_match_bounded_bisimilarity(self, seed, counting):
        graph = random_bounded_degree_graph(14, 3, seed=seed)
        encoding = kripke_encoding(graph, variant=KripkeVariant.NEITHER)
        for radius in range(4):
            views = view_classes(graph, radius, counting=counting)
            partition = bounded_bisimilarity_partition(
                encoding, radius, graded=counting
            )
            view_blocks = {frozenset(nodes) for nodes in views.values()}
            refinement_blocks: dict[int, set] = {}
            for node, block in partition.items():
                refinement_blocks.setdefault(block, set()).add(node)
            assert view_blocks == {
                frozenset(nodes) for nodes in refinement_blocks.values()
            }

    def test_regular_graph_views_collapse_like_bisimilarity(self):
        graph = random_regular_graph(3, 16, seed=1)
        encoding = kripke_encoding(graph, variant=KripkeVariant.NEITHER)
        classes = bisimilarity_classes(encoding, graded=True)
        # On a regular graph every node looks alike to MB/SB algorithms.
        assert len(classes) == 1
        assert len(view_classes(graph, 8, counting=True)) == 1
