"""Unit tests for the model and problem-class definitions (Sections 1.5-1.6)."""

from __future__ import annotations

from repro.machines.models import (
    ALGORITHM_MODELS,
    BROADCAST_MODEL,
    MULTISET_BROADCAST_MODEL,
    MULTISET_MODEL,
    SET_BROADCAST_MODEL,
    SET_MODEL,
    VECTOR_MODEL,
    ProblemClass,
    ReceiveMode,
    SendMode,
)
from repro.machines.multiset import FrozenMultiset


class TestReceiveModes:
    def test_vector_projection_keeps_order(self):
        assert ReceiveMode.VECTOR.project(["a", "b", "a"]) == ("a", "b", "a")

    def test_multiset_projection(self):
        projected = ReceiveMode.MULTISET.project(["a", "b", "a"])
        assert isinstance(projected, FrozenMultiset)
        assert projected.count("a") == 2

    def test_set_projection(self):
        assert ReceiveMode.SET.project(["a", "b", "a"]) == frozenset({"a", "b"})

    def test_information_order(self):
        assert ReceiveMode.SET.is_weaker_or_equal(ReceiveMode.MULTISET)
        assert ReceiveMode.MULTISET.is_weaker_or_equal(ReceiveMode.VECTOR)
        assert not ReceiveMode.VECTOR.is_weaker_or_equal(ReceiveMode.SET)


class TestSendModes:
    def test_information_order(self):
        assert SendMode.BROADCAST.is_weaker_or_equal(SendMode.PORT)
        assert not SendMode.PORT.is_weaker_or_equal(SendMode.BROADCAST)


class TestModels:
    def test_all_six_models_are_distinct(self):
        assert len(set(ALGORITHM_MODELS)) == 6

    def test_names(self):
        assert VECTOR_MODEL.name == "VV"
        assert MULTISET_MODEL.name == "MV"
        assert SET_MODEL.name == "SV"
        assert BROADCAST_MODEL.name == "VB"
        assert MULTISET_BROADCAST_MODEL.name == "MB"
        assert SET_BROADCAST_MODEL.name == "SB"

    def test_weakness_partial_order(self):
        assert SET_BROADCAST_MODEL.is_weaker_or_equal(VECTOR_MODEL)
        assert MULTISET_BROADCAST_MODEL.is_weaker_or_equal(MULTISET_MODEL)
        assert BROADCAST_MODEL.is_weaker_or_equal(VECTOR_MODEL)
        assert not SET_MODEL.is_weaker_or_equal(BROADCAST_MODEL)
        assert not BROADCAST_MODEL.is_weaker_or_equal(SET_MODEL)


class TestProblemClasses:
    def test_models_of_the_seven_classes(self):
        assert ProblemClass.VVC.model == VECTOR_MODEL
        assert ProblemClass.VV.model == VECTOR_MODEL
        assert ProblemClass.MV.model == MULTISET_MODEL
        assert ProblemClass.SV.model == SET_MODEL
        assert ProblemClass.VB.model == BROADCAST_MODEL
        assert ProblemClass.MB.model == MULTISET_BROADCAST_MODEL
        assert ProblemClass.SB.model == SET_BROADCAST_MODEL

    def test_only_vvc_requires_consistency(self):
        assert ProblemClass.VVC.requires_consistency
        assert not any(
            cls.requires_consistency for cls in ProblemClass if cls is not ProblemClass.VVC
        )

    def test_figure_5a_containments(self):
        # The chain SB ⊆ MB ⊆ MV ⊆ VV ⊆ VVc.
        chain = [
            ProblemClass.SB,
            ProblemClass.MB,
            ProblemClass.MV,
            ProblemClass.VV,
            ProblemClass.VVC,
        ]
        for smaller, larger in zip(chain, chain[1:]):
            assert larger.trivially_contains(smaller)
        # The side chains SB ⊆ SV ⊆ MV and MB ⊆ VB ⊆ VV.
        assert ProblemClass.SV.trivially_contains(ProblemClass.SB)
        assert ProblemClass.MV.trivially_contains(ProblemClass.SV)
        assert ProblemClass.VB.trivially_contains(ProblemClass.MB)
        assert ProblemClass.VV.trivially_contains(ProblemClass.VB)

    def test_orthogonal_classes_are_not_trivially_comparable(self):
        assert not ProblemClass.SV.trivially_contains(ProblemClass.VB)
        assert not ProblemClass.VB.trivially_contains(ProblemClass.SV)

    def test_string_representation(self):
        assert str(ProblemClass.VVC) == "VVc"
        assert str(ProblemClass.SB) == "SB"
