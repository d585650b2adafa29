"""Unit tests for the hierarchy bookkeeping (Figure 5)."""

from __future__ import annotations

from repro.core.hierarchy import (
    LEVEL_NAMES,
    LINEAR_ORDER,
    PROVEN_EQUALITIES,
    PROVEN_SEPARATIONS,
    distinct_levels,
    is_contained_in,
    level_of,
    summary,
)
from repro.machines.models import ProblemClass


class TestLevels:
    def test_every_class_has_a_level(self):
        for problem_class in ProblemClass:
            assert 0 <= level_of(problem_class) <= 3

    def test_level_assignments_match_the_paper(self):
        assert level_of(ProblemClass.SB) == 0
        assert level_of(ProblemClass.MB) == level_of(ProblemClass.VB) == 1
        assert (
            level_of(ProblemClass.SV)
            == level_of(ProblemClass.MV)
            == level_of(ProblemClass.VV)
            == 2
        )
        assert level_of(ProblemClass.VVC) == 3

    def test_four_levels_with_names(self):
        assert len(LINEAR_ORDER) == len(LEVEL_NAMES) == 4
        assert distinct_levels() == LINEAR_ORDER


class TestQueries:
    def test_containment_is_a_total_preorder(self):
        classes = list(ProblemClass)
        for first in classes:
            for second in classes:
                assert is_contained_in(first, second) or is_contained_in(second, first)

    def test_proven_results_are_consistent_with_levels(self):
        for equality in PROVEN_EQUALITIES:
            levels = {level_of(cls) for cls in equality}
            assert len(levels) == 1
        for smaller, larger, _ in PROVEN_SEPARATIONS:
            assert level_of(smaller) + 1 == level_of(larger)


class TestConsistencyWithTrivialOrder:
    def test_trivial_order_is_a_partial_order(self):
        classes = list(ProblemClass)
        for first in classes:
            assert first.trivially_contains(first)
            for second in classes:
                if first is not second and first.trivially_contains(second):
                    assert not second.trivially_contains(first)
                for third in classes:
                    if first.trivially_contains(second) and second.trivially_contains(third):
                        assert first.trivially_contains(third)

    def test_proven_order_refines_the_trivial_order(self):
        """Whatever was trivially contained is still contained after the collapse."""
        for smaller in ProblemClass:
            for larger in ProblemClass:
                if larger.trivially_contains(smaller):
                    assert is_contained_in(smaller, larger)

    def test_collapse_adds_new_containments(self):
        # VB ⊆ SV is *not* trivial but holds in the proven order.
        assert not ProblemClass.SV.trivially_contains(ProblemClass.VB)
        assert is_contained_in(ProblemClass.VB, ProblemClass.SV)


class TestSummary:
    def test_summary_shape(self):
        report = summary()
        assert report.number_of_distinct_classes() == 4
        assert report.levels == LINEAR_ORDER

    def test_describe_matches_the_abstract(self):
        text = summary().describe()
        assert text.startswith("SB")
        assert text.endswith("VVc")
        assert text.count("⊊") == 3
        assert text.count("=") == 3
