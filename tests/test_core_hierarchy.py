"""Unit tests for the hierarchy bookkeeping (Figure 5)."""

from __future__ import annotations

from repro.core.hierarchy import (
    LEVEL_NAMES,
    LINEAR_ORDER,
    PROVEN_EQUALITIES,
    PROVEN_SEPARATIONS,
    are_equal,
    collapse,
    distinct_levels,
    is_contained_in,
    is_strictly_contained_in,
    level_of,
    separation_between,
    summary,
    trivially_contained_in,
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

    def test_equalities(self):
        assert are_equal(ProblemClass.MB, ProblemClass.VB)
        assert are_equal(ProblemClass.SV, ProblemClass.VV)
        assert not are_equal(ProblemClass.SB, ProblemClass.MB)

    def test_strict_containments(self):
        assert is_strictly_contained_in(ProblemClass.SB, ProblemClass.MB)
        assert is_strictly_contained_in(ProblemClass.VB, ProblemClass.SV)
        assert is_strictly_contained_in(ProblemClass.VV, ProblemClass.VVC)
        assert not is_strictly_contained_in(ProblemClass.MV, ProblemClass.SV)

    def test_collapse_representatives(self):
        assert collapse(ProblemClass.MV) is ProblemClass.SV
        assert collapse(ProblemClass.VB) is ProblemClass.VB
        assert collapse(ProblemClass.MB) is ProblemClass.VB
        assert collapse(ProblemClass.VVC) is ProblemClass.VVC

    def test_proven_results_are_consistent_with_levels(self):
        for equality in PROVEN_EQUALITIES:
            levels = {level_of(cls) for cls in equality}
            assert len(levels) == 1
        for smaller, larger, _ in PROVEN_SEPARATIONS:
            assert level_of(smaller) + 1 == level_of(larger)

    def test_separation_between(self):
        assert separation_between(ProblemClass.MB, ProblemClass.VB) is None
        assert "Theorem 13" in separation_between(ProblemClass.SB, ProblemClass.MB)
        assert "Theorem 11" in separation_between(ProblemClass.VB, ProblemClass.SV)
        assert "Theorem 17" in separation_between(ProblemClass.VV, ProblemClass.VVC)
        # For distant classes the lowest separating theorem is reported.
        assert "Theorem 13" in separation_between(ProblemClass.SB, ProblemClass.VVC)


class TestConsistencyWithTrivialOrder:
    def test_proven_order_refines_the_trivial_order(self):
        """Whatever was trivially contained is still contained after the collapse."""
        for smaller in ProblemClass:
            for larger in ProblemClass:
                if trivially_contained_in(smaller, larger):
                    assert is_contained_in(smaller, larger)

    def test_collapse_adds_new_containments(self):
        # VB ⊆ SV is *not* trivial but holds in the proven order.
        assert not trivially_contained_in(ProblemClass.VB, ProblemClass.SV)
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
