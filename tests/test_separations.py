"""Tests for the three separation evidences (Section 5.3)."""

from __future__ import annotations

import pytest

from repro.graphs.generators import cycle_graph, figure9_graph, star_graph
from repro.machines.models import ProblemClass
from repro.separations import (
    all_separations,
    matchless_separation,
    odd_odd_separation,
    star_separation,
)


class TestStarSeparation:
    def test_full_verification(self):
        evidence = star_separation()
        assert evidence.smaller is ProblemClass.VB
        assert evidence.larger is ProblemClass.SV
        assert evidence.verify([star_graph(2), star_graph(3)])

    def test_scales_with_star_size(self):
        for leaves in (2, 4, 6):
            assert star_separation(leaves).verify()

    def test_requires_at_least_two_leaves(self):
        with pytest.raises(ValueError):
            star_separation(1)


class TestOddOddSeparation:
    def test_full_verification(self):
        evidence = odd_odd_separation()
        assert evidence.smaller is ProblemClass.SB
        assert evidence.larger is ProblemClass.MB
        assert evidence.verify()

    def test_witnesses_are_two_nodes(self):
        evidence = odd_odd_separation()
        assert len(evidence.witness_nodes) == 2


class TestMatchlessSeparation:
    def test_full_verification_on_figure9(self):
        evidence = matchless_separation()
        assert evidence.smaller is ProblemClass.VV
        assert evidence.larger is ProblemClass.VVC
        assert evidence.witness_graph == figure9_graph()
        assert evidence.verify()

    def test_solver_is_checked_under_consistency_only(self):
        evidence = matchless_separation()
        assert evidence.larger.requires_consistency

    def test_non_witness_graph_fails_the_argument(self):
        """On a graph with a perfect matching the 'must distinguish' half fails."""
        evidence = matchless_separation(cycle_graph(4))
        assert evidence.witness_bisimilar()          # Lemma 15 still applies
        assert not evidence.solutions_must_distinguish()  # but constant outputs are fine


class TestAllSeparations:
    def test_three_separations_cover_the_three_strict_inclusions(self):
        evidences = all_separations()
        pairs = {(evidence.smaller, evidence.larger) for evidence in evidences}
        assert pairs == {
            (ProblemClass.SB, ProblemClass.MB),
            (ProblemClass.VB, ProblemClass.SV),
            (ProblemClass.VV, ProblemClass.VVC),
        }

    def test_all_verify(self):
        for evidence in all_separations():
            assert evidence.verify(), evidence.problem_name
