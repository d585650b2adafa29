"""Unit tests for the Kripke encodings of port-numbered graphs (Section 4.3)."""

from __future__ import annotations

import pytest

from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.graphs.ports import consistent_port_numbering, random_port_numbering
from repro.machines.models import ProblemClass
from repro.modal.encoding import (
    STAR,
    KripkeVariant,
    degree_proposition,
    kripke_encoding,
    kripke_unions,
    signature_indices,
    variant_for_class,
)


class TestSignature:
    def test_indices_per_variant(self):
        assert signature_indices(KripkeVariant.FULL, 2) == frozenset(
            {(1, 1), (1, 2), (2, 1), (2, 2)}
        )
        assert signature_indices(KripkeVariant.NO_INPUT_PORTS, 2) == frozenset(
            {(STAR, 1), (STAR, 2)}
        )
        assert signature_indices(KripkeVariant.NO_OUTPUT_PORTS, 2) == frozenset(
            {(1, STAR), (2, STAR)}
        )
        assert signature_indices(KripkeVariant.NEITHER, 5) == frozenset({(STAR, STAR)})

    def test_variant_for_class(self):
        assert variant_for_class(ProblemClass.VVC) is KripkeVariant.FULL
        assert variant_for_class(ProblemClass.VV) is KripkeVariant.FULL
        assert variant_for_class(ProblemClass.MV) is KripkeVariant.NO_INPUT_PORTS
        assert variant_for_class(ProblemClass.SV) is KripkeVariant.NO_INPUT_PORTS
        assert variant_for_class(ProblemClass.VB) is KripkeVariant.NO_OUTPUT_PORTS
        assert variant_for_class(ProblemClass.MB) is KripkeVariant.NEITHER
        assert variant_for_class(ProblemClass.SB) is KripkeVariant.NEITHER


class TestValuation:
    def test_degree_propositions(self):
        graph = star_graph(3)
        encoding = kripke_encoding(graph)
        assert encoding.valuation_of(degree_proposition(3)) == frozenset({0})
        assert encoding.valuation_of(degree_proposition(1)) == frozenset({1, 2, 3})
        assert encoding.valuation_of(degree_proposition(2)) == frozenset()


class TestRelations:
    def test_full_relations_reconstruct_the_numbering(self):
        graph = path_graph(3)
        numbering = consistent_port_numbering(graph)
        encoding = kripke_encoding(graph, numbering, variant=KripkeVariant.FULL)
        # (u, v) in R(i, j) iff p((v, j)) = (u, i).
        for v in graph.nodes:
            for j in range(1, graph.degree(v) + 1):
                u, i = numbering.apply(v, j)
                assert (u, v) in encoding.relation((i, j))

    def test_total_number_of_pairs_is_twice_the_edges(self):
        graph = cycle_graph(5)
        numbering = random_port_numbering(graph)
        for variant in KripkeVariant:
            encoding = kripke_encoding(graph, numbering, variant=variant)
            total = sum(len(encoding.relation(index)) for index in encoding.indices)
            assert total == 2 * graph.number_of_edges

    def test_neither_variant_is_the_adjacency_relation(self):
        graph = cycle_graph(4)
        encoding = kripke_encoding(graph, variant=KripkeVariant.NEITHER)
        pairs = encoding.relation((STAR, STAR))
        expected = {(u, v) for u, v in graph.edges} | {(v, u) for u, v in graph.edges}
        assert pairs == frozenset(expected)

    def test_neither_variant_is_numbering_independent(self, rng):
        graph = cycle_graph(5)
        first = kripke_encoding(graph, random_port_numbering(graph, rng), KripkeVariant.NEITHER)
        second = kripke_encoding(graph, random_port_numbering(graph, rng), KripkeVariant.NEITHER)
        assert first == second

    def test_full_variant_depends_on_the_numbering(self, rng):
        graph = star_graph(3)
        numberings = [random_port_numbering(graph, rng) for _ in range(5)]
        encodings = {kripke_encoding(graph, p, KripkeVariant.FULL) for p in numberings}
        assert len(encodings) > 1

    def test_star_leaves_bisimilar_in_no_output_encoding(self):
        from repro.logic.bisimulation import bisimilar_within

        graph = star_graph(4)
        numbering = random_port_numbering(graph)
        encoding = kripke_encoding(graph, numbering, variant=KripkeVariant.NO_OUTPUT_PORTS)
        assert bisimilar_within(encoding, [1, 2, 3, 4])

    def test_star_leaves_not_all_bisimilar_in_no_input_encoding(self):
        from repro.logic.bisimulation import bisimilar_within

        graph = star_graph(3)
        numbering = consistent_port_numbering(graph)
        encoding = kripke_encoding(graph, numbering, variant=KripkeVariant.NO_INPUT_PORTS)
        assert not bisimilar_within(encoding, [1, 2, 3])


class TestErrors:
    def test_numbering_of_other_graph_rejected(self):
        with pytest.raises(ValueError):
            kripke_encoding(path_graph(3), consistent_port_numbering(path_graph(4)))

    def test_explicit_delta_extends_signature(self):
        graph = path_graph(2)
        encoding = kripke_encoding(graph, variant=KripkeVariant.FULL, delta=3)
        assert (3, 3) in encoding.indices
        assert encoding.relation((3, 3)) == frozenset()

    @pytest.mark.parametrize("variant", list(KripkeVariant), ids=lambda v: v.value)
    def test_delta_below_the_maximum_degree_is_rejected(self, variant):
        graph = star_graph(3)
        with pytest.raises(ValueError, match=r"delta=1 .*maximum degree 3"):
            kripke_encoding(graph, variant=variant, delta=1)
        with pytest.raises(ValueError, match=r"delta=1 .*maximum degree 3"):
            kripke_unions(graph, [consistent_port_numbering(graph)], variant, delta=1)


class TestUnions:
    def test_numberings_inducing_one_encoding_share_a_copy(self, rng):
        graph = cycle_graph(5)
        numberings = [random_port_numbering(graph, rng) for _ in range(6)]
        unions, places = kripke_unions(graph, numberings, KripkeVariant.NEITHER)
        assert len(unions) == 1 and len(unions[0].worlds) == 5
        assert places == [(0, 0)] * 6

    @pytest.mark.parametrize("variant", list(KripkeVariant), ids=lambda v: v.value)
    def test_each_copy_is_its_numberings_encoding(self, variant, rng):
        graph = star_graph(3)
        distinct = [random_port_numbering(graph, rng) for _ in range(4)]
        numberings = distinct + distinct[::-1]
        unions, places = kripke_unions(graph, numberings, variant, delta=4)
        for numbering, (union, copy) in zip(numberings, places):
            model = unions[union]
            encoding = kripke_encoding(graph, numbering, variant, delta=4)
            assert model.indices == encoding.indices
            for index in encoding.indices:
                assert {
                    (u, v) for (c, u), (_, v) in model.relation(index) if c == copy
                } == encoding.relation(index)
            for prop in encoding.propositions:
                assert {
                    node for c, node in model.valuation_of(prop) if c == copy
                } == encoding.valuation_of(prop)
