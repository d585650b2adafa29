"""Unit tests for port numberings (Section 1.2)."""

from __future__ import annotations

import pytest

from repro.graphs.generators import complete_graph, cycle_graph, path_graph, star_graph
from repro.graphs.ports import (
    PortNumbering,
    all_port_numberings,
    consistent_port_numbering,
    count_port_numberings,
    local_type,
    random_port_numbering,
)


class TestConstruction:
    def test_outgoing_must_enumerate_neighbours(self):
        graph = path_graph(3)
        with pytest.raises(ValueError):
            PortNumbering(graph, {0: (1,), 1: (0, 0), 2: (1,)})

    def test_missing_assignment_raises(self):
        graph = path_graph(2)
        with pytest.raises(ValueError):
            PortNumbering(graph, {0: (1,)})

    def test_incoming_defaults_to_outgoing(self):
        graph = cycle_graph(4)
        numbering = PortNumbering(graph, {node: graph.neighbors(node) for node in graph.nodes})
        assert numbering.is_consistent()


class TestBijectionProperty:
    @pytest.mark.parametrize("factory", [path_graph, cycle_graph], ids=["path", "cycle"])
    def test_mapping_is_a_bijection_on_ports(self, factory, rng):
        graph = factory(5)
        numbering = random_port_numbering(graph, rng)
        mapping = numbering.as_mapping()
        assert set(mapping.keys()) == set(numbering.ports())
        assert set(mapping.values()) == set(numbering.ports())

    def test_induced_relation_is_adjacency(self, rng):
        graph = star_graph(4)
        numbering = random_port_numbering(graph, rng)
        induced = {(u, v) for (u, _), (v, _) in numbering.as_mapping().items()}
        adjacency = {(u, v) for u, v in graph.edges} | {(v, u) for u, v in graph.edges}
        assert induced == adjacency

    def test_apply_and_inverse_are_inverse(self, rng):
        graph = complete_graph(4)
        numbering = random_port_numbering(graph, rng)
        for port in numbering.ports():
            target = numbering(port)
            assert numbering.inverse(*target) == port


class TestConsistency:
    def test_canonical_numbering_is_consistent(self, small_graphs):
        for graph in small_graphs:
            assert consistent_port_numbering(graph).is_consistent()

    def test_consistent_means_involution(self, rng):
        graph = cycle_graph(5)
        numbering = random_port_numbering(graph, rng, consistent=True)
        for port in numbering.ports():
            assert numbering(numbering(port)) == port

    def test_inconsistent_numbering_detected(self):
        graph = path_graph(3)
        # Node 1 has two neighbours; swap only its incoming order.
        outgoing = {0: (1,), 1: (0, 2), 2: (1,)}
        incoming = {0: (1,), 1: (2, 0), 2: (1,)}
        numbering = PortNumbering(graph, outgoing, incoming)
        assert not numbering.is_consistent()


class TestPortLookups:
    def test_outgoing_and_incoming_ports(self):
        graph = star_graph(3)
        numbering = consistent_port_numbering(graph)
        for leaf in (1, 2, 3):
            port = numbering.outgoing_port(0, leaf)
            assert numbering.apply(0, port) == (leaf, 1)
            assert numbering.apply(leaf, 1) == (0, port)

    def test_apply_reports_receiver_port(self):
        graph = path_graph(2)
        numbering = consistent_port_numbering(graph)
        assert numbering.apply(0, 1) == (1, 1)


class TestEnumeration:
    def test_count_matches_enumeration_consistent(self):
        graph = star_graph(3)
        numberings = list(all_port_numberings(graph, consistent_only=True))
        assert len(numberings) == count_port_numberings(graph, consistent_only=True) == 6
        assert all(p.is_consistent() for p in numberings)

    def test_count_matches_enumeration_general(self):
        graph = path_graph(3)
        numberings = list(all_port_numberings(graph))
        assert len(numberings) == count_port_numberings(graph) == 4

    def test_enumeration_yields_distinct_numberings(self):
        graph = cycle_graph(3)
        numberings = list(all_port_numberings(graph, consistent_only=True))
        assert len(numberings) == len(set(numberings))

    def test_general_count_is_square_of_consistent_count(self):
        graph = cycle_graph(4)
        consistent = count_port_numberings(graph, consistent_only=True)
        general = count_port_numberings(graph)
        assert general == consistent**2


class TestRandomNumbering:
    def test_random_numbering_is_valid(self, rng, small_graphs):
        for graph in small_graphs:
            numbering = random_port_numbering(graph, rng)
            mapping = numbering.as_mapping()
            assert set(mapping.values()) == set(numbering.ports())

    def test_random_consistent_numbering_is_consistent(self, rng, small_graphs):
        for graph in small_graphs:
            assert random_port_numbering(graph, rng, consistent=True).is_consistent()


class TestLocalTypes:
    def test_local_type_under_consistent_numbering(self):
        graph = star_graph(3)
        numbering = consistent_port_numbering(graph)
        # Every leaf is reached through the centre's distinct ports, and each
        # leaf's single port leads back to the centre's matching port.
        centre_type = local_type(numbering, 0)
        assert centre_type == (1, 1, 1)
        leaf_types = {local_type(numbering, leaf) for leaf in (1, 2, 3)}
        assert leaf_types == {(1, 0, 0), (2, 0, 0), (3, 0, 0)}

    def test_local_type_padding(self):
        graph = path_graph(3)
        numbering = consistent_port_numbering(graph)
        assert len(local_type(numbering, 0, delta=5)) == 5

    def test_equality_and_hash(self):
        graph = path_graph(2)
        assert consistent_port_numbering(graph) == consistent_port_numbering(graph)
        assert hash(consistent_port_numbering(graph)) == hash(consistent_port_numbering(graph))
