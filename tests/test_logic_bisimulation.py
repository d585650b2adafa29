"""Unit tests for bisimulation and graded bisimulation (Section 4.2)."""

from __future__ import annotations

import random

import pytest

from repro.execution.runner import run
from repro.graphs.covers import bipartite_double_cover
from repro.graphs.ports import PortNumbering, random_port_numbering
from repro.logic.bisimulation import (
    bisimilarity_classes,
    bisimilarity_partition,
    bisimilar_within,
    bounded_bisimilarity_partition,
    is_bisimulation,
    is_graded_bisimulation,
)
from repro.logic.kripke import KripkeModel
from repro.logic.semantics import extension
from repro.logic.syntax import Diamond, GradedDiamond, Not, Prop
from repro.graphs.generators import (
    cycle_graph,
    odd_odd_gadget_pair,
    path_graph,
    random_graph,
    random_regular_graph,
)
from repro.machines.library import random_machine, reference_machine
from repro.machines.models import ProblemClass, ReceiveMode
from repro.machines.state_machine import algorithm_from_machine
from repro.modal.encoding import KripkeVariant, kripke_encoding, variant_for_class


def _cycle_model(n: int) -> KripkeModel:
    pairs = [(i, (i + 1) % n) for i in range(n)] + [((i + 1) % n, i) for i in range(n)]
    return KripkeModel(worlds=range(n), relations={"R": pairs}, valuation={})


def _counting_pair() -> tuple[KripkeModel, KripkeModel]:
    """Two trees: a root with one p-child versus a root with two p-children."""
    one = KripkeModel(["r", "c1"], {"R": [("r", "c1")]}, {"p": ["c1"]})
    two = KripkeModel(["r", "c1", "c2"], {"R": [("r", "c1"), ("r", "c2")]}, {"p": ["c1", "c2"]})
    return one, two


def _counting_model() -> KripkeModel:
    """Both trees of :func:`_counting_pair` in one model, rooted at r1 and r2."""
    return KripkeModel(
        ["r1", "a", "r2", "b", "c"],
        {"R": [("r1", "a"), ("r2", "b"), ("r2", "c")]},
        {"p": ["a", "b", "c"]},
    )


class TestPlainBisimilarity:
    def test_all_cycle_worlds_are_bisimilar(self):
        model = _cycle_model(6)
        assert bisimilar_within(model, model.worlds)
        assert len(bisimilarity_classes(model)) == 1

    def test_valuation_separates_worlds(self):
        model = KripkeModel([0, 1], {"R": []}, {"p": [0]})
        assert not bisimilar_within(model, [0, 1])

    def test_path_endpoints_bisimilar_to_each_other_not_to_middle(self):
        graph = path_graph(3)
        encoding = kripke_encoding(graph, variant=KripkeVariant.NEITHER)
        partition = bisimilarity_partition(encoding)
        assert partition[0] == partition[2]
        assert partition[0] != partition[1]

    def test_cross_model_bisimilarity(self):
        # Cycles of different (even) lengths are bisimilar when unlabelled:
        # a 4-cycle and a 6-cycle side by side in one model.
        arcs = [((n, i), (n, (i + 1) % n)) for n in (4, 6) for i in range(n)]
        model = KripkeModel(
            worlds=[world for arc in arcs for world in arc],
            relations={"R": arcs + [(v, u) for u, v in arcs]},
            valuation={},
        )
        assert bisimilar_within(model, [(4, 0), (6, 3)])

    def test_counting_does_not_matter_for_plain_bisimilarity(self):
        assert bisimilar_within(_counting_model(), ["r1", "r2"])


class TestGradedBisimilarity:
    def test_counting_matters_for_graded_bisimilarity(self):
        assert not bisimilar_within(_counting_model(), ["r1", "r2"], graded=True)

    def test_regular_graph_worlds_are_graded_bisimilar(self):
        # On a regular graph every node looks alike to MB/SB algorithms.
        graph = random_regular_graph(3, 16, seed=1)
        encoding = kripke_encoding(graph, variant=KripkeVariant.NEITHER)
        assert len(bisimilarity_classes(encoding, graded=True)) == 1

    def test_graded_refines_plain(self):
        graph = odd_odd_gadget_pair()[0]
        encoding = kripke_encoding(graph, variant=KripkeVariant.NEITHER)
        plain = bisimilarity_partition(encoding)
        graded = bisimilarity_partition(encoding, graded=True)
        # Every graded class is contained in a plain class.
        for world in encoding.worlds:
            for other in encoding.worlds:
                if graded[world] == graded[other]:
                    assert plain[world] == plain[other]

    def test_odd_odd_witnesses(self):
        graph, first, second = odd_odd_gadget_pair()
        encoding = kripke_encoding(graph, variant=KripkeVariant.NEITHER)
        assert bisimilar_within(encoding, [first, second])
        assert not bisimilar_within(encoding, [first, second], graded=True)


class TestBoundedBisimilarity:
    def test_zero_rounds_is_label_partition(self):
        graph = path_graph(4)
        encoding = kripke_encoding(graph, variant=KripkeVariant.NEITHER)
        partition = bounded_bisimilarity_partition(encoding, 0)
        # Degree-1 and degree-2 nodes form the two blocks.
        assert len(set(partition.values())) == 2

    def test_refinement_is_monotone(self):
        graph = path_graph(6)
        encoding = kripke_encoding(graph, variant=KripkeVariant.NEITHER)
        sizes = [
            len(set(bounded_bisimilarity_partition(encoding, rounds).values()))
            for rounds in range(5)
        ]
        assert sizes == sorted(sizes)

    def test_bounded_reaches_fixpoint(self):
        graph = path_graph(5)
        encoding = kripke_encoding(graph, variant=KripkeVariant.NEITHER)
        full = bisimilarity_partition(encoding)
        bounded = bounded_bisimilarity_partition(encoding, 10)
        assert len(set(full.values())) == len(set(bounded.values()))

    def test_negative_rounds_rejected(self):
        model = _cycle_model(3)
        with pytest.raises(ValueError):
            bounded_bisimilarity_partition(model, -1)


class TestCertificates:
    def test_identity_is_a_bisimulation(self):
        model = _cycle_model(4)
        identity = [(w, w) for w in model.worlds]
        assert is_bisimulation(model, model, identity)
        assert is_graded_bisimulation(model, model, identity)

    def test_empty_relation_is_not_a_bisimulation(self):
        model = _cycle_model(3)
        assert not is_bisimulation(model, model, [])

    def test_full_relation_on_cycle_is_a_bisimulation(self):
        model = _cycle_model(5)
        full = [(v, w) for v in model.worlds for w in model.worlds]
        assert is_bisimulation(model, model, full)
        assert is_graded_bisimulation(model, model, full)

    def test_atom_disagreement_is_rejected(self):
        model = KripkeModel([0, 1], {"R": []}, {"p": [0]})
        assert not is_bisimulation(model, model, [(0, 1)])

    def test_forth_condition_violation(self):
        # 0 -> 1 in the first model; the second model has no transition.
        first = KripkeModel([0, 1], {"R": [(0, 1)]}, {})
        second = KripkeModel([0, 1], {"R": []}, {})
        assert not is_bisimulation(first, second, [(0, 0), (1, 1)])

    def test_graded_rejects_count_mismatch(self):
        one, two = _counting_pair()
        relation = [("r", "r"), ("c1", "c1"), ("c1", "c2")]
        assert is_bisimulation(one, two, relation)
        assert not is_graded_bisimulation(one, two, relation)

    def test_partition_blocks_form_a_bisimulation(self):
        graph = cycle_graph(5)
        encoding = kripke_encoding(graph, variant=KripkeVariant.NEITHER)
        partition = bisimilarity_partition(encoding)
        relation = [
            (v, w)
            for v in encoding.worlds
            for w in encoding.worlds
            if partition[v] == partition[w]
        ]
        assert is_bisimulation(encoding, encoding, relation)


class TestFact1:
    """Fact 1: (graded) bisimilar worlds satisfy the same (graded) formulas."""

    def test_plain_invariance_on_sample_formulas(self):
        graph = odd_odd_gadget_pair()[0]
        encoding = kripke_encoding(graph, variant=KripkeVariant.NEITHER)
        partition = bisimilarity_partition(encoding)
        index = ("*", "*")
        formulas = [
            Diamond(Prop("deg1"), index=index),
            Diamond(Diamond(Prop("deg3"), index=index), index=index),
            Not(Diamond(Prop("deg2"), index=index)),
        ]
        for formula in formulas:
            truth = extension(encoding, formula)
            for v in encoding.worlds:
                for w in encoding.worlds:
                    if partition[v] == partition[w]:
                        assert (v in truth) == (w in truth)

    def test_graded_invariance_on_sample_formulas(self):
        graph = odd_odd_gadget_pair()[0]
        encoding = kripke_encoding(graph, variant=KripkeVariant.NEITHER)
        partition = bisimilarity_partition(encoding, graded=True)
        index = ("*", "*")
        formulas = [
            GradedDiamond(Prop("deg1"), grade=2, index=index),
            GradedDiamond(Diamond(Prop("deg1"), index=index), grade=2, index=index),
        ]
        for formula in formulas:
            truth = extension(encoding, formula)
            for v in encoding.worlds:
                for w in encoding.worlds:
                    if partition[v] == partition[w]:
                        assert (v in truth) == (w in truth)

    @pytest.mark.parametrize(
        "seed, base",
        [
            (0, random_graph(8, 0.35, seed=0)),
            (1, random_graph(8, 0.35, seed=1)),
            (2, odd_odd_gadget_pair()[0]),
        ],
        ids=["random-0", "random-1", "odd-odd"],
    )
    @pytest.mark.parametrize("problem_class", list(ProblemClass), ids=lambda cls: cls.name)
    def test_machine_outputs_are_constant_on_bisimilarity_blocks(self, problem_class, seed, base):
        """A ``T``-round machine of a class cannot separate ``T``-round bisimilar nodes.

        The graph is the double cover of ``base`` with the base's port
        numbering lifted to both copies, so each node ``(v, 1)`` has a twin
        ``(v, 2)`` with the same view: every block of the partition is
        non-trivial and the check is never vacuous.  On the odd-odd gadget
        counting matters: plain blocks in place of graded ones would mix
        outputs of the Multiset classes' machines.
        """
        numbering = random_port_numbering(
            base, random.Random(seed), consistent=problem_class.requires_consistency
        )
        graph = bipartite_double_cover(base)

        def lift(assignment):
            return {
                (v, side): [(u, 3 - side) for u in assignment[v]]
                for v in base.nodes
                for side in (1, 2)
            }

        lifted = PortNumbering(
            graph, lift(numbering.outgoing_assignment()), lift(numbering.incoming_assignment())
        )
        delta = base.max_degree()
        encoding = kripke_encoding(graph, lifted, variant_for_class(problem_class), delta=delta)
        graded = problem_class.model.receive is ReceiveMode.MULTISET
        machines = (
            (1, random_machine(problem_class, delta, seed)),
            (2, reference_machine(problem_class, delta, rounds=2)),
        )
        for rounds, machine in machines:
            partition = bounded_bisimilarity_partition(encoding, rounds, graded=graded)
            assert all(partition[(v, 1)] == partition[(v, 2)] for v in base.nodes)
            result = run(algorithm_from_machine(machine.as_state_machine()), graph, lifted)
            assert result.rounds == rounds
            outputs_by_block: dict[int, set] = {}
            for node in graph.nodes:
                outputs_by_block.setdefault(partition[node], set()).add(result.outputs[node])
            assert all(len(outputs) == 1 for outputs in outputs_by_block.values())
