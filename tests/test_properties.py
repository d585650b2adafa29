"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.execution.trace import message_size
from repro.graphs.generators import random_bounded_degree_graph
from repro.graphs.graph import Graph
from repro.graphs.ports import consistent_port_numbering, random_port_numbering
from repro.logic.bisimulation import bisimilarity_partition, bounded_bisimilarity_partition
from repro.logic.parser import parse_formula
from repro.logic.semantics import extension
from repro.logic.syntax import (
    And,
    Bottom,
    Box,
    Diamond,
    GradedDiamond,
    Implies,
    Not,
    Or,
    Prop,
    Top,
    modal_depth,
)
from repro.machines.algorithm import BroadcastAlgorithm, Output, VectorAlgorithm
from repro.machines.models import ReceiveMode
from repro.machines.multiset import FrozenMultiset
from repro.modal.encoding import KripkeVariant, kripke_encoding
from repro.utils.ordering import canonical_key

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #

edge_lists = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda pair: pair[0] != pair[1]),
    max_size=14,
)


@st.composite
def graphs(draw) -> Graph:
    """Random simple graphs on at most 8 nodes."""
    edges = draw(edge_lists)
    nodes = draw(st.sets(st.integers(0, 7), max_size=8))
    return Graph(nodes=nodes, edges=edges)


@st.composite
def formulas(draw, max_depth: int = 3):
    """Random unimodal (possibly graded) formulas over degree propositions."""
    if max_depth == 0:
        return draw(
            st.sampled_from([Prop("deg1"), Prop("deg2"), Prop("deg3"), Top(), Bottom()])
        )
    constructor = draw(st.integers(0, 6))
    if constructor == 0:
        return draw(formulas(max_depth=0))
    if constructor == 1:
        return Not(draw(formulas(max_depth=max_depth - 1)))
    if constructor == 2:
        return And(draw(formulas(max_depth=max_depth - 1)), draw(formulas(max_depth=max_depth - 1)))
    if constructor == 3:
        return Or(draw(formulas(max_depth=max_depth - 1)), draw(formulas(max_depth=max_depth - 1)))
    if constructor == 4:
        return Diamond(draw(formulas(max_depth=max_depth - 1)), index=("*", "*"))
    if constructor == 5:
        return Box(draw(formulas(max_depth=max_depth - 1)), index=("*", "*"))
    return GradedDiamond(
        draw(formulas(max_depth=max_depth - 1)), grade=draw(st.integers(0, 3)), index=("*", "*")
    )


messages = st.lists(st.sampled_from(["a", "b", "c", 1, 2]), max_size=6)


# --------------------------------------------------------------------------- #
# Graph and port-numbering invariants
# --------------------------------------------------------------------------- #


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_handshake_lemma(graph):
    assert sum(graph.degree(node) for node in graph.nodes) == 2 * graph.number_of_edges


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_connected_components_partition_the_nodes(graph):
    components = graph.connected_components()
    seen = [node for component in components for node in component]
    assert sorted(seen, key=repr) == sorted(graph.nodes, key=repr)


@given(graphs(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_port_numberings_are_bijections_inducing_adjacency(graph, seed):
    numbering = random_port_numbering(graph, random.Random(seed))
    mapping = numbering.as_mapping()
    assert set(mapping.keys()) == set(mapping.values()) == set(numbering.ports())
    induced = {(u, v) for (u, _), (v, _) in mapping.items()}
    adjacency = {(u, v) for u, v in graph.edges} | {(v, u) for u, v in graph.edges}
    assert induced == adjacency


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_canonical_numbering_is_an_involution(graph):
    numbering = consistent_port_numbering(graph)
    for port in numbering.ports():
        assert numbering(numbering(port)) == port


# --------------------------------------------------------------------------- #
# Multiset and receive-mode invariants
# --------------------------------------------------------------------------- #


@given(messages)
@settings(max_examples=80, deadline=None)
def test_multiset_length_and_counts(elements):
    multiset = FrozenMultiset(elements)
    assert len(multiset) == len(elements)
    assert sum(multiset.counts().values()) == len(elements)
    for element in elements:
        assert multiset.count(element) == elements.count(element)


@given(messages, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_projection_tower_forgets_information_monotonically(elements, rnd):
    """set(multiset(v)) == set(v) and shuffling changes neither (Figure 3)."""
    shuffled = list(elements)
    rnd.shuffle(shuffled)
    assert ReceiveMode.MULTISET.project(elements) == ReceiveMode.MULTISET.project(shuffled)
    assert ReceiveMode.SET.project(elements) == ReceiveMode.SET.project(shuffled)
    assert ReceiveMode.MULTISET.project(elements).to_set() == ReceiveMode.SET.project(elements)


@given(messages)
@settings(max_examples=60, deadline=None)
def test_canonical_key_is_consistent_with_equality(elements):
    assert canonical_key(FrozenMultiset(elements)) == canonical_key(
        FrozenMultiset(list(reversed(elements)))
    )
    assert canonical_key(tuple(elements)) == canonical_key(tuple(elements))


# --------------------------------------------------------------------------- #
# Logic invariants
# --------------------------------------------------------------------------- #


@given(formulas(), graphs())
@settings(max_examples=50, deadline=None)
def test_negation_complements_extension(formula, graph):
    if not graph.nodes:
        return
    encoding = kripke_encoding(graph, variant=KripkeVariant.NEITHER)
    assert extension(encoding, Not(formula)) == encoding.worlds - extension(encoding, formula)


@given(formulas(), graphs())
@settings(max_examples=50, deadline=None)
def test_box_diamond_duality(formula, graph):
    if not graph.nodes:
        return
    encoding = kripke_encoding(graph, variant=KripkeVariant.NEITHER)
    index = ("*", "*")
    assert extension(encoding, Box(formula, index=index)) == extension(
        encoding, Not(Diamond(Not(formula), index=index))
    )


@given(formulas(), formulas())
@settings(max_examples=80, deadline=None)
def test_modal_depth_algebra(first, second):
    assert modal_depth(And(first, second)) == max(modal_depth(first), modal_depth(second))
    assert modal_depth(Diamond(first, index=("*", "*"))) == modal_depth(first) + 1
    assert modal_depth(Not(first)) == modal_depth(first)
    assert modal_depth(Implies(first, second)) >= modal_depth(first)


@given(formulas())
@settings(max_examples=80, deadline=None)
def test_parser_round_trip(formula):
    assert parse_formula(str(formula)) == formula


# --------------------------------------------------------------------------- #
# Bisimulation invariants (Fact 1 as a property)
# --------------------------------------------------------------------------- #


@given(st.integers(0, 10_000), formulas(max_depth=2))
@settings(max_examples=40, deadline=None)
def test_bisimilar_nodes_agree_on_formulas(seed, formula):
    graph = random_bounded_degree_graph(7, 3, seed=seed)
    encoding = kripke_encoding(graph, variant=KripkeVariant.NEITHER)
    graded = bisimilarity_partition(encoding, graded=True)
    truth = extension(encoding, formula)
    for v in encoding.worlds:
        for w in encoding.worlds:
            if graded[v] == graded[w]:
                assert (v in truth) == (w in truth)


@given(st.integers(0, 10_000), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_bounded_bisimilarity_is_coarser_than_unbounded(seed, rounds):
    graph = random_bounded_degree_graph(7, 3, seed=seed)
    encoding = kripke_encoding(graph, variant=KripkeVariant.NEITHER)
    bounded = bounded_bisimilarity_partition(encoding, rounds)
    full = bisimilarity_partition(encoding)
    # If two worlds are fully bisimilar they are also k-round bisimilar.
    for v in encoding.worlds:
        for w in encoding.worlds:
            if full[v] == full[w]:
                assert bounded[v] == bounded[w]


# --------------------------------------------------------------------------- #
# Execution invariants
# --------------------------------------------------------------------------- #


@given(st.integers(0, 10_000), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_multiset_algorithms_are_port_numbering_invariant(graph_seed, numbering_seed):
    """An MB algorithm's output never depends on the adversary's numbering."""
    from repro.algorithms.parity import OddOddNeighboursAlgorithm
    from repro.execution.runner import run

    graph = random_bounded_degree_graph(7, 3, seed=graph_seed)
    numbering = random_port_numbering(graph, random.Random(numbering_seed))
    baseline = run(OddOddNeighboursAlgorithm(), graph).outputs
    assert run(OddOddNeighboursAlgorithm(), graph, numbering).outputs == baseline


@given(st.integers(0, 10_000), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_theorem4_simulation_is_exact_on_random_graphs(graph_seed, numbering_seed):
    from repro.algorithms.basic import GatherDegreesAlgorithm
    from repro.core.simulations import simulate_multiset_with_set
    from repro.execution.runner import run

    graph = random_bounded_degree_graph(6, 3, seed=graph_seed)
    numbering = random_port_numbering(graph, random.Random(numbering_seed))
    inner = GatherDegreesAlgorithm()
    simulation = simulate_multiset_with_set(inner, graph.max_degree())
    assert run(simulation, graph, numbering).outputs == run(inner, graph, numbering).outputs


# --------------------------------------------------------------------------- #
# Message accounting: the memoised walk equals the tree walk
# --------------------------------------------------------------------------- #


def _tree_walk_size(message) -> int:
    """The plain recursive tree count, the oracle for ``message_size``."""
    if isinstance(message, (tuple, list, set, frozenset)):
        return 1 + sum(_tree_walk_size(item) for item in message)
    if isinstance(message, FrozenMultiset):
        return 1 + sum(_tree_walk_size(item) * count for item, count in message.counts().items())
    if isinstance(message, dict):
        return 1 + sum(_tree_walk_size(key) + _tree_walk_size(val) for key, val in message.items())
    return 1


@st.composite
def shared_messages(draw):
    """Nested messages whose containers reuse earlier objects in several places.

    Containers are built bottom-up, each from parts drawn out of everything
    built before it; the message is the tuple of all of them.  Only hashable
    parts go into frozensets, multisets and dict keys.
    """
    built = draw(st.lists(st.sampled_from(["a", "b", 1, 2, None]), min_size=1, max_size=3))
    hashable = list(built)
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from([tuple, list, frozenset, FrozenMultiset, dict]))
        if kind is dict:
            keys = draw(st.lists(st.sampled_from(hashable), max_size=2))
            node = {key: draw(st.sampled_from(built)) for key in keys}
        else:
            parts = hashable if kind in (frozenset, FrozenMultiset) else built
            node = kind(draw(st.lists(st.sampled_from(parts), max_size=3)))
        built.append(node)
        try:
            hash(node)
        except TypeError:  # a list or a dict, or a tuple holding one
            continue
        hashable.append(node)
    return tuple(built)


@given(shared_messages())
@settings(max_examples=60, deadline=None)
def test_message_size_equals_the_tree_walk(message):
    assert message_size(message) == _tree_walk_size(message)


def _assert_trace_accounting_matches_the_tree_walk(trace) -> None:
    sizes = [
        _tree_walk_size(message)
        for per_round in trace.received_messages
        for message in per_round.values()
    ]
    assert sizes, "the trace recorded no messages"
    assert trace.max_message_size() == max(sizes)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_theorem4_trace_accounting_equals_the_tree_walk(numbering_seed):
    from repro.algorithms.basic import GatherDegreesAlgorithm
    from repro.core.simulations import simulate_multiset_with_set
    from repro.execution.runner import run
    from repro.graphs.generators import star_graph

    graph = star_graph(3)
    numbering = random_port_numbering(graph, random.Random(numbering_seed))
    simulation = simulate_multiset_with_set(GatherDegreesAlgorithm(), 3)
    _assert_trace_accounting_matches_the_tree_walk(
        run(simulation, graph, numbering, record_trace=True).trace
    )


class _VectorRounds(VectorAlgorithm):
    """Sends (degree, port) for ``rounds`` rounds, then outputs the last vector."""

    def __init__(self, rounds: int) -> None:
        self._rounds = rounds

    def initial_state(self, degree):
        return (0, degree)

    def send(self, state, port):
        return (state[1], port)

    def transition(self, state, received):
        elapsed = state[0] + 1
        return Output(tuple(received)) if elapsed >= self._rounds else (elapsed, state[1])


class _BroadcastRounds(BroadcastAlgorithm):
    """Broadcasts its degree for ``rounds`` rounds, then outputs the last vector."""

    def __init__(self, rounds: int) -> None:
        self._rounds = rounds

    def initial_state(self, degree):
        return (0, degree)

    def broadcast(self, state):
        return state[1]

    def transition(self, state, received):
        elapsed = state[0] + 1
        return Output(tuple(received)) if elapsed >= self._rounds else (elapsed, state[1])


@given(
    st.integers(0, 10_000),
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_history_simulation_trace_accounting_equals_the_tree_walk(
    graph_seed, numbering_seed, rounds, vector
):
    """Theorem 8 (Vector -> Multiset) and Theorem 9 (Broadcast -> MB) traces."""
    from repro.core.simulations import (
        simulate_broadcast_with_multiset_broadcast,
        simulate_vector_with_multiset,
    )
    from repro.execution.runner import run

    graph = random_bounded_degree_graph(6, 3, seed=graph_seed)
    numbering = random_port_numbering(graph, random.Random(numbering_seed))
    if vector:
        simulation = simulate_vector_with_multiset(_VectorRounds(rounds))
    else:
        simulation = simulate_broadcast_with_multiset_broadcast(_BroadcastRounds(rounds))
    _assert_trace_accounting_matches_the_tree_walk(
        run(simulation, graph, numbering, record_trace=True).trace
    )
