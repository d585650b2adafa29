"""Unit tests for traces and message-size accounting."""

from __future__ import annotations

import sys
import time

import pytest

from repro.algorithms.basic import GatherDegreesAlgorithm, RoundCounterAlgorithm
from repro.execution.runner import run
from repro.execution.trace import Trace, message_size
from repro.graphs.generators import cycle_graph, star_graph
from repro.machines.multiset import FrozenMultiset


class TestMessageSize:
    def test_atom(self):
        assert message_size("x") == 1
        assert message_size(42) == 1
        assert message_size(None) == 1

    def test_flat_containers(self):
        assert message_size((1, 2, 3)) == 4
        assert message_size([1, 2]) == 3
        assert message_size(frozenset({1, 2})) == 3

    def test_nested_containers(self):
        assert message_size(((1, 2), 3)) == 5
        assert message_size({"k": (1, 2)}) == 5

    def test_multiset_counts_multiplicity(self):
        assert message_size(FrozenMultiset(["a", "a", "b"])) == 4

    def test_empty_containers(self):
        assert message_size(()) == 1
        assert message_size({}) == 1

    def test_nesting_deeper_than_the_recursion_limit(self):
        depth = 10 * sys.getrecursionlimit()
        chain = "atom"
        for _ in range(depth):
            chain = (chain,)
        assert message_size(chain) == depth + 1

    # The doubling DAGs stay out of frozensets, multisets and dict keys:
    # building those hashes the elements, which walks the whole tree.
    @pytest.mark.parametrize(
        "double, expected",
        [
            (lambda x: (x, x), 2**65 - 1),
            (lambda x: [x, x], 2**65 - 1),
            # The two keys count too: s(k + 1) = 3 + 2 s(k).
            (lambda x: {"left": x, "right": x}, 2**66 - 3),
        ],
        ids=["tuple", "list", "dict-values"],
    )
    def test_exponential_tree_is_sized_from_its_dag(self, double, expected):
        message = "atom"
        for _ in range(64):
            message = double(message)
        start = time.perf_counter()
        assert message_size(message) == expected
        assert time.perf_counter() - start < 1.0

    def test_self_containing_message_raises(self):
        cyclic: list = []
        cyclic.append(cyclic)
        with pytest.raises(ValueError, match="contains itself"):
            message_size(cyclic)


class TestTraceQueries:
    def test_states_at_and_rounds(self):
        result = run(RoundCounterAlgorithm(2), cycle_graph(3), record_trace=True)
        trace = result.trace
        assert trace.rounds == 2
        assert set(trace.states_at(0).values()) == {0}

    def test_messages_received_by(self):
        result = run(GatherDegreesAlgorithm(), star_graph(3), record_trace=True)
        trace = result.trace
        centre_messages = trace.messages_received_by(0, 1)
        assert set(centre_messages.keys()) == {1, 2, 3}
        assert set(centre_messages.values()) == {1}

    def test_volume_and_max_size(self):
        result = run(GatherDegreesAlgorithm(), star_graph(3), record_trace=True)
        trace = result.trace
        assert trace.max_message_size() == 1
        # 3 messages to the centre + 1 to each leaf.
        assert trace.total_message_volume() == 6

    def test_messages_nesting_earlier_rounds(self):
        # Round t's message pairs round t-1's, as Theorem 4's betas do.
        message = "atom"
        trace = Trace(received_messages=[{}])
        for _ in range(64):
            message = (message, message)
            trace.received_messages.append({(0, 1): message, (1, 1): message})
        assert trace.max_message_size() == 2**65 - 1
        assert trace.total_message_volume() == 2 * sum(2**t - 1 for t in range(2, 66))

    def test_empty_trace(self):
        trace = Trace()
        assert trace.rounds == 0
        assert trace.max_message_size() == 0
        assert trace.total_message_volume() == 0
