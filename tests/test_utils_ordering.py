"""Unit tests for the canonical message ordering."""

from __future__ import annotations

from repro.machines.multiset import FrozenMultiset
from repro.utils.ordering import canonical_key


class TestTotality:
    def test_heterogeneous_values_are_comparable(self):
        values = [1, "a", (1, 2), frozenset({3}), None, ("x", (2,)), FrozenMultiset([1, 1])]
        keys = [canonical_key(value) for value in values]
        assert sorted(keys) is not None  # no TypeError

    def test_equal_values_have_equal_keys(self):
        assert canonical_key((1, ("a", 2))) == canonical_key((1, ("a", 2)))
        assert canonical_key(frozenset({1, 2})) == canonical_key(frozenset({2, 1}))
        assert canonical_key(FrozenMultiset("aab")) == canonical_key(FrozenMultiset("baa"))

    def test_distinct_simple_values_have_distinct_keys(self):
        assert canonical_key(1) != canonical_key(2)
        assert canonical_key("1") != canonical_key(1)
        assert canonical_key((1,)) != canonical_key([1])

    def test_multiplicities_are_reflected(self):
        assert canonical_key(FrozenMultiset("ab")) != canonical_key(FrozenMultiset("aab"))

    def test_nested_dictionaries(self):
        assert canonical_key({"a": 1, "b": 2}) == canonical_key({"b": 2, "a": 1})


class TestOrderingIsStable:
    def test_sorting_is_deterministic(self):
        values = ["z", 3, (2, "a"), frozenset({1}), 1, "a"]
        first = sorted(values, key=canonical_key)
        second = sorted(reversed(values), key=canonical_key)
        assert first == second

    def test_tuples_order_lexicographically(self):
        assert canonical_key((1, 2)) < canonical_key((1, 3))
        assert canonical_key((1,)) < canonical_key((1, 0))
