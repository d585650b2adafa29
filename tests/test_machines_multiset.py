"""Unit tests for FrozenMultiset."""

from __future__ import annotations

from repro.machines.multiset import FrozenMultiset


class TestBasics:
    def test_counts_and_len(self):
        multiset = FrozenMultiset(["a", "b", "a", "c"])
        assert multiset.count("a") == 2
        assert multiset.count("missing") == 0
        assert len(multiset) == 4

    def test_to_set(self):
        multiset = FrozenMultiset([1, 1, 2])
        assert multiset.to_set() == frozenset({1, 2})

    def test_contains(self):
        multiset = FrozenMultiset(["x"])
        assert "x" in multiset
        assert "y" not in multiset

    def test_iteration_respects_multiplicity(self):
        multiset = FrozenMultiset(["a", "a", "b"])
        assert sorted(multiset) == ["a", "a", "b"]

    def test_empty(self):
        empty = FrozenMultiset()
        assert len(empty) == 0
        assert empty.to_set() == frozenset()


class TestEqualityAndHashing:
    def test_equality_is_order_insensitive(self):
        assert FrozenMultiset(["a", "b", "a"]) == FrozenMultiset(["b", "a", "a"])

    def test_multiplicities_matter(self):
        assert FrozenMultiset(["a", "a"]) != FrozenMultiset(["a"])

    def test_hash_consistency(self):
        assert hash(FrozenMultiset([1, 2, 2])) == hash(FrozenMultiset([2, 2, 1]))

    def test_usable_as_dict_key(self):
        table = {FrozenMultiset("aab"): "value"}
        assert table[FrozenMultiset("baa")] == "value"

    def test_not_equal_to_other_types(self):
        assert FrozenMultiset([1]) != {1}


class TestConstruction:
    def test_copy_constructor(self):
        original = FrozenMultiset([1, 2, 2])
        assert FrozenMultiset(original) == original

    def test_counts_returns_copy(self):
        multiset = FrozenMultiset(["a"])
        counts = multiset.counts()
        counts["a"] = 99
        assert multiset.count("a") == 1

    def test_repr_mentions_counts(self):
        assert "2" in repr(FrozenMultiset(["x", "x"]))
