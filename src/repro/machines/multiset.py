"""An immutable, hashable multiset.

Algorithms in the Multiset models (MV, MB) receive the *multiset* of incoming
messages: the input-port order is hidden but multiplicities are preserved
(Figure 3).  Python's :class:`collections.Counter` is mutable and unhashable,
so messages delivered to such algorithms are wrapped in
:class:`FrozenMultiset`, a small value type that supports counting, iteration
(with multiplicity), equality and hashing.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Iterator
from typing import Any


class FrozenMultiset:
    """An immutable multiset over hashable elements.

    Examples
    --------
    >>> m = FrozenMultiset(["a", "b", "a"])
    >>> m.count("a")
    2
    >>> m == FrozenMultiset(["b", "a", "a"])
    True
    >>> sorted(m.to_set(), key=str)
    ['a', 'b']
    """

    __slots__ = ("_counts", "_hash")

    def __init__(self, elements: Iterable[Hashable] = ()) -> None:
        if isinstance(elements, FrozenMultiset):
            counts: dict[Hashable, int] = dict(elements._counts)
        else:
            counts = dict(Counter(elements))
        self._counts = counts
        self._hash: int | None = None

    def count(self, element: Hashable) -> int:
        """The multiplicity of ``element`` (0 if absent)."""
        return self._counts.get(element, 0)

    def counts(self) -> dict[Hashable, int]:
        """A copy of the element-to-multiplicity mapping."""
        return dict(self._counts)

    def to_set(self) -> frozenset[Hashable]:
        """Forget multiplicities (the Set projection of Figure 3)."""
        return frozenset(self._counts)

    def __contains__(self, element: Any) -> bool:
        return element in self._counts

    def __iter__(self) -> Iterator[Hashable]:
        for element, count in self._counts.items():
            for _ in range(count):
                yield element

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrozenMultiset):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._counts.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{element!r}: {count}" for element, count in self._counts.items())
        return f"FrozenMultiset({{{inner}}})"
