"""Finite Kripke models (Section 4.1).

A Kripke model for a set of proposition symbols is a tuple
``K = (W, (R_alpha)_{alpha in I}, tau)``: a set of worlds, a family of binary
accessibility relations indexed by ``I`` and a valuation assigning to each
proposition the set of worlds where it holds.  In the paper's re-reading of
distributed computing, the worlds are processors and the accessibility
relations are communication channels (Table 3).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from typing import Any

World = Hashable
Index = Hashable


class KripkeModel:
    """An immutable finite Kripke model.

    Parameters
    ----------
    worlds:
        The set of worlds ``W`` (must be non-empty).
    relations:
        Mapping from modality index ``alpha`` to an iterable of pairs
        ``(v, w)`` meaning ``(v, w) in R_alpha``.
    valuation:
        Mapping from proposition symbol to the set of worlds where it is true.
        Propositions absent from the mapping are false everywhere.
    """

    # ``_compiled`` caches the flat-array form built by
    # :func:`repro.logic.engine.compile_kripke` (owned by the logic engine),
    # mirroring ``Graph._default_compiled`` in the execution engine; its
    # lifetime is exactly the model's.
    __slots__ = ("_worlds", "_relations", "_successors", "_valuation", "_compiled")

    def __init__(
        self,
        worlds: Iterable[World],
        relations: Mapping[Index, Iterable[tuple[World, World]]],
        valuation: Mapping[Hashable, Iterable[World]] | None = None,
    ) -> None:
        self._worlds: frozenset[World] = frozenset(worlds)
        if not self._worlds:
            raise ValueError("a Kripke model needs at least one world")
        rel: dict[Index, frozenset[tuple[World, World]]] = {}
        successors: dict[Index, dict[World, tuple[World, ...]]] = {}
        for index, pairs in relations.items():
            pair_set = frozenset((v, w) for v, w in pairs)
            for v, w in pair_set:
                if v not in self._worlds or w not in self._worlds:
                    raise ValueError(f"relation {index!r} mentions unknown world in ({v!r}, {w!r})")
            rel[index] = pair_set
            per_world: dict[World, list[World]] = {}
            for v, w in pair_set:
                per_world.setdefault(v, []).append(w)
            successors[index] = {
                v: tuple(sorted(ws, key=repr)) for v, ws in per_world.items()
            }
        self._relations = rel
        self._successors = successors
        val: dict[Hashable, frozenset[World]] = {}
        if valuation:
            for prop, extent in valuation.items():
                extent_set = frozenset(extent)
                unknown = extent_set - self._worlds
                if unknown:
                    raise ValueError(f"valuation of {prop!r} mentions unknown worlds {unknown!r}")
                val[prop] = extent_set
        self._valuation = val
        self._compiled: Any = None

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def worlds(self) -> frozenset[World]:
        return self._worlds

    @property
    def indices(self) -> frozenset[Index]:
        """The modality indices ``I`` of the model."""
        return frozenset(self._relations)

    @property
    def propositions(self) -> frozenset[Hashable]:
        """The proposition symbols with a non-trivial valuation."""
        return frozenset(self._valuation)

    def relation(self, index: Index) -> frozenset[tuple[World, World]]:
        """The accessibility relation ``R_alpha`` (empty if the index is unknown)."""
        return self._relations.get(index, frozenset())

    def successors(self, world: World, index: Index) -> tuple[World, ...]:
        """The ``alpha``-successors of a world, in deterministic order."""
        return self._successors.get(index, {}).get(world, ())

    def holds(self, prop: Hashable, world: World) -> bool:
        """Whether proposition ``prop`` is true at ``world``."""
        return world in self._valuation.get(prop, frozenset())

    def valuation_of(self, prop: Hashable) -> frozenset[World]:
        """The set of worlds where ``prop`` holds."""
        return self._valuation.get(prop, frozenset())

    def label(self, world: World) -> frozenset[Hashable]:
        """The set of propositions true at ``world``."""
        return frozenset(prop for prop in self._valuation if self.holds(prop, world))

    # ------------------------------------------------------------------ #
    # Value-object protocol
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KripkeModel):
            return NotImplemented
        return (
            self._worlds == other._worlds
            and self._relations == other._relations
            and self._valuation == other._valuation
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._worlds,
                frozenset(self._relations.items()),
                frozenset(self._valuation.items()),
            )
        )

    def __repr__(self) -> str:
        return (
            f"KripkeModel(worlds={len(self._worlds)}, "
            f"relations={len(self._relations)}, propositions={len(self._valuation)})"
        )
