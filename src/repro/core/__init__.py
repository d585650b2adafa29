"""The paper's primary contribution: simulations, separations and the hierarchy.

* :mod:`~repro.core.hierarchy` -- the seven problem classes, the trivial
  partial order of Figure 5a and the proven linear order of Figure 5b.
* :mod:`~repro.core.simulations` -- the executable simulation constructions of
  Theorems 4, 8 and 9 (the containment half of the classification).
* :mod:`~repro.core.classification` -- evidence objects that replay the whole
  argument (containments by simulation, separations by bisimulation) on
  concrete graphs.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "LEVEL_NAMES": ".hierarchy",
        "LINEAR_ORDER": ".hierarchy",
        "PROVEN_EQUALITIES": ".hierarchy",
        "PROVEN_SEPARATIONS": ".hierarchy",
        "HierarchySummary": ".hierarchy",
        "are_equal": ".hierarchy",
        "collapse": ".hierarchy",
        "distinct_levels": ".hierarchy",
        "is_contained_in": ".hierarchy",
        "is_strictly_contained_in": ".hierarchy",
        "level_of": ".hierarchy",
        "separation_between": ".hierarchy",
        "summary": ".hierarchy",
        "trivially_contained_in": ".hierarchy",
        "ClassificationReport": ".classification",
        "ContainmentEvidence": ".classification",
        "SeparationEvidence": ".classification",
        "MultisetBroadcastSimulationOfBroadcast": ".simulations",
        "MultisetSimulationOfVector": ".simulations",
        "SetSimulationOfMultiset": ".simulations",
        "simulate_broadcast_with_multiset_broadcast": ".simulations",
        "simulate_multiset_with_set": ".simulations",
        "simulate_vector_with_multiset": ".simulations",
    },
)

__all__ = [
    "LEVEL_NAMES",
    "LINEAR_ORDER",
    "PROVEN_EQUALITIES",
    "PROVEN_SEPARATIONS",
    "HierarchySummary",
    "are_equal",
    "collapse",
    "distinct_levels",
    "is_contained_in",
    "is_strictly_contained_in",
    "level_of",
    "separation_between",
    "summary",
    "trivially_contained_in",
    "ClassificationReport",
    "ContainmentEvidence",
    "SeparationEvidence",
    "MultisetBroadcastSimulationOfBroadcast",
    "MultisetSimulationOfVector",
    "SetSimulationOfMultiset",
    "simulate_broadcast_with_multiset_broadcast",
    "simulate_multiset_with_set",
    "simulate_vector_with_multiset",
]
