"""The hierarchy of problem classes and the paper's main classification result.

Figure 5a shows the containments that follow trivially from the definitions;
the paper's main theorem (results (1) and (2) of Section 2) collapses the
seven classes into a linear order of four distinct levels::

    SB  ⊊  MB = VB  ⊊  SV = MV = VV  ⊊  VVc

and identically for the constant-time versions.  The trivial partial order is
``ProblemClass.trivially_contains``; this module encodes the proven linear
order and the query helpers (`level_of`, `is_contained_in`,
`distinct_levels`, `summary`) that experiment E3 and the examples use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machines.models import ProblemClass

#: The four levels of the proven linear order, weakest first (Figure 5b).
LINEAR_ORDER: tuple[tuple[ProblemClass, ...], ...] = (
    (ProblemClass.SB,),
    (ProblemClass.MB, ProblemClass.VB),
    (ProblemClass.SV, ProblemClass.MV, ProblemClass.VV),
    (ProblemClass.VVC,),
)

#: Human-readable names of the four levels.
LEVEL_NAMES: tuple[str, ...] = (
    "neither incoming nor outgoing port numbers (SB)",
    "no outgoing port numbers (MB = VB)",
    "no incoming port numbers (SV = MV = VV)",
    "consistent port numbering (VVc)",
)

#: The equalities proved in Section 5 (Corollaries 7 and 10).
PROVEN_EQUALITIES: tuple[frozenset[ProblemClass], ...] = (
    frozenset({ProblemClass.MB, ProblemClass.VB}),
    frozenset({ProblemClass.SV, ProblemClass.MV, ProblemClass.VV}),
)

#: The strict separations proved in Section 5.3, as (smaller, larger) pairs
#: together with the theorem establishing them.
PROVEN_SEPARATIONS: tuple[tuple[ProblemClass, ProblemClass, str], ...] = (
    (ProblemClass.SB, ProblemClass.MB, "Theorem 13 (odd number of odd-degree neighbours)"),
    (ProblemClass.VB, ProblemClass.SV, "Theorem 11 (leaf election in a star)"),
    (ProblemClass.VV, ProblemClass.VVC, "Theorem 17 (symmetry breaking in matchless regular graphs)"),
)


def level_of(problem_class: ProblemClass) -> int:
    """The index (0 = weakest) of the class's level in the linear order."""
    for index, level in enumerate(LINEAR_ORDER):
        if problem_class in level:
            return index
    raise ValueError(f"unknown problem class {problem_class!r}")


def is_contained_in(smaller: ProblemClass, larger: ProblemClass) -> bool:
    """Whether ``smaller ⊆ larger`` according to the paper's main theorem."""
    return level_of(smaller) <= level_of(larger)


def distinct_levels() -> tuple[tuple[ProblemClass, ...], ...]:
    """The four distinct levels, weakest first."""
    return LINEAR_ORDER


@dataclass(frozen=True)
class HierarchySummary:
    """A machine-checkable summary of the classification (used by experiment E3)."""

    levels: tuple[tuple[ProblemClass, ...], ...]
    equalities: tuple[frozenset[ProblemClass], ...]
    separations: tuple[tuple[ProblemClass, ProblemClass, str], ...]

    def number_of_distinct_classes(self) -> int:
        return len(self.levels)

    def describe(self) -> str:
        """The linear order in the notation of the paper's abstract."""
        parts = []
        for level in self.levels:
            parts.append(" = ".join(str(cls) for cls in level))
        return "  ⊊  ".join(parts)


def summary() -> HierarchySummary:
    """The paper's classification as a :class:`HierarchySummary`."""
    return HierarchySummary(
        levels=LINEAR_ORDER,
        equalities=PROVEN_EQUALITIES,
        separations=PROVEN_SEPARATIONS,
    )
