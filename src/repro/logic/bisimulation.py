"""Bisimulation and graded bisimulation (Section 4.2).

Two tools are provided:

* **Partition refinement** computes the coarsest (graded) bisimilarity
  equivalence on a finite model: worlds start grouped by their propositional
  label and are repeatedly split according to which blocks (for plain
  bisimilarity) or how many successors in each block (for graded
  bisimilarity) they can reach through each relation.  The bounded variant
  stops after ``k`` refinement rounds and corresponds to ``k``-round
  indistinguishability, i.e. to formulas of modal depth at most ``k``.

* **Certificate checking** verifies that an explicitly given relation ``Z`` is
  a bisimulation (conditions B1-B3) or a graded bisimulation (B1, B2*, B3*).
  Conditions B2*/B3* quantify over all subsets of the successor sets; by
  Hall's marriage theorem they are equivalent to the existence of an injection
  of ``R(v)`` into ``R'(v')`` along ``Z`` (and vice versa), which the checker
  decides with :func:`repro.graphs.matching.injection_exists`.

The public refinement functions are thin wrappers over the signature-hash
engine of :mod:`repro.logic.engine` (``engine="compiled"``, the default) and
reproduce the seed implementation's block numbering exactly; the seed
refinement loop is preserved as :func:`reference_bisimilarity_partition` /
:func:`reference_bounded_bisimilarity_partition` and serves as the
differential-testing oracle.

Fact 1 of the paper -- bisimilar worlds satisfy the same ML/MML formulas and
g-bisimilar worlds the same GML/GMML formulas -- is exercised as a
property-based test of this module.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable

from repro.graphs.matching import injection_exists
from repro.logic.engine import check_engine, compile_kripke
from repro.logic.kripke import KripkeModel, World

Partition = dict[World, int]


# ---------------------------------------------------------------------- #
# Reference partition refinement (seed implementation, differential oracle)
# ---------------------------------------------------------------------- #


def _initial_partition(model: KripkeModel) -> Partition:
    labels: dict[frozenset[Hashable], int] = {}
    partition: Partition = {}
    for world in sorted(model.worlds, key=repr):
        label = model.label(world)
        if label not in labels:
            labels[label] = len(labels)
        partition[world] = labels[label]
    return partition


def _refine_once(model: KripkeModel, partition: Partition, graded: bool) -> Partition:
    indices = sorted(model.indices, key=repr)
    signatures: dict[World, tuple] = {}
    for world in model.worlds:
        per_index = []
        for index in indices:
            successor_blocks = [partition[successor] for successor in model.successors(world, index)]
            if graded:
                per_index.append(tuple(sorted(Counter(successor_blocks).items())))
            else:
                per_index.append(tuple(sorted(set(successor_blocks))))
        signatures[world] = (partition[world], tuple(per_index))
    blocks: dict[tuple, int] = {}
    refined: Partition = {}
    for world in sorted(model.worlds, key=repr):
        signature = signatures[world]
        if signature not in blocks:
            blocks[signature] = len(blocks)
        refined[world] = blocks[signature]
    return refined


def _partition_sizes(partition: Partition) -> int:
    return len(set(partition.values()))


def reference_bisimilarity_partition(model: KripkeModel, graded: bool = False) -> Partition:
    """The seed fixpoint refinement loop, kept as the differential oracle."""
    partition = _initial_partition(model)
    while True:
        refined = _refine_once(model, partition, graded)
        if _partition_sizes(refined) == _partition_sizes(partition):
            return refined
        partition = refined


def reference_bounded_bisimilarity_partition(
    model: KripkeModel, rounds: int, graded: bool = False
) -> Partition:
    """The seed ``rounds``-round refinement, kept as the differential oracle."""
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    partition = _initial_partition(model)
    for _ in range(rounds):
        partition = _refine_once(model, partition, graded)
    return partition


# ---------------------------------------------------------------------- #
# Public refinement API (engine-backed)
# ---------------------------------------------------------------------- #


def bisimilarity_partition(
    model: KripkeModel, graded: bool = False, engine: str = "compiled"
) -> Partition:
    """The coarsest (graded) bisimilarity equivalence, as a world-to-block map.

    ``engine="vector"`` shares the compiled signature-hash refinement:
    partition refinement renumbers blocks by first occurrence, which is an
    inherently sequential scan with no array form, and the compiled engine
    is already identical to the reference oracle.
    """
    engine = check_engine(engine, "bisimilarity_partition")
    if engine == "reference":
        return reference_bisimilarity_partition(model, graded=graded)
    return compile_kripke(model).bisimilarity_partition(graded=graded)


def bounded_bisimilarity_partition(
    model: KripkeModel, rounds: int, graded: bool = False, engine: str = "compiled"
) -> Partition:
    """The ``rounds``-round (graded) bisimilarity equivalence.

    Worlds in the same block cannot be separated by any formula of modal depth
    at most ``rounds`` (of the matching logic), hence by any local algorithm of
    the matching class running for at most ``rounds`` rounds (Theorem 2).
    """
    engine = check_engine(engine, "bounded_bisimilarity_partition")
    if engine == "reference":
        return reference_bounded_bisimilarity_partition(model, rounds, graded=graded)
    return compile_kripke(model).bisimilarity_partition(graded=graded, rounds=rounds)


def bisimilarity_classes(
    model: KripkeModel, graded: bool = False, engine: str = "compiled"
) -> list[frozenset[World]]:
    """The (graded) bisimilarity equivalence classes."""
    partition = bisimilarity_partition(model, graded=graded, engine=engine)
    blocks: dict[int, set[World]] = {}
    for world, block in partition.items():
        blocks.setdefault(block, set()).add(world)
    return [frozenset(worlds) for _, worlds in sorted(blocks.items())]


def bisimilar_within(
    model: KripkeModel,
    worlds: Iterable[World],
    graded: bool = False,
    engine: str = "compiled",
) -> bool:
    """Whether all the given worlds of one model are pairwise (graded) bisimilar."""
    worlds = list(worlds)
    if len(worlds) <= 1:
        return True
    partition = bisimilarity_partition(model, graded=graded, engine=engine)
    return len({partition[world] for world in worlds}) == 1


# ---------------------------------------------------------------------- #
# Certificate checking
# ---------------------------------------------------------------------- #


def _atoms_agree(
    first_model: KripkeModel, first_world: World, second_model: KripkeModel, second_world: World
) -> bool:
    propositions = first_model.propositions | second_model.propositions
    return all(
        first_model.holds(prop, first_world) == second_model.holds(prop, second_world)
        for prop in propositions
    )


def is_bisimulation(
    first_model: KripkeModel,
    second_model: KripkeModel,
    relation: Iterable[tuple[World, World]],
) -> bool:
    """Whether ``relation`` is a bisimulation between the two models (B1-B3)."""
    pairs = set(relation)
    if not pairs:
        return False
    indices = first_model.indices | second_model.indices
    for v, v_prime in pairs:
        if not _atoms_agree(first_model, v, second_model, v_prime):
            return False
        for index in indices:
            # (B2) forth
            for w in first_model.successors(v, index):
                if not any(
                    (w, w_prime) in pairs for w_prime in second_model.successors(v_prime, index)
                ):
                    return False
            # (B3) back
            for w_prime in second_model.successors(v_prime, index):
                if not any((w, w_prime) in pairs for w in first_model.successors(v, index)):
                    return False
    return True


def is_graded_bisimulation(
    first_model: KripkeModel,
    second_model: KripkeModel,
    relation: Iterable[tuple[World, World]],
) -> bool:
    """Whether ``relation`` is a graded bisimulation (B1, B2*, B3*).

    Conditions B2* and B3* require, for every related pair ``(v, v')`` and
    every subset ``X`` of ``R(v)``, a same-size subset of ``R'(v')`` covered by
    ``Z``-partners of ``X`` (and symmetrically).  By Hall's marriage theorem
    this holds if and only if ``R(v)`` injects into ``R'(v')`` along ``Z`` and
    ``R'(v')`` injects into ``R(v)`` along ``Z^{-1}``; the checker verifies the
    two injections with the shared bipartite-matching helper (greedy early
    exit, then Hopcroft-Karp).
    """
    pairs = set(relation)
    if not pairs:
        return False
    inverse_pairs = {(b, a) for a, b in pairs}
    indices = first_model.indices | second_model.indices
    for v, v_prime in pairs:
        if not _atoms_agree(first_model, v, second_model, v_prime):
            return False
        for index in indices:
            forward = first_model.successors(v, index)
            backward = second_model.successors(v_prime, index)
            if not injection_exists(forward, backward, pairs):
                return False
            if not injection_exists(backward, forward, inverse_pairs):
                return False
    return True
