"""Compiled logic engine: bitset model checking and hash-based refinement.

The reference implementations of Section 4.1/4.2
(:func:`repro.logic.semantics.reference_extension`,
:func:`repro.logic.bisimulation.reference_bisimilarity_partition`) manipulate
``frozenset``-of-worlds extensions and re-sort the world set by ``repr`` on
every refinement round.  Impossibility sweeps -- the E4 correspondence checks,
the E12 invariance survey, every ``witness_bisimilar`` call behind the
separation certificates -- evaluate thousands of formulas and refinement
rounds over the same Kripke models, so that representation overhead dominates.

This module gives the logic layer the same compiled-vs-reference treatment the
execution layer got in :mod:`repro.execution.engine`:

* :class:`CompiledKripke` interns the worlds of a model to dense integers
  (in the reference implementation's deterministic ``repr`` order), stores
  each accessibility relation as CSR-style flat successor arrays plus
  per-world successor/predecessor bitmasks, and represents every valuation --
  and every computed extension -- as a Python-int *bitset* (bit ``i`` set iff
  world ``i`` is in the set);
* the model checker evaluates the hash-consed formula DAG
  (:mod:`repro.logic.syntax`) in one ascending pass over pool node ids
  (children-before-parents by construction) with a flat ``{node_id:
  bitset}`` table -- no recursion, shared subformulas evaluated once:
  Boolean connectives are single big-int operations, ``<a>phi`` is a union
  of predecessor masks over the set bits of ``||phi||``, ``[a]phi`` is its
  De Morgan dual and graded diamonds count ``mask & bits`` with
  ``int.bit_count``; :meth:`CompiledKripke.check_many` batches many formulas
  over one model with a shared per-node cache and :func:`check_sweep`
  batches many models;
* (graded/bounded) bisimilarity runs as signature-hash partition refinement
  over the flat arrays: each round maps every world to a hashable signature
  ``(block, per-index successor-block sets/multisets)`` and renumbers blocks
  by first occurrence in the interned world order, which reproduces the
  reference implementation's block numbering exactly -- differential tests
  compare partitions with ``==``.

The compiled form is cached on the model instance (``KripkeModel._compiled``,
mirroring ``Graph._default_compiled`` in the execution engine), so repeated
checks and refinements on one model -- a batch checked against a model built
once, an adversarial sweep's union of encodings -- compile it once.  It keeps
no reference back to the model, so the pair is freed by reference counting,
not left to the cyclic garbage collector.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from itertools import chain, compress

from repro.logic.kripke import Index, KripkeModel, World
from repro.logic.syntax import (
    KIND_AND,
    KIND_BOTTOM,
    KIND_BOX,
    KIND_DIAMOND,
    KIND_IMPLIES,
    KIND_NOT,
    KIND_OR,
    KIND_PROP,
    KIND_TOP,
    Formula,
    formula_pool,
)

from repro.engines.registry import resolve_engine
from repro.obs import metrics as _metrics


def check_engine(engine: str, operation: str = "logic evaluation") -> str:
    """Validate a logic ``engine=`` knob value; returns the engine name.

    Resolution happens in the engine registry
    (:func:`repro.engines.resolve_engine`), so an execution-only engine --
    ``engine="sweep"`` handed to a logic entry point -- raises a capability
    error naming the engine and the operation here, at the public boundary,
    instead of failing deep inside dispatch.
    """
    return resolve_engine(engine, requires={"logic"}, operation=operation).name


#: Set-bit offsets of every byte value: the decode table behind all
#: bitset-to-indices conversions (one Python iteration per byte, not per bit).
_BYTE_BITS = tuple(
    tuple(offset for offset in range(8) if value >> offset & 1) for value in range(256)
)

#: Per-byte selector flags for :func:`itertools.compress`-based decoding.
_BYTE_FLAGS = tuple(
    tuple(value >> offset & 1 for offset in range(8)) for value in range(256)
)

#: Sentinel for "the model is not unimodal" -- distinct from every legal
#: modality index (``None`` itself is a legal index value).
_NOT_UNIMODAL = object()


def _iter_bits(bits: int):
    """Yield the indices of the set bits of ``bits`` (lowest first)."""
    if not bits:
        return
    data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
    for base, byte in enumerate(data):
        if byte:
            for offset in _BYTE_BITS[byte]:
                yield (base << 3) + offset


class CompiledKripke:
    """A :class:`~repro.logic.kripke.KripkeModel` compiled to flat arrays.

    Worlds are interned to ``0 .. n-1`` in the deterministic ``repr`` order
    the reference implementations use, so block numberings and world
    enumerations agree between the engines.  For every modality index the
    relation is stored three ways, each serving one hot loop:

    * ``csr[index] = (offsets, targets)`` -- flat successor lists for the
      refinement signatures;
    * ``succ_masks[index][i]`` -- bitset of the successors of world ``i``,
      for graded counting (``(mask & bits).bit_count()``) and ``[a]phi``;
    * ``pred_masks[index][j]`` -- bitset of the predecessors of world ``j``,
      so ``<a>phi`` is a union of predecessor masks over the set bits of
      ``||phi||`` (linear in the extension, not in ``n * m``).
    """

    __slots__ = (
        "worlds",
        "n",
        "all_mask",
        "indices",
        "csr",
        "succ_lists",
        "succ_masks",
        "pred_masks",
        "prop_bits",
        "label_keys",
        "_unique_index",
        "_block_bits",
        "_vector",
    )

    def __init__(self, model: KripkeModel) -> None:
        worlds = tuple(sorted(model.worlds, key=repr))
        self.worlds = worlds
        index_of = {world: i for i, world in enumerate(worlds)}
        n = len(worlds)
        self.n = n
        self.all_mask = (1 << n) - 1

        self.indices: tuple[Index, ...] = tuple(sorted(model.indices, key=repr))
        self._unique_index: Index = (
            self.indices[0] if len(self.indices) == 1 else _NOT_UNIMODAL
        )
        csr: dict[Index, tuple[list[int], list[int]]] = {}
        succ_masks: dict[Index, list[int]] = {}
        pred_masks: dict[Index, list[int]] = {}
        for rel_index in self.indices:
            offsets = [0] * (n + 1)
            targets: list[int] = []
            s_masks = [0] * n
            p_masks = [0] * n
            for i, world in enumerate(worlds):
                offsets[i] = len(targets)
                for successor in model.successors(world, rel_index):
                    j = index_of[successor]
                    targets.append(j)
                    s_masks[i] |= 1 << j
                    p_masks[j] |= 1 << i
            offsets[n] = len(targets)
            csr[rel_index] = (offsets, targets)
            succ_masks[rel_index] = s_masks
            pred_masks[rel_index] = p_masks
        self.csr = csr
        self.succ_masks = succ_masks
        self.pred_masks = pred_masks
        # Per-world successor lists (views into the CSR data), so the
        # refinement rounds index without slicing.
        self.succ_lists = {
            rel_index: [
                targets[offsets[i] : offsets[i + 1]] for i in range(n)
            ]
            for rel_index, (offsets, targets) in csr.items()
        }

        self.prop_bits: dict[Hashable, int] = {}
        for prop in model.propositions:
            bits = 0
            for world in model.valuation_of(prop):
                bits |= 1 << index_of[world]
            self.prop_bits[prop] = bits
        # Initial-partition keys: one int per world whose bits record which
        # propositions (in deterministic order) hold there.
        props = sorted(self.prop_bits, key=repr)
        label_keys = [0] * n
        for position, prop in enumerate(props):
            bits = self.prop_bits[prop]
            for i in _iter_bits(bits):
                label_keys[i] |= 1 << position
        self.label_keys = label_keys
        self._block_bits: list[int] | None = None
        # Packed-uint64 twin (:mod:`repro.logic.vector`), built on first use.
        self._vector = None

    # ------------------------------------------------------------------ #
    # Bitset helpers
    # ------------------------------------------------------------------ #

    def to_worlds(self, bits: int) -> frozenset[World]:
        """Decode a bitset into the corresponding set of worlds.

        Runs entirely at C level: the bitset becomes a little-endian byte
        string, each byte expands to its 8 selector flags through a lookup
        table, and :func:`itertools.compress` filters the world tuple.
        """
        if not bits:
            return frozenset()
        data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
        return frozenset(
            compress(self.worlds, chain.from_iterable(map(_BYTE_FLAGS.__getitem__, data)))
        )

    def _resolve_index(self, index: Index) -> Index:
        if index is not None:
            return index
        unique = self._unique_index
        if unique is _NOT_UNIMODAL:
            raise ValueError(
                "a plain (unindexed) modality can only be evaluated on a unimodal "
                f"model; this model has indices {list(self.indices)!r}"
            )
        return unique

    def _predecessors_of(self, index: Index, bits: int) -> int:
        """The worlds with at least one ``index``-successor inside ``bits``.

        Computed as the union of predecessor masks over the set bits of
        ``bits``, walking the bitset one byte at a time.
        """
        preds = self.pred_masks.get(index)
        if preds is None or not bits:
            return 0
        data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
        byte_bits = _BYTE_BITS
        result = 0
        for base, byte in enumerate(data):
            if byte:
                start = base << 3
                for offset in byte_bits[byte]:
                    result |= preds[start + offset]
        return result

    # ------------------------------------------------------------------ #
    # Bitset model checker (Section 4.1)
    # ------------------------------------------------------------------ #

    def extension_bits(self, formula: Formula, cache: dict[int, int] | None = None) -> int:
        """The extension ``||formula||`` as a bitset, memoised per pool node.

        The formula is a node of the hash-consed DAG
        (:mod:`repro.logic.syntax`), so evaluation is one ascending pass
        over the reachable pool ids -- children-before-parents by
        construction -- with a flat ``{node_id: bitset}`` table instead of
        the seed's recursion over formula objects.  Shared subformulas
        (Table 4/5 emit them combinatorially) are evaluated once, and no
        recursion limit applies however deep the formula is.
        """
        if not isinstance(formula, Formula):
            raise TypeError(f"unknown formula type: {formula!r}")
        if cache is None:
            cache = {}
        root = formula.node_id
        hit = cache.get(root)
        if hit is not None:
            if _metrics.enabled():
                _metrics.counter("logic.extension.cache_hits").inc()
            return hit
        pool = formula_pool()
        kinds, kids_of, payloads = pool.kinds, pool.children, pool.payloads
        # Collect the uncached ids reachable from the root, pruning the
        # traversal at already-cached nodes (shared caches across check_many
        # batches skip whole subdags).
        needed = {root}
        stack = [root]
        while stack:
            for child in kids_of[stack.pop()]:
                if child not in needed and child not in cache:
                    needed.add(child)
                    stack.append(child)
        all_mask = self.all_mask
        for node in sorted(needed):
            kind = kinds[node]
            kids = kids_of[node]
            if kind == KIND_PROP:
                bits = self.prop_bits.get(payloads[node][0], 0)
            elif kind == KIND_TOP:
                bits = all_mask
            elif kind == KIND_BOTTOM:
                bits = 0
            elif kind == KIND_NOT:
                bits = all_mask ^ cache[kids[0]]
            elif kind == KIND_AND:
                bits = cache[kids[0]] & cache[kids[1]]
            elif kind == KIND_OR:
                bits = cache[kids[0]] | cache[kids[1]]
            elif kind == KIND_IMPLIES:
                bits = (all_mask ^ cache[kids[0]]) | cache[kids[1]]
            elif kind == KIND_DIAMOND:
                index = self._resolve_index(payloads[node][0])
                bits = self._predecessors_of(index, cache[kids[0]])
            elif kind == KIND_BOX:
                # [a]phi = ~<a>~phi: worlds with no successor outside ||phi||.
                index = self._resolve_index(payloads[node][0])
                bits = all_mask ^ self._predecessors_of(index, all_mask ^ cache[kids[0]])
            else:  # KIND_GRADED
                grade, raw_index = payloads[node]
                index = self._resolve_index(raw_index)
                inner = cache[kids[0]]
                if grade == 0:
                    bits = all_mask
                elif grade == 1:
                    bits = self._predecessors_of(index, inner)
                else:
                    masks = self.succ_masks.get(index)
                    bits = 0
                    if masks is not None and inner:
                        # One C-level big-int AND per world; hits accumulate
                        # in a bytearray (small-int bit ops, no big-int
                        # reallocation per set bit).
                        out = bytearray((self.n + 7) >> 3)
                        for i, overlap in enumerate(map(inner.__and__, masks)):
                            if overlap and overlap.bit_count() >= grade:
                                out[i >> 3] |= 1 << (i & 7)
                        bits = int.from_bytes(out, "little")
            cache[node] = bits
        if _metrics.enabled():
            _metrics.counter("logic.extension.nodes_evaluated").inc(len(needed))
        return cache[root]

    def extension(self, formula: Formula, cache: dict[int, int] | None = None) -> frozenset[World]:
        """The extension ``||formula||`` as a set of worlds."""
        return self.to_worlds(self.extension_bits(formula, cache))

    def check_many(self, formulas: Iterable[Formula]) -> list[frozenset[World]]:
        """Extensions of many formulas with one shared per-node bitset cache."""
        cache: dict[int, int] = {}
        return [self.to_worlds(self.extension_bits(formula, cache)) for formula in formulas]

    # ------------------------------------------------------------------ #
    # Signature-hash partition refinement (Section 4.2)
    # ------------------------------------------------------------------ #

    def initial_blocks(self) -> list[int]:
        """Per-world block ids of the propositional-label partition."""
        seen: dict[int, int] = {}
        blocks = [0] * self.n
        for i, key in enumerate(self.label_keys):
            block = seen.get(key)
            if block is None:
                block = seen[key] = len(seen)
            blocks[i] = block
        return blocks

    def refine_blocks(self, blocks: list[int], graded: bool) -> tuple[list[int], int]:
        """One refinement round; returns the new blocks and their count.

        The signature of a world is its current block plus, per modality
        index, the set (plain) or sorted multiset (graded) of the blocks of
        its successors -- a sorted-with-multiplicity tuple encodes the
        multiset just as faithfully as the reference implementation's
        ``Counter`` items.  New block ids are assigned by first occurrence
        in the interned world order, matching the reference implementation.
        """
        n = self.n
        seen: dict[tuple, int] = {}
        refined = [0] * n
        seen_get = seen.get
        # The *set* of successor blocks is the plain signature; encoded as a
        # bitmask over block ids it needs no sort and hashes in C.  Block
        # ids are bounded by n, so the one-shift-per-id table is built once.
        bit_of = self._block_bits
        if bit_of is None:
            bit_of = self._block_bits = [1 << k for k in range(n)]
        if len(self.indices) == 1:
            # Unimodal fast path (every Kripke encoding of the K-,- variant):
            # one fused pass builds the signature and numbers it.
            succ = self.succ_lists[self.indices[0]]
            if graded:
                for i, row in enumerate(succ):
                    successor_blocks = [blocks[t] for t in row]
                    successor_blocks.sort()
                    signature = (blocks[i], tuple(successor_blocks))
                    block = seen_get(signature)
                    if block is None:
                        block = seen[signature] = len(seen)
                    refined[i] = block
            else:
                for i, row in enumerate(succ):
                    mask = 0
                    for t in row:
                        mask |= bit_of[blocks[t]]
                    signature = (blocks[i], mask)
                    block = seen_get(signature)
                    if block is None:
                        block = seen[signature] = len(seen)
                    refined[i] = block
            return refined, len(seen)
        per_index = [self.succ_lists[rel_index] for rel_index in self.indices]
        for i in range(n):
            parts: list = [blocks[i]]
            for succ in per_index:
                if graded:
                    successor_blocks = [blocks[t] for t in succ[i]]
                    successor_blocks.sort()
                    parts.append(tuple(successor_blocks))
                else:
                    mask = 0
                    for t in succ[i]:
                        mask |= bit_of[blocks[t]]
                    parts.append(mask)
            signature = tuple(parts)
            block = seen_get(signature)
            if block is None:
                block = seen[signature] = len(seen)
            refined[i] = block
        return refined, len(seen)

    def bisimilarity_blocks(self, graded: bool = False, rounds: int | None = None) -> list[int]:
        """Block ids of the (bounded) (graded) bisimilarity equivalence.

        ``rounds=None`` refines to the coarsest fixpoint; otherwise exactly
        ``rounds`` refinement rounds are applied (Theorem 2's ``k``-round
        indistinguishability).
        """
        blocks = self.initial_blocks()
        if rounds is not None:
            if rounds < 0:
                raise ValueError("rounds must be non-negative")
            for _ in range(rounds):
                blocks, _count = self.refine_blocks(blocks, graded)
            return blocks
        count = len(set(blocks))
        while True:
            refined, refined_count = self.refine_blocks(blocks, graded)
            if refined_count == count:
                return refined
            blocks, count = refined, refined_count

    def bisimilarity_partition(
        self, graded: bool = False, rounds: int | None = None
    ) -> dict[World, int]:
        """World-to-block mapping of :meth:`bisimilarity_blocks`."""
        blocks = self.bisimilarity_blocks(graded=graded, rounds=rounds)
        return dict(zip(self.worlds, blocks))

    def __repr__(self) -> str:
        return (
            f"CompiledKripke(worlds={self.n}, indices={len(self.indices)}, "
            f"propositions={len(self.prop_bits)})"
        )


# ---------------------------------------------------------------------- #
# Compilation cache
# ---------------------------------------------------------------------- #


def compile_kripke(model: KripkeModel) -> CompiledKripke:
    """The compiled form of ``model``, cached on the model instance."""
    compiled = model._compiled
    if compiled is None:
        compiled = model._compiled = CompiledKripke(model)
    return compiled


# ---------------------------------------------------------------------- #
# Batch APIs
# ---------------------------------------------------------------------- #


def check_many(
    model: KripkeModel,
    formulas: Iterable[Formula],
    *,
    engine: str = "compiled",
) -> list[frozenset[World]]:
    """Extensions of many formulas over one model, in input order.

    With ``engine="compiled"`` all formulas share one bitset subformula
    cache; ``engine="vector"`` evaluates the whole batch layer by layer as
    packed-uint64 array ops (:mod:`repro.logic.vector`; requires NumPy);
    ``engine="reference"`` uses the seed checker (one shared cache as
    well), for differential testing.  Every engine evaluates
    in this process.
    """
    engine = check_engine(engine, "check_many")
    formulas = list(formulas)
    if _metrics.enabled():
        _metrics.counter("logic.check_many.calls").inc()
        _metrics.histogram(
            "logic.check_many.batch_size",
            buckets=_metrics.DEFAULT_SIZE_BUCKETS,
        ).observe(len(formulas))
    if engine == "reference":
        from repro.logic.semantics import reference_extension

        cache: dict = {}
        return [reference_extension(model, formula, cache) for formula in formulas]
    if engine == "vector":
        from repro.logic.vector import vector_check_many

        return vector_check_many(model, formulas)
    return compile_kripke(model).check_many(formulas)


def check_sweep(
    models: Iterable[KripkeModel],
    formulas: Sequence[Formula],
    *,
    engine: str = "compiled",
) -> list[list[frozenset[World]]]:
    """Extensions of many formulas over many models (one cache per model)."""
    engine = check_engine(engine, "check_sweep")
    return [check_many(model, formulas, engine=engine) for model in models]
