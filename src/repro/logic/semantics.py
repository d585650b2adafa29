"""The model checker: Kripke semantics for ML, GML, MML and GMML.

The truth definition follows Section 4.1 of the paper.  The public entry
points (:func:`extension`, :func:`satisfies`, :func:`equivalent_on`) are thin
wrappers over the compiled bitset engine (:mod:`repro.logic.engine`); the
original seed checker is preserved as :func:`reference_extension` and serves
as the differential-testing oracle (mirroring
:mod:`repro.execution.legacy` on the execution side).  Every wrapper takes an
``engine="compiled" | "reference"`` knob for differential tests.

The reference checker computes the *extension* ``||phi||_K`` of a formula
(the set of worlds where it holds) bottom-up over subformulas, memoising
intermediate extensions, so evaluating a formula of size ``s`` over a model
with ``n`` worlds and ``m`` relation pairs costs ``O(s * (n + m))``.

A shared ``_cache`` dictionary may be passed to amortise subformula
extensions across calls *on the same model*.  Caches are owned by the first
model they are used with: reusing one cache across two different models used
to silently return the first model's extensions and now raises
:class:`ValueError`.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.logic.engine import check_engine, compile_kripke
from repro.logic.kripke import KripkeModel, World
from repro.logic.syntax import (
    And,
    Bottom,
    Box,
    Diamond,
    Formula,
    GradedDiamond,
    Implies,
    Not,
    Or,
    Prop,
    Top,
)

#: Cache key under which a shared ``_cache`` records the model it belongs to.
_CACHE_OWNER = object()
#: Cache key under which the compiled engine keeps its bitset subformula cache.
_CACHE_BITS = object()
#: Cache key under which the vector engine keeps its packed-row cache.
_CACHE_ROWS = object()


def _claim_cache(model: KripkeModel, cache: dict) -> None:
    """Bind a shared extension cache to its model, rejecting foreign reuse."""
    owner = cache.get(_CACHE_OWNER)
    if owner is None:
        cache[_CACHE_OWNER] = model
    elif owner is not model and owner != model:
        raise ValueError(
            "the extension cache is owned by a different model; "
            "use one cache per model (cached extensions are model-specific)"
        )


def _resolve_index(model: KripkeModel, index: Hashable) -> Hashable:
    """Resolve a ``None`` modality index to the model's unique relation index."""
    if index is not None:
        return index
    indices = model.indices
    if len(indices) != 1:
        raise ValueError(
            "a plain (unindexed) modality can only be evaluated on a unimodal model; "
            f"this model has indices {sorted(indices, key=repr)!r}"
        )
    return next(iter(indices))


def reference_extension(
    model: KripkeModel, formula: Formula, _cache: dict | None = None
) -> frozenset[World]:
    """The seed model checker, kept verbatim as the differential oracle."""
    if _cache is not None:
        _claim_cache(model, _cache)
    cache: dict[Formula, frozenset[World]] = _cache if _cache is not None else {}

    def evaluate(phi: Formula) -> frozenset[World]:
        if phi in cache:
            return cache[phi]
        result: frozenset[World]
        if isinstance(phi, Prop):
            result = model.valuation_of(phi.name)
        elif isinstance(phi, Top):
            result = model.worlds
        elif isinstance(phi, Bottom):
            result = frozenset()
        elif isinstance(phi, Not):
            result = model.worlds - evaluate(phi.operand)
        elif isinstance(phi, And):
            result = evaluate(phi.left) & evaluate(phi.right)
        elif isinstance(phi, Or):
            result = evaluate(phi.left) | evaluate(phi.right)
        elif isinstance(phi, Implies):
            result = (model.worlds - evaluate(phi.left)) | evaluate(phi.right)
        elif isinstance(phi, Diamond):
            index = _resolve_index(model, phi.index)
            inner = evaluate(phi.operand)
            result = frozenset(
                world
                for world in model.worlds
                if any(successor in inner for successor in model.successors(world, index))
            )
        elif isinstance(phi, Box):
            index = _resolve_index(model, phi.index)
            inner = evaluate(phi.operand)
            result = frozenset(
                world
                for world in model.worlds
                if all(successor in inner for successor in model.successors(world, index))
            )
        elif isinstance(phi, GradedDiamond):
            index = _resolve_index(model, phi.index)
            inner = evaluate(phi.operand)
            result = frozenset(
                world
                for world in model.worlds
                if sum(1 for successor in model.successors(world, index) if successor in inner)
                >= phi.grade
            )
        else:
            raise TypeError(f"unknown formula type: {phi!r}")
        cache[phi] = result
        return result

    return evaluate(formula)


def extension(
    model: KripkeModel,
    formula: Formula,
    _cache: dict | None = None,
    engine: str = "compiled",
) -> frozenset[World]:
    """The set ``||formula||_model`` of worlds where the formula is true.

    ``engine`` selects the compiled bitset checker (default), the
    packed-uint64 NumPy kernel (``"vector"``) or the seed oracle
    (``"reference"``); resolution and capability checks live in
    :func:`repro.engines.resolve_engine`.
    """
    engine = check_engine(engine, "extension")
    if engine == "reference":
        return reference_extension(model, formula, _cache)
    if engine == "vector":
        from repro.logic.vector import vector_kripke

        vector = vector_kripke(model)
        if _cache is None:
            return vector.extension(formula)
        _claim_cache(model, _cache)
        cached = _cache.get(formula)
        if cached is not None:
            return cached
        row_cache = _cache.get(_CACHE_ROWS)
        if row_cache is None:
            row_cache = _cache[_CACHE_ROWS] = {}
        result = vector.extension(formula, row_cache)
        _cache[formula] = result
        return result
    compiled = compile_kripke(model)
    if _cache is None:
        return compiled.extension(formula)
    _claim_cache(model, _cache)
    cached = _cache.get(formula)
    if cached is not None:
        return cached
    bits_cache = _cache.get(_CACHE_BITS)
    if bits_cache is None:
        bits_cache = _cache[_CACHE_BITS] = {}
    result = compiled.to_worlds(compiled.extension_bits(formula, bits_cache))
    _cache[formula] = result
    return result


def satisfies(
    model: KripkeModel, world: World, formula: Formula, engine: str = "compiled"
) -> bool:
    """Whether ``model, world |= formula``: ``world`` is in the formula's extension."""
    if world not in model.worlds:
        raise ValueError(f"{world!r} is not a world of the model")
    engine = check_engine(engine, "satisfies")
    return world in extension(model, formula, engine=engine)


def equivalent_on(
    model: KripkeModel, first: Formula, second: Formula, engine: str = "compiled"
) -> bool:
    """Whether two formulas have the same extension on ``model``.

    Both formulas are evaluated with one shared subformula cache, so common
    subformulas are checked once (the seed implementation evaluated the two
    formulas with separate caches).
    """
    engine = check_engine(engine, "equivalent_on")
    if engine == "reference":
        cache: dict = {}
        return reference_extension(model, first, cache) == reference_extension(
            model, second, cache
        )
    if engine == "vector":
        from repro.logic.vector import vector_kripke

        vector = vector_kripke(model)
        row_cache: dict = {}
        return vector.extension_bits(first, row_cache) == vector.extension_bits(
            second, row_cache
        )
    compiled = compile_kripke(model)
    bits_cache: dict[Formula, int] = {}
    return compiled.extension_bits(first, bits_cache) == compiled.extension_bits(
        second, bits_cache
    )
