"""Fast-path adapter for the execution engine.

The hot loop of the engine calls ``algorithm.model.receive.project`` once per
node per round.  For the Multiset and Set receive modes the projection builds
a fresh :class:`~repro.machines.multiset.FrozenMultiset` or ``frozenset``
every time, even though synchronous executions see the *same* message vectors
over and over (constant-message algorithms, regular graphs, long quiescent
phases).  :class:`FastPathAlgorithm` wraps an algorithm and memoizes the
projection on the raw received vector, which is guaranteed safe because the
projection is a pure function of the vector and both messages and projected
views are immutable, hashable values.

The wrapper is model-agnostic: for the Vector receive mode the projection is
the identity on the already-constructed tuple, so no cache is kept at all.

With ``memoize_transitions=True`` the wrapper additionally memoizes
``initial_state(degree)`` and ``transition(state, projected)``.  The paper
defines algorithms as deterministic state machines -- ``delta`` is a
*function* ``Z x M^Delta -> Z`` (Section 1.1) -- so for any algorithm that
honours the model the memoization is unobservable; it is opt-in because a
Python implementation could in principle be impure (e.g. count its own
calls), and because history-accumulating states never repeat, where the
cache would be pure overhead.  Adversarial verification sweeps (one small
algorithm, thousands of numberings) are the intended beneficiary.
"""

from __future__ import annotations

from typing import Any

from repro.machines.algorithm import Algorithm
from repro.machines.models import ReceiveMode

_MISSING = object()


class FastPathAlgorithm:
    """A thin, engine-facing wrapper memoizing the receive-mode projection.

    The wrapper intentionally does *not* subclass :class:`Algorithm`: it is an
    internal execution-engine helper, not a model citizen.  It exposes the
    inner algorithm as :attr:`inner` and a single extra method,
    :meth:`project`, which the engine uses in place of
    ``algorithm.model.receive.project``.  It also forwards the halting
    protocol (``is_stopping``, ``output``), ``name`` and
    ``initial_state_with_input`` to the inner algorithm, so that the seed
    reference loop (:mod:`repro.execution.legacy`) can run on it unchanged.

    Sharing one wrapper across the executions of a batch (as
    :func:`repro.execution.engine.run_many` does) lets the cache amortize over
    an entire experiment sweep.
    """

    __slots__ = (
        "inner",
        "model",
        "_cache",
        "_project",
        "_identity",
        "_transitions",
        "_initials",
        "_sends",
        "sweep_tables",
        "vector_tables",
    )

    def __init__(self, inner: Algorithm, memoize_transitions: bool = False) -> None:
        if isinstance(inner, FastPathAlgorithm):
            inner = inner.inner
        self.inner = inner
        self.model = inner.model
        self._project = inner.model.receive.project
        self._identity = inner.model.receive is ReceiveMode.VECTOR
        self._cache: dict[Any, Any] = {}
        self._transitions: dict[Any, Any] | None = {} if memoize_transitions else None
        self._initials: dict[int, Any] | None = {} if memoize_transitions else None
        self._sends: dict[Any, Any] | None = {} if memoize_transitions else None
        # Dense-id interning tables owned by the superposed sweep executor
        # (:mod:`repro.execution.sweep`), created there on first use; kept on
        # the wrapper so successive sweeps of one algorithm share them.  The
        # NumPy vector kernel (:mod:`repro.execution.vector`) keeps its
        # array-side mirrors of the same id space in ``vector_tables``.
        self.sweep_tables: Any = None
        self.vector_tables: Any = None

    @property
    def memoizes_transitions(self) -> bool:
        return self._transitions is not None

    def __getstate__(self) -> dict:
        # Every slot besides the inner algorithm is a pure cache; drop them
        # all on pickling (the sweep tables in particular hold non-picklable
        # lazy-row builders) and rebuild empty on the other side.
        return {"inner": self.inner, "memoize": self.memoizes_transitions}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["inner"], memoize_transitions=state["memoize"])

    # ------------------------------------------------------------------ #
    # Raw cache access for the execution engine, which inlines the lookups
    # into its round loop instead of paying a method call per node-round.
    # ------------------------------------------------------------------ #

    @property
    def projects_identity(self) -> bool:
        """Whether projection is the identity (Vector receive mode)."""
        return self._identity

    @property
    def projection_cache(self) -> dict[Any, Any]:
        return self._cache

    @property
    def send_cache(self) -> dict[Any, Any] | None:
        return self._sends

    @property
    def transition_cache(self) -> dict[Any, Any] | None:
        return self._transitions

    def initial_state(self, degree: int) -> Any:
        """``z0(degree)``, memoized per degree when transition memoization is on."""
        cache = self._initials
        if cache is None:
            return self.inner.initial_state(degree)
        if degree not in cache:
            cache[degree] = self.inner.initial_state(degree)
        return cache[degree]

    # Unmemoized forwards: the rest of what the seed loop calls.  Initial
    # states on the inputs path stay unmemoized, as in the compiled engine.

    @property
    def name(self) -> str:
        return self.inner.name

    def initial_state_with_input(self, degree: int, local_input: Any) -> Any:
        return self.inner.initial_state_with_input(degree, local_input)

    def is_stopping(self, state: Any) -> bool:
        return self.inner.is_stopping(state)

    def output(self, state: Any) -> Any:
        return self.inner.output(state)

    def transition(self, state: Any, projected: Any) -> Any:
        """``delta(state, projected)``, memoized on the pair when enabled."""
        cache = self._transitions
        if cache is None:
            return self.inner.transition(state, projected)
        key = (state, projected)
        result = cache.get(key, _MISSING)
        if result is _MISSING:
            result = cache[key] = self.inner.transition(state, projected)
        return result

    def send(self, state: Any, port: int) -> Any:
        """``mu(state, port)``, memoized on the pair when enabled."""
        cache = self._sends
        if cache is None:
            return self.inner.send(state, port)
        key = (state, port)
        result = cache.get(key, _MISSING)
        if result is _MISSING:
            result = cache[key] = self.inner.send(state, port)
        return result

    def broadcast(self, state: Any) -> Any:
        """``mu(state)``, memoized per state when enabled."""
        cache = self._sends
        if cache is None:
            return self.inner.broadcast(state)
        result = cache.get(state, _MISSING)
        if result is _MISSING:
            result = cache[state] = self.inner.broadcast(state)
        return result

    def project(self, vector: tuple[Any, ...]) -> Any:
        """The model's view of ``vector``, memoized on repeated vectors."""
        if self._identity:
            return vector
        cache = self._cache
        projected = cache.get(vector)
        if projected is None:
            projected = cache[vector] = self._project(vector)
        return projected

    def clear_cache(self) -> None:
        """Drop every memoized value (e.g. between unrelated sweeps)."""
        self._cache.clear()
        if self._transitions is not None:
            self._transitions.clear()
        if self._initials is not None:
            self._initials.clear()
        if self._sends is not None:
            self._sends.clear()
        if self.sweep_tables is not None:
            self.sweep_tables.clear()
        if self.vector_tables is not None:
            self.vector_tables.clear()

    @property
    def cache_size(self) -> int:
        """Number of distinct received vectors memoized so far."""
        return len(self._cache)


def fast_path(
    algorithm: Algorithm | FastPathAlgorithm, memoize_transitions: bool = False
) -> FastPathAlgorithm:
    """Wrap ``algorithm`` for the engine (idempotent).

    An already-wrapped algorithm is returned as-is unless transition
    memoization is requested but absent, in which case it is re-wrapped.
    """
    if isinstance(algorithm, FastPathAlgorithm):
        if memoize_transitions and not algorithm.memoizes_transitions:
            return FastPathAlgorithm(algorithm.inner, memoize_transitions=True)
        return algorithm
    return FastPathAlgorithm(algorithm, memoize_transitions=memoize_transitions)
