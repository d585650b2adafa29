"""The engine registry: one place that knows every ``engine=`` backend.

PRs 1-5 grew four execution/logic backends -- the seed reference loops, the
compiled per-instance engines, the superposed sweep executor and (this PR)
the NumPy vector kernel -- and with them a hand-rolled ``if engine ==
"compiled"`` ladder in every batch entry point.  This module replaces those
ladders with data:

* :class:`EngineSpec` declares a backend once: its name, the capabilities it
  supports (``"trace"``, ``"sweep"``, ``"logic"``), the optional dependency
  it needs, and which logic backend pairs with it;
* :func:`resolve_engine` is the single validation point every public entry
  point calls -- unknown names, capability mismatches and missing optional
  dependencies are diagnosed here and nowhere else, so the error text names
  the engine, the operation and the engines that *would* work;
* :func:`available_engines` is the one discovery API (used by
  ``campaign.spec`` validation, tests and documentation examples instead of
  per-module name tuples).

Capability vocabulary
---------------------

``"sweep"``
    The engine can execute batches of port-numbered instances through
    :func:`repro.execution.engine.run_iter` / ``run_many``; ``run_iter`` is
    the one place such a name turns into a runner.
``"logic"``
    The engine can evaluate modal formulas over Kripke models
    (:func:`repro.logic.engine.check_many` / ``check_sweep`` and the
    semantics/bisimulation wrappers).
``"trace"``
    The engine materializes per-instance :class:`~repro.execution.trace.Trace`
    objects.  Batch engines (sweep, vector) do not; ``run_iter`` transparently
    falls back to the compiled loop when a trace is requested.

Error taxonomy
--------------

All registry errors subclass :class:`EngineError`, which subclasses
``ValueError`` -- existing callers catching ``ValueError`` on a bad knob keep
working.  :class:`EngineUnavailableError` additionally subclasses
``ImportError``: asking for ``engine="vector"`` without NumPy installed is,
morally, a failed import, and either ``except`` clause catches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs import metrics as _metrics

__all__ = [
    "CAPABILITIES",
    "EngineCapabilityError",
    "EngineError",
    "EngineSpec",
    "EngineUnavailableError",
    "UnknownEngineError",
    "available_engines",
    "engine_names",
    "logic_engine_for",
    "numpy_or_none",
    "resolve_engine",
]

#: The full capability vocabulary (see the module docstring).
CAPABILITIES = frozenset({"trace", "sweep", "logic"})


class EngineError(ValueError):
    """Base class of every engine-resolution error."""


class UnknownEngineError(EngineError):
    """The requested engine name is not registered."""


class EngineCapabilityError(EngineError):
    """The engine exists but does not support the requested operation."""


class EngineUnavailableError(EngineError, ImportError):
    """The engine exists but its optional dependency is not installed."""


# --------------------------------------------------------------------------- #
# Optional-dependency probes
# --------------------------------------------------------------------------- #

_UNPROBED = object()
_NUMPY: Any = _UNPROBED


def numpy_or_none() -> Any:
    """The ``numpy`` module if importable, else ``None`` (probed once).

    Tests monkeypatch the module-level ``_NUMPY`` cache to simulate a
    NumPy-free environment without uninstalling anything.
    """
    global _NUMPY
    if _NUMPY is _UNPROBED:
        try:
            import numpy  # noqa: PLC0415

            _NUMPY = numpy
        except ImportError:
            _NUMPY = None
    if _metrics.enabled():
        _metrics.gauge("engines.numpy_available").set(0 if _NUMPY is None else 1)
    return _NUMPY


def _numpy_available() -> bool:
    return numpy_or_none() is not None


@dataclass(frozen=True)
class EngineSpec:
    """One registered backend.

    Attributes
    ----------
    name:
        The ``engine=`` knob value.
    description:
        One line for documentation and error messages.
    capabilities:
        Subset of :data:`CAPABILITIES` the backend supports.
    requirement:
        Human-readable name of the optional dependency, or ``None`` when the
        backend is always available.
    probe:
        Zero-argument availability probe (``None`` means always available).
    logic_backend:
        The logic-layer engine paired with this backend by
        :func:`logic_engine_for` (correspondence checks run both sides of
        Theorem 2 through matching representations).
    batched:
        Whether the backend executes a whole batch as one superposed/fused
        call (no meaningful per-instance streaming or wall-clock split).
    """

    name: str
    description: str
    capabilities: frozenset[str] = field(default_factory=frozenset)
    requirement: str | None = None
    probe: Any = None
    logic_backend: str = "compiled"
    batched: bool = False

    def available(self) -> bool:
        """Whether the optional dependency (if any) is importable."""
        return self.probe is None or bool(self.probe())


#: Registration order is the display/validation order everywhere.
_REGISTRY: dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        EngineSpec(
            name="sweep",
            description="superposed batch executor: one transition per "
            "distinct configuration across the whole sweep",
            capabilities=frozenset({"sweep"}),
            logic_backend="compiled",
            batched=True,
        ),
        EngineSpec(
            name="compiled",
            description="per-instance compiled loops over flat index arrays "
            "and bitsets (the default engines)",
            capabilities=frozenset({"trace", "sweep", "logic"}),
            logic_backend="compiled",
        ),
        EngineSpec(
            name="reference",
            description="the seed reference implementations, kept as "
            "differential oracles",
            capabilities=frozenset({"trace", "sweep", "logic"}),
            logic_backend="reference",
        ),
        EngineSpec(
            name="vector",
            description="NumPy kernel: array scatter/gather sweeps and "
            "packed-uint64 batched model checking",
            capabilities=frozenset({"sweep", "logic"}),
            requirement="numpy",
            probe=_numpy_available,
            logic_backend="vector",
            batched=True,
        ),
    )
}


def engine_names(*, requires: frozenset[str] | set[str] | None = None) -> tuple[str, ...]:
    """Names of the registered engines supporting ``requires``.

    Availability of optional dependencies is *not* consulted: this is the
    declared registry, the right universe for spec validation and error
    messages (a campaign spec naming ``"vector"`` is well-formed on a
    NumPy-free box; running it there raises
    :class:`EngineUnavailableError` at resolution time).
    """
    needed = frozenset(requires or ())
    return tuple(
        spec.name for spec in _REGISTRY.values() if needed <= spec.capabilities
    )


def available_engines(*, requires: frozenset[str] | set[str] | None = None) -> tuple[str, ...]:
    """Names of the engines supporting ``requires`` and importable right now.

    The one discovery API: ``available_engines()`` lists every usable
    backend, ``available_engines(requires={"logic"})`` the ones a logic
    entry point accepts, and so on.
    """
    needed = frozenset(requires or ())
    return tuple(
        spec.name
        for spec in _REGISTRY.values()
        if needed <= spec.capabilities and spec.available()
    )


def resolve_engine(
    name: str,
    *,
    requires: frozenset[str] | set[str] | None = None,
    operation: str | None = None,
) -> EngineSpec:
    """Validate an ``engine=`` knob value and return its spec.

    This is the single choke point behind every public ``engine=`` parameter:

    * an unregistered name raises :class:`UnknownEngineError`;
    * a registered engine missing a capability in ``requires`` raises
      :class:`EngineCapabilityError` naming the engine, the ``operation``
      and the engines that do support it (the Section-1.4 sweep executor has
      no model checker, so ``check_many(..., engine="sweep")`` fails *here*,
      at the public boundary, not deep inside dispatch);
    * an engine whose optional dependency is missing raises
      :class:`EngineUnavailableError` with the install hint.
    """
    spec = _REGISTRY.get(name)
    needed = frozenset(requires or ())
    if spec is None:
        universe = engine_names(requires=needed)
        raise UnknownEngineError(
            f"unknown engine {name!r}; expected one of {universe}"
        )
    if not needed <= spec.capabilities:
        missing = ", ".join(sorted(needed - spec.capabilities))
        what = operation or f"an operation requiring {missing!r}"
        supported = ", ".join(engine_names(requires=needed))
        raise EngineCapabilityError(
            f"engine {name!r} does not support {what} "
            f"(missing capability: {missing}); "
            f"engines that do: {supported}"
        )
    if not spec.available():
        raise EngineUnavailableError(
            f"engine {name!r} requires {spec.requirement}, which is not "
            f"installed; install it (pip install {spec.requirement}) or pick "
            f"one of: {', '.join(available_engines(requires=needed))}"
        )
    return spec


def logic_engine_for(engine: str) -> str:
    """The logic-layer backend paired with an execution engine.

    The superposed sweep executor has no model checker of its own, so
    ``"sweep"`` pairs with the compiled logic engine; ``"vector"`` pairs
    with the packed-uint64 vector checker and ``"reference"`` with the seed
    oracles, keeping both sides of a Theorem 2 correspondence check on
    matching representations.
    """
    return resolve_engine(engine).logic_backend
