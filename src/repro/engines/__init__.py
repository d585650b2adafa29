"""Unified registry of the ``engine=`` backends.

Every public ``engine=`` knob in the library -- execution
(:func:`repro.execution.engine.run_iter` / ``run_many``),
logic (:func:`repro.logic.engine.check_many` / ``check_sweep`` and the
semantics/bisimulation wrappers), classification, correspondence and
campaign-spec validation -- resolves through this package.  See
:mod:`repro.engines.registry` for the capability vocabulary and the error
taxonomy.
"""

from repro.engines.registry import (
    CAPABILITIES,
    EngineCapabilityError,
    EngineError,
    EngineSpec,
    EngineUnavailableError,
    UnknownEngineError,
    available_engines,
    engine_names,
    logic_engine_for,
    numpy_or_none,
    resolve_engine,
)

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
