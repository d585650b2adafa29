"""repro -- an executable reproduction of *Weak Models of Distributed Computing,
with Connections to Modal Logic* (Hella, Järvisalo, Kuusisto, Laurinharju,
Lempiäinen, Luosto, Suomela, Virtema; PODC 2012).

The library turns every object of the paper into runnable code:

* anonymous deterministic distributed algorithms in the seven weak models
  (VVc, VV, MV, SV, VB, MB, SB) and a shared synchronous execution engine
  (:mod:`repro.machines`, :mod:`repro.execution`);
* graphs, port numberings, covers and matchings (:mod:`repro.graphs`);
* the modal logics ML/GML/MML/GMML, Kripke encodings of port-numbered graphs,
  a model checker and (graded) bisimulation (:mod:`repro.logic`,
  :mod:`repro.modal`);
* the paper's main results as executable constructions and checkable
  certificates: the simulation theorems, the separation witnesses and the
  resulting linear order (:mod:`repro.core`, :mod:`repro.separations`);
* graph problems, concrete algorithms and an experiment harness regenerating
  every figure/theorem of the paper (:mod:`repro.problems`,
  :mod:`repro.algorithms`, :mod:`repro.experiments`).

Quickstart::

    from repro import (
        cycle_graph, consistent_port_numbering, run,
        MultisetBroadcastAlgorithm, Output,
    )

    class CountNeighbours(MultisetBroadcastAlgorithm):
        def initial_state(self, degree):
            return degree
        def broadcast(self, state):
            return "hello"
        def transition(self, state, received):
            return Output(len(received))

    result = run(CountNeighbours(), cycle_graph(5))
    print(result.outputs)   # every node counted its two neighbours
"""

import importlib
import sys

__version__ = "1.0.0"


def _lazy_exports(package: str, exports: dict[str, str]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package whose exports load on use.

    ``exports`` maps each exported name to the module that defines it,
    relative to ``package``.  The first access to a name imports that module
    and caches the value in the package namespace, so ``__getattr__`` runs
    once per name.  A direct submodule that ``exports`` refers to resolves
    to the module itself, as it would once imported.  Every package
    ``__init__`` of ``repro`` that exports lazily goes through this helper.
    """
    namespace = vars(sys.modules[package])
    submodules = {module.split(".")[1] for module in exports.values()}

    def __getattr__(name: str) -> object:
        if name in exports:
            value = getattr(importlib.import_module(exports[name], package), name)
        elif name in submodules:
            value = importlib.import_module(f".{name}", package)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


# ``import repro`` loads no subpackage: each name below is imported from its
# subpackage on first use.  The campaign names resolve the same way but stay
# out of ``__all__``, so a star-import does not pull in the campaign
# subsystem; they remain reachable as ``repro.CampaignSpec`` etc.
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "Graph": ".graphs",
        "PortNumbering": ".graphs",
        "all_port_numberings": ".graphs",
        "complete_graph": ".graphs",
        "consistent_port_numbering": ".graphs",
        "cycle_graph": ".graphs",
        "figure9_graph": ".graphs",
        "path_graph": ".graphs",
        "random_port_numbering": ".graphs",
        "star_graph": ".graphs",
        "symmetric_port_numbering": ".graphs",
        "Algorithm": ".machines",
        "BroadcastAlgorithm": ".machines",
        "FrozenMultiset": ".machines",
        "Model": ".machines",
        "MultisetAlgorithm": ".machines",
        "MultisetBroadcastAlgorithm": ".machines",
        "ProblemClass": ".machines",
        "ReceiveMode": ".machines",
        "SendMode": ".machines",
        "SetAlgorithm": ".machines",
        "SetBroadcastAlgorithm": ".machines",
        "VectorAlgorithm": ".machines",
        "Output": ".machines.algorithm",
        "available_engines": ".engines",
        "resolve_engine": ".engines",
        "CompiledInstance": ".execution",
        "ExecutionResult": ".execution",
        "run": ".execution",
        "run_many": ".execution",
        "KripkeModel": ".logic",
        "extension": ".logic",
        "parse_formula": ".logic",
        "satisfies": ".logic",
        "algorithm_for_formula": ".modal",
        "formula_for_machine": ".modal",
        "kripke_encoding": ".modal",
        "simulate_broadcast_with_multiset_broadcast": ".core",
        "simulate_multiset_with_set": ".core",
        "simulate_vector_with_multiset": ".core",
        "summary": ".core",
        "CampaignSpec": ".campaign",
        "GraphGrid": ".campaign",
        "ResultStore": ".campaign",
        "Scenario": ".campaign",
        "builtin_spec": ".campaign",
        "run_campaign": ".campaign",
    },
)

__all__ = [
    "Graph",
    "PortNumbering",
    "all_port_numberings",
    "complete_graph",
    "consistent_port_numbering",
    "cycle_graph",
    "figure9_graph",
    "path_graph",
    "random_port_numbering",
    "star_graph",
    "symmetric_port_numbering",
    "Algorithm",
    "BroadcastAlgorithm",
    "FrozenMultiset",
    "Model",
    "MultisetAlgorithm",
    "MultisetBroadcastAlgorithm",
    "ProblemClass",
    "ReceiveMode",
    "SendMode",
    "SetAlgorithm",
    "SetBroadcastAlgorithm",
    "VectorAlgorithm",
    "Output",
    "available_engines",
    "resolve_engine",
    "CompiledInstance",
    "ExecutionResult",
    "run",
    "run_many",
    "KripkeModel",
    "extension",
    "parse_formula",
    "satisfies",
    "algorithm_for_formula",
    "formula_for_machine",
    "kripke_encoding",
    "simulate_broadcast_with_multiset_broadcast",
    "simulate_multiset_with_set",
    "simulate_vector_with_multiset",
    "summary",
    "__version__",
]
