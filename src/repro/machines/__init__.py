"""Distributed state machines and the seven weak models.

* :mod:`~repro.machines.models` -- the receive/send modes, the algorithm
  models ``Vector``, ``Multiset``, ``Set``, ``Broadcast`` and their
  intersections, and the seven problem classes VVc, VV, MV, SV, VB, MB, SB.
* :mod:`~repro.machines.multiset` -- an immutable multiset used to deliver
  messages in the Multiset models.
* :mod:`~repro.machines.algorithm` -- the ergonomic :class:`Algorithm` base
  classes that examples and library algorithms implement.
* :mod:`~repro.machines.state_machine` -- the paper's formal tuple
  ``(Y, Z, z0, M, m0, mu, delta)``, run as an :class:`Algorithm` by
  ``algorithm_from_machine``.
* :mod:`~repro.machines.library` -- delta-parametric reference and random
  machines of every class, the workloads of the Theorem 2 correspondence
  pipeline.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "ALGORITHM_MODELS": ".models",
        "Model": ".models",
        "ProblemClass": ".models",
        "ReceiveMode": ".models",
        "SendMode": ".models",
        "FrozenMultiset": ".multiset",
        "Algorithm": ".algorithm",
        "BroadcastAlgorithm": ".algorithm",
        "MultisetAlgorithm": ".algorithm",
        "MultisetBroadcastAlgorithm": ".algorithm",
        "SetAlgorithm": ".algorithm",
        "SetBroadcastAlgorithm": ".algorithm",
        "VectorAlgorithm": ".algorithm",
        "FiniteStateMachine": ".state_machine",
        "StateMachine": ".state_machine",
        "algorithm_from_machine": ".state_machine",
        "FastPathAlgorithm": ".fastpath",
        "fast_path": ".fastpath",
        "class_view": ".library",
        "random_machine": ".library",
        "reference_machine": ".library",
    },
)

__all__ = [
    "ALGORITHM_MODELS",
    "Model",
    "ProblemClass",
    "ReceiveMode",
    "SendMode",
    "FrozenMultiset",
    "Algorithm",
    "BroadcastAlgorithm",
    "MultisetAlgorithm",
    "MultisetBroadcastAlgorithm",
    "SetAlgorithm",
    "SetBroadcastAlgorithm",
    "VectorAlgorithm",
    "FastPathAlgorithm",
    "fast_path",
    "FiniteStateMachine",
    "StateMachine",
    "algorithm_from_machine",
    "class_view",
    "random_machine",
    "reference_machine",
]
