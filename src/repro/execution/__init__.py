"""Synchronous execution of distributed algorithms on port-numbered graphs.

* :mod:`~repro.execution.engine` -- the compiled batch engine: flat-array
  instance compilation, the active-set round loop and the :func:`run_many`
  batch API.
* :mod:`~repro.execution.runner` -- the single-instance front door
  (Section 1.3): state vectors, synchronous rounds, stopping detection.
* :mod:`~repro.execution.legacy` -- the seed reference loop, kept as a
  differential-testing oracle and benchmark baseline.
* :mod:`~repro.execution.trace` -- execution traces and message-size
  accounting used by the simulation-overhead experiments.
* :mod:`~repro.execution.sweep` -- the superposed sweep executor: interned
  states/messages and one transition evaluation per distinct configuration
  across a whole batch of numberings of one topology.
* :mod:`~repro.execution.vector` -- the NumPy vector kernel: the sweep
  semantics as batched array passes over the interned configuration table
  (``engine="vector"``; optional dependency).
* :mod:`~repro.execution.adversary` -- adversarial execution over all (or
  sampled) port numberings of a graph.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "CompiledInstance": ".engine",
        "ExecutionError": ".engine",
        "ExecutionResult": ".engine",
        "compile_instance": ".engine",
        "execute": ".engine",
        "run_iter": ".engine",
        "run_many": ".engine",
        "run": ".runner",
        "run_reference": ".legacy",
        "SweepStats": ".sweep",
        "run_sweep": ".sweep",
        "Trace": ".trace",
        "message_size": ".trace",
        "run_vector": ".vector",
        "outputs_over_port_numberings": ".adversary",
        "port_numberings_to_check": ".adversary",
    },
)

__all__ = [
    "CompiledInstance",
    "ExecutionError",
    "ExecutionResult",
    "compile_instance",
    "execute",
    "run",
    "run_iter",
    "run_many",
    "run_reference",
    "run_sweep",
    "run_vector",
    "SweepStats",
    "Trace",
    "message_size",
    "outputs_over_port_numberings",
    "port_numberings_to_check",
]
