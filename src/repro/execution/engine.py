"""Compiled batch execution engine.

The reference runner of Section 1.3 (:mod:`repro.execution.legacy`) re-derives
the port topology from ``(graph, numbering)`` on every round: each message
delivery calls ``numbering.inverse`` (a linear scan over a neighbour tuple),
each round rebuilds dictionaries keyed by ``(node, port)`` tuples, and the
stopping condition rescans every node.  Experiment sweeps -- hierarchy
verification, separation certificates, bisimulation-invariance surveys -- run
thousands of executions over the same graphs, so that bookkeeping dominates
the actual algorithm work.

This module compiles an instance once and runs the synchronous rounds over
flat index arrays:

* :class:`CompiledInstance` pre-computes node-indexed degrees, CSR-style port
  offsets and an inverse-port delivery map (for every input port, the flat
  index of the output buffer slot that feeds it), so the per-round loop does
  zero dictionary lookups on topology;
* :func:`execute` runs an algorithm over a compiled instance with an
  *active-set scheduler*: only non-stopped nodes construct messages and take
  transitions, and a node that halts parks ``m0`` in its output slots exactly
  once (halted nodes keep sending ``m0`` forever, as in the paper);
* :func:`run_many` is the batch API for experiment sweeps: it runs one
  algorithm over many instances in-process, sharing the compiled topology
  and the :class:`~repro.machines.fastpath.FastPathAlgorithm` projection
  cache across the batch, and :func:`run_iter` is the one place an
  ``engine=`` name turns into a runner.

Per-graph topology (everything that does not depend on the port numbering) is
cached in a :class:`weakref.WeakKeyDictionary`, so adversarial sweeps that
enumerate thousands of numberings of one witness graph compile the graph part
only once.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Any, Union

from repro.graphs.graph import Graph, Node
from repro.graphs.ports import PortNumbering, consistent_port_numbering
from repro.machines.algorithm import NO_MESSAGE, Algorithm, Output
from repro.machines.fastpath import FastPathAlgorithm, fast_path
from repro.machines.models import SendMode
from repro.execution.trace import Trace
from repro.engines.registry import resolve_engine

#: Default bound on the number of rounds before the engine gives up.
DEFAULT_MAX_ROUNDS = 10_000


class ExecutionError(RuntimeError):
    """Raised when an execution does not halt within the round budget."""


@dataclass
class ExecutionResult:
    """The outcome of running an algorithm on ``(G, p)``.

    Attributes
    ----------
    outputs:
        The local output ``S(v)`` of every node that reached a stopping state.
        When ``halted`` is true this is the full solution ``S`` of Section
        1.4; when the round budget was exhausted it contains the *partial*
        outputs of the nodes that did stop (possibly none).
    rounds:
        The time ``T`` at which the last node stopped (or the round budget).
    halted:
        Whether every node reached a stopping state within the round budget.
    trace:
        The full execution trace, if recording was requested.
    states:
        The final state of every node, including non-stopped ones.  This is
        what makes non-halting runs inspectable: ``states`` always reflects
        the configuration at time ``rounds``.
    """

    outputs: dict[Node, Any]
    rounds: int
    halted: bool
    trace: Trace | None = None
    states: dict[Node, Any] | None = None

    def output_vector(self) -> dict[Node, Any]:
        """Alias for :attr:`outputs` (the solution ``S`` of Section 1.4)."""
        return self.outputs


# --------------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------------- #


class _CompiledGraph:
    """The numbering-independent part of a compiled instance.

    ``offsets`` is the CSR-style prefix-sum of degrees over the deterministic
    node order: the ports of node ``i`` occupy the flat slots
    ``offsets[i] .. offsets[i] + degrees[i] - 1``.
    """

    __slots__ = ("nodes", "index", "degrees", "offsets", "num_ports")

    def __init__(self, graph: Graph) -> None:
        nodes = graph.nodes
        self.nodes: tuple[Node, ...] = nodes
        self.index: dict[Node, int] = {node: i for i, node in enumerate(nodes)}
        self.degrees: list[int] = [graph.degree(node) for node in nodes]
        offsets = [0] * (len(nodes) + 1)
        total = 0
        for i, degree in enumerate(self.degrees):
            offsets[i] = total
            total += degree
        offsets[len(nodes)] = total
        self.offsets: list[int] = offsets
        self.num_ports: int = total


_COMPILED_GRAPHS: "weakref.WeakKeyDictionary[Graph, _CompiledGraph]" = (
    weakref.WeakKeyDictionary()
)


def _empty_gather(buffer: list[Any]) -> tuple[Any, ...]:
    return ()


def _single_gather(slot: int, buffer: list[Any]) -> tuple[Any, ...]:
    return (buffer[slot],)


def _make_getter(slots: tuple[int, ...]) -> Any:
    """A picklable callable mapping the flat output buffer to a received vector."""
    if not slots:
        return _empty_gather
    if len(slots) == 1:
        return partial(_single_gather, slots[0])
    return itemgetter(*slots)


def _compiled_graph(graph: Graph) -> _CompiledGraph:
    try:
        compiled = _COMPILED_GRAPHS.get(graph)
        if compiled is None:
            compiled = _COMPILED_GRAPHS[graph] = _CompiledGraph(graph)
        return compiled
    except TypeError:  # not weak-referenceable; compile without caching
        return _CompiledGraph(graph)


class CompiledInstance:
    """``(graph, numbering)`` compiled to flat index arrays.

    For every node ``i`` (in the graph's deterministic node order):

    * ``sources[i][j]`` is the flat *output-buffer* slot whose message arrives
      at input port ``j + 1`` of node ``i`` under port-addressed sending
      (i.e. the compiled form of ``p^{-1}((v, j + 1))``), and
    * ``source_nodes[i][j]`` is the index of the sending node, which is all
      broadcast-mode delivery needs (one buffer slot per node).

    The per-round loop therefore delivers messages by plain list indexing --
    no ``numbering.inverse``, no ``(node, port)`` dictionary keys.
    """

    __slots__ = (
        "graph",
        "numbering",
        "topology",
        "sources",
        "source_nodes",
        "port_getters",
        "node_getters",
    )

    def __init__(self, graph: Graph, numbering: PortNumbering | None = None) -> None:
        if numbering is None:
            numbering = consistent_port_numbering(graph)
        elif numbering.graph != graph:
            raise ValueError("the port numbering belongs to a different graph")
        self.graph = graph
        self.numbering = numbering
        topology = _compiled_graph(graph)
        self.topology = topology

        index = topology.index
        offsets = topology.offsets
        outgoing = numbering.outgoing_assignment()
        incoming = numbering.incoming_assignment()
        # Invert the outgoing assignment once: out_port_of[v][u] is the
        # 0-based output port of v that leads to u.
        out_port_of = {
            node: {neighbour: q for q, neighbour in enumerate(ports)}
            for node, ports in outgoing.items()
        }
        sources: list[tuple[int, ...]] = []
        source_nodes: list[tuple[int, ...]] = []
        for node in topology.nodes:
            slots: list[int] = []
            senders: list[int] = []
            for neighbour in incoming[node]:
                sender = index[neighbour]
                slots.append(offsets[sender] + out_port_of[neighbour][node])
                senders.append(sender)
            sources.append(tuple(slots))
            source_nodes.append(tuple(senders))
        self.sources = sources
        self.source_nodes = source_nodes
        # C-level gather: one itemgetter per node turns the output buffer
        # into that node's received vector without a Python-level loop.
        self.port_getters = [_make_getter(slots) for slots in sources]
        self.node_getters = [_make_getter(senders) for senders in source_nodes]

    @property
    def number_of_nodes(self) -> int:
        return len(self.topology.nodes)

    @property
    def number_of_ports(self) -> int:
        return self.topology.num_ports

    def __repr__(self) -> str:
        return (
            f"CompiledInstance(nodes={self.number_of_nodes}, "
            f"ports={self.number_of_ports})"
        )


#: Anything :func:`run_many` accepts as one instance of a batch.
Instance = Union[Graph, "tuple[Graph, PortNumbering | None]", CompiledInstance]

def compiled_for(graph: Graph, numbering: PortNumbering | None = None) -> CompiledInstance:
    """A compiled instance for ``(graph, numbering)``, cached when possible.

    An explicit numbering carries its compiled form in a private slot (see
    :class:`~repro.graphs.ports.PortNumbering`), so repeated executions under
    one numbering -- e.g. a simulation run plus the reference run its output
    is checked against -- compile once.  With ``numbering=None`` the compiled
    canonical instance is cached on the graph itself (repeated
    ``run(algorithm, graph)`` calls skip both the numbering construction and
    the compilation); both caches live exactly as long as their owner object.
    """
    if numbering is not None:
        compiled = numbering._compiled_instance
        if compiled is not None and (compiled.graph is graph or compiled.graph == graph):
            return compiled
        compiled = CompiledInstance(graph, numbering)
        numbering._compiled_instance = compiled
        return compiled
    compiled = graph._default_compiled
    if compiled is None:
        compiled = graph._default_compiled = CompiledInstance(graph)
    return compiled


def compile_instance(instance: Instance) -> CompiledInstance:
    """Normalize a batch item to a :class:`CompiledInstance`."""
    if isinstance(instance, CompiledInstance):
        return instance
    if isinstance(instance, Graph):
        return compiled_for(instance)
    graph, numbering = instance
    return compiled_for(graph, numbering)


# --------------------------------------------------------------------------- #
# The compiled round loop
# --------------------------------------------------------------------------- #


def execute(
    algorithm: Algorithm | FastPathAlgorithm,
    compiled: CompiledInstance,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    record_trace: bool = False,
    require_halt: bool = True,
    inputs: dict[Node, Any] | None = None,
) -> ExecutionResult:
    """Execute ``algorithm`` on a compiled instance until every node stops.

    Semantically identical to the reference runner (same outputs, rounds,
    halting behaviour and trace contents); see
    :func:`repro.execution.runner.run` for the parameter documentation.
    """
    fast = fast_path(algorithm)
    inner = fast.inner
    topology = compiled.topology
    nodes = topology.nodes
    n = len(nodes)
    degrees = topology.degrees
    offsets = topology.offsets
    is_stopping = inner.is_stopping
    transition = inner.transition
    broadcast = inner.model.send is SendMode.BROADCAST
    # The wrapper's caches are inlined into the round loop below -- no
    # per-call method dispatch on the hot path.  Vector receive keeps the raw
    # tuple (identity projection), so no projection cache is consulted.
    identity_projection = fast.projects_identity
    projection_cache = fast.projection_cache
    project = inner.model.receive.project
    memoize = fast.memoizes_transitions
    send_cache = fast.send_cache if memoize else None
    transition_cache = fast.transition_cache if memoize else None
    # Algorithms that keep the default halting protocol (state is stopping
    # iff it is an Output) get the check inlined as an isinstance test.
    cls = type(inner)
    default_protocol = (
        cls.is_stopping is Algorithm.is_stopping and cls.output is Algorithm.output
    )

    if inputs is None:
        initial = fast.initial_state if memoize else inner.initial_state
        states: list[Any] = [initial(degrees[i]) for i in range(n)]
    else:
        states = [
            inner.initial_state_with_input(degrees[i], inputs.get(nodes[i]))
            for i in range(n)
        ]

    trace = Trace() if record_trace else None
    if trace is not None:
        trace.state_history.append(dict(zip(nodes, states)))
        trace.received_messages.append({})

    if default_protocol:
        active = [i for i in range(n) if not isinstance(states[i], Output)]
    else:
        active = [i for i in range(n) if not is_stopping(states[i])]
    # One output slot per port (port-addressed) or per node (broadcast).
    # Slots of halted (or initially-halted) nodes stay at m0 forever.
    out: list[Any] = [NO_MESSAGE] * (n if broadcast else topology.num_ports)
    gather = compiled.source_nodes if broadcast else compiled.sources
    gatherers = compiled.node_getters if broadcast else compiled.port_getters

    rounds = 0
    while active:
        if rounds >= max_rounds:
            if require_halt:
                raise ExecutionError(
                    f"{inner.name} did not halt on {compiled.graph!r} "
                    f"within {max_rounds} rounds"
                )
            return _finish(inner, nodes, states, rounds, False, trace, default_protocol)
        rounds += 1

        # Send phase: only active nodes construct messages.
        if broadcast:
            broadcast_rule = inner.broadcast
            if send_cache is None:
                for i in active:
                    out[i] = broadcast_rule(states[i])
            else:
                for i in active:
                    state = states[i]
                    try:
                        message = send_cache[state]
                    except KeyError:
                        message = send_cache[state] = broadcast_rule(state)
                    out[i] = message
        else:
            send = inner.send
            if send_cache is None:
                for i in active:
                    state = states[i]
                    base = offsets[i]
                    for q in range(degrees[i]):
                        out[base + q] = send(state, q + 1)
            else:
                for i in active:
                    state = states[i]
                    base = offsets[i]
                    for q in range(degrees[i]):
                        key = (state, q + 1)
                        try:
                            message = send_cache[key]
                        except KeyError:
                            message = send_cache[key] = send(state, q + 1)
                        out[base + q] = message

        if trace is not None:
            received: dict[tuple[Node, int], Any] = {}
            for i in range(n):
                node = nodes[i]
                for j, slot in enumerate(gather[i]):
                    received[(node, j + 1)] = out[slot]
            trace.received_messages.append(received)

        # Receive + transition phase.  The output buffer is frozen for the
        # round (newly-halted nodes only park m0 *after* every gather), so
        # states can be updated in place without breaking the synchronous
        # semantics.
        still_active: list[int] = []
        newly_stopped: list[int] = []
        for i in active:
            vector = gatherers[i](out)
            if identity_projection:
                projected = vector
            else:
                try:
                    projected = projection_cache[vector]
                except KeyError:
                    projected = projection_cache[vector] = project(vector)
            if transition_cache is None:
                new_state = transition(states[i], projected)
            else:
                key = (states[i], projected)
                try:
                    new_state = transition_cache[key]
                except KeyError:
                    new_state = transition_cache[key] = transition(*key)
            states[i] = new_state
            if default_protocol:
                stopped = isinstance(new_state, Output)
            else:
                stopped = is_stopping(new_state)
            if stopped:
                newly_stopped.append(i)
            else:
                still_active.append(i)
        for i in newly_stopped:
            if broadcast:
                out[i] = NO_MESSAGE
            else:
                base = offsets[i]
                for q in range(degrees[i]):
                    out[base + q] = NO_MESSAGE
        active = still_active

        if trace is not None:
            trace.state_history.append(dict(zip(nodes, states)))

    return _finish(inner, nodes, states, rounds, True, trace, default_protocol)


def _finish(
    algorithm: Algorithm,
    nodes: tuple[Node, ...],
    states: list[Any],
    rounds: int,
    halted: bool,
    trace: Trace | None,
    default_protocol: bool,
) -> ExecutionResult:
    if default_protocol:
        if halted:
            outputs = {nodes[i]: states[i].value for i in range(len(nodes))}
        else:
            outputs = {
                nodes[i]: states[i].value
                for i in range(len(nodes))
                if isinstance(states[i], Output)
            }
    else:
        output = algorithm.output
        is_stopping = algorithm.is_stopping
        if halted:
            outputs = {nodes[i]: output(states[i]) for i in range(len(nodes))}
        else:
            outputs = {
                nodes[i]: output(states[i])
                for i in range(len(nodes))
                if is_stopping(states[i])
            }
    return ExecutionResult(
        outputs=outputs,
        rounds=rounds,
        halted=halted,
        trace=trace,
        states=dict(zip(nodes, states)),
    )


# --------------------------------------------------------------------------- #
# Batch API
# --------------------------------------------------------------------------- #


def _run_one(
    fast: FastPathAlgorithm,
    instance: Instance,
    max_rounds: int,
    require_halt: bool,
    record_trace: bool,
    inputs: dict[Node, Any] | None,
    engine: str,
) -> ExecutionResult:
    if engine == "reference":
        from repro.execution.legacy import run_reference

        # Normalize without compiling: the seed loop derives the topology
        # itself, and charging it a compilation would taint the baseline.
        if isinstance(instance, CompiledInstance):
            graph, numbering = instance.graph, instance.numbering
        elif isinstance(instance, Graph):
            graph, numbering = instance, None
        else:
            graph, numbering = instance
        # The seed loop runs on the memoizing wrapper when the caller asked
        # for memoization, and on the bare algorithm otherwise, so plain
        # reference runs keep their exact baseline.
        return run_reference(
            fast if fast.memoizes_transitions else fast.inner,
            graph,
            numbering,
            max_rounds=max_rounds,
            record_trace=record_trace,
            require_halt=require_halt,
            inputs=inputs,
        )
    return execute(
        fast,
        compile_instance(instance),
        max_rounds=max_rounds,
        record_trace=record_trace,
        require_halt=require_halt,
        inputs=inputs,
    )


def run_iter(
    algorithm: Algorithm,
    instances: Iterable[Instance],
    *,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    require_halt: bool = True,
    record_trace: bool = False,
    inputs: Sequence[dict[Node, Any] | None] | None = None,
    engine: str = "compiled",
    memoize_transitions: bool = False,
) -> "Iterator[ExecutionResult]":
    """Lazily run one algorithm over a batch, yielding results in order.

    Same contract as :func:`run_many`, but results are produced as they
    complete, so consumers that stop at the first interesting result (e.g.
    counterexample search) do not pay for the rest of the batch.  Only the
    execution is lazy: an unknown or unavailable engine and an ``inputs``
    list of the wrong length raise at the call, before any iteration.
    """
    spec = resolve_engine(engine, requires={"sweep"}, operation="run_iter")
    if record_trace and "trace" not in spec.capabilities:
        # Batch engines (sweep, vector) do not materialize per-instance
        # traces; trace consumers transparently get the (identical) compiled
        # loop.
        spec = resolve_engine("compiled", requires={"sweep"}, operation="run_iter")
    items = list(instances)
    if inputs is None:
        per_inputs: list[dict[Node, Any] | None] = [None] * len(items)
    else:
        per_inputs = list(inputs)
        if len(per_inputs) != len(items):
            raise ValueError(
                f"inputs has {len(per_inputs)} entries for {len(items)} instances"
            )

    def results() -> "Iterator[ExecutionResult]":
        if spec.batched:
            # The superposed and vector engines execute the whole batch in
            # one call, deduplicating configurations across all of it.
            if spec.name == "vector":
                from repro.execution.vector import run_vector as runner
            else:
                from repro.execution.sweep import run_sweep as runner
            yield from runner(
                algorithm,
                items,
                max_rounds=max_rounds,
                require_halt=require_halt,
                inputs=per_inputs,
            )
            return
        fast = fast_path(algorithm, memoize_transitions=memoize_transitions)
        for item, item_inputs in zip(items, per_inputs):
            yield _run_one(
                fast, item, max_rounds, require_halt, record_trace, item_inputs, spec.name
            )

    return results()


def run_many(
    algorithm: Algorithm,
    instances: Iterable[Instance],
    *,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    require_halt: bool = True,
    record_trace: bool = False,
    inputs: Sequence[dict[Node, Any] | None] | None = None,
    engine: str = "compiled",
    memoize_transitions: bool = False,
) -> list[ExecutionResult]:
    """Run one algorithm over a batch of instances, in this process.

    Work that needs several cores goes through a campaign instead
    (:func:`repro.campaign.executor.run_campaign`, ``--workers N``), whose
    dispatcher survives the death of a worker.

    Parameters
    ----------
    algorithm:
        The distributed algorithm, shared by every instance of the batch.
    instances:
        The batch items: each is a :class:`~repro.graphs.graph.Graph` (run
        under the canonical consistent numbering), a ``(graph, numbering)``
        pair, or an already-:class:`CompiledInstance`.
    max_rounds, require_halt, record_trace:
        As in :func:`repro.execution.runner.run`, applied per instance.  With
        ``require_halt=True`` the first non-halting instance raises
        :class:`ExecutionError`, exactly like running the batch sequentially.
    inputs:
        Optional per-instance local-input mappings, aligned with
        ``instances``.
    engine:
        ``"compiled"`` (default) uses this module's compiled active-set loop;
        ``"sweep"`` executes the whole batch superposed through
        :func:`repro.execution.sweep.run_sweep` (one transition evaluation
        per distinct configuration) and ``"vector"`` through the NumPy
        kernel of :func:`repro.execution.vector.run_vector` (one array pass
        per round over the whole batch; requires NumPy) -- for both batch
        engines ``record_trace`` falls back to the compiled loop;
        ``"reference"`` dispatches every instance to the seed reference
        runner -- the differential oracle on identical workloads.  The knob
        resolves through :func:`repro.engines.resolve_engine`, which raises
        the shared unknown-engine/capability/availability errors.
    memoize_transitions:
        Additionally memoize ``initial_state`` and ``transition`` across the
        whole batch (see :class:`~repro.machines.fastpath.FastPathAlgorithm`).
        Sound for any algorithm that is a deterministic state machine in the
        paper's sense; adversarial sweeps of one small algorithm over many
        numberings benefit the most.  Every engine honours it; on
        ``"reference"`` the unchanged seed loop runs on the memoizing wrapper.

    Returns
    -------
    list[ExecutionResult]
        One result per instance, in input order.
    """
    return list(
        run_iter(
            algorithm,
            instances,
            max_rounds=max_rounds,
            require_halt=require_halt,
            record_trace=record_trace,
            inputs=inputs,
            engine=engine,
            memoize_transitions=memoize_transitions,
        )
    )
