"""Superposed sweep execution: one transition per distinct configuration.

The paper's solvability notion (Section 1.4) quantifies over *every* port
numbering the adversary can choose, so verification sweeps execute one
algorithm over thousands of numberings of the same witness graph.  The
compiled engine (:mod:`repro.execution.engine`) already shares the graph
topology and the :class:`~repro.machines.fastpath.FastPathAlgorithm` caches
across such a batch, but it still works with the states and messages
*themselves*: every node-round hashes a state, a received vector and a
projected view, and for history-accumulating states those hashes are as large
as the objects.  Yet in an anonymous port-numbered network most nodes across
the instances of a sweep sit in *identical* local configurations -- the
structural collapse that makes the finite-state view of these models work in
the first place.

This module executes the whole sweep over one superposed id space:

* states and messages are interned into dense integer ids in
  :class:`SweepTables` (extending the fast-path caches into tables shared by
  every instance of the sweep and -- because the tables live on the
  :class:`~repro.machines.fastpath.FastPathAlgorithm` wrapper -- by every
  sweep of the same wrapped algorithm);
* per round, each active node's ``(state_id, inbox)`` configuration is
  interned into a global configuration table -- the inbox is a tuple of
  message ids, canonicalized per receive mode (sorted for Multiset, sorted
  and deduplicated for Set, sound because ids are in bijection with message
  values) -- and the algorithm's transition function is consulted **once per
  distinct configuration** across the entire sweep;
* outgoing messages are interned the same way: one ``(state_id, degree)``
  send row (or one broadcast id) per distinct state, scattered into the
  output buffer by C-level slice assignment instead of per-port calls;
* results are materialized from the id tables (``dict(zip(nodes, map(...)))``
  over dense ids, with a memo over repeated final configurations), so a
  2,000-numbering sweep of a 10-node witness does hundreds of transition
  evaluations per round -- not 20,000 -- and never hashes a state object
  twice.

Everything an instance does after the first one is therefore integer table
lookups; the algorithm's own ``send``/``transition``/``is_stopping`` code
runs only when a configuration is genuinely new.  The NumPy vector kernel
(:mod:`repro.execution.vector`) runs under the same batch entry point
(:func:`run_batch`) and interns through the same closures
(:func:`bind_interner`) into the same tables.  The result is
node-for-node identical to the compiled engine and the seed reference
runner (``tests/test_sweep_engine.py`` checks all seven classes
differentially); both stay available as oracles through
:func:`~repro.execution.engine.run_many`'s ``engine`` knob
(``engine="compiled"`` / ``"reference"``).

Limits: traces are not recorded (callers that need a
:class:`~repro.execution.trace.Trace` fall back to the compiled engine), and
with ``require_halt=True`` a round-budget violation is reported only after
the rest of the sweep has run -- the same exception, for the first
non-halting instance in input order, just not raised mid-batch.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Any

from repro.graphs.graph import Graph, Node
from repro.machines.algorithm import NO_MESSAGE, Algorithm, Output
from repro.machines.fastpath import FastPathAlgorithm, fast_path
from repro.machines.models import ReceiveMode, SendMode
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span, tracing_enabled as _tracing
from repro.execution.engine import (
    DEFAULT_MAX_ROUNDS,
    CompiledInstance,
    ExecutionError,
    ExecutionResult,
    Instance,
    compile_instance,
)

__all__ = [
    "SweepStats",
    "SweepTables",
    "bind_interner",
    "collapse_instances",
    "delivery_signature_of",
    "publish_stats",
    "run_batch",
    "run_sweep",
    "stats_values",
    "sweep_tables_for",
]

_MISSING = object()


def delivery_signature_of(model: Any, has_inputs: bool):
    """The instance-collapse signature function of a model, or ``None``.

    Instance-level superposition: the receive mode's information loss
    quotients the adversary's choices.  A node's dynamics depend on its
    delivery map only up to what the mode can observe -- under Multiset or
    Set receive the incoming port order is invisible (only the *sorted*
    source slots matter), and under broadcast send the senders' output
    ports are too (only the source nodes matter; with Multiset/Set receive
    on top, nothing of the numbering remains).  Instances that agree on
    that signature are execution-identical, so only one representative per
    signature needs to run; duplicates copy its result.  Exhaustive
    adversarial sweeps collapse by factorial factors this way (MB/SB
    collapse to a single execution), exactly mirroring how the paper's
    weak models forget port information.

    Returns ``None`` when no collapse is sound: per-instance inputs break
    instance equality, and Vector receive with port-addressed sending
    observes the full delivery map.  :func:`run_batch` applies it for both
    the superposed sweep engine and the NumPy vector kernel.
    """
    broadcast = model.send is SendMode.BROADCAST
    vector_mode = model.receive is ReceiveMode.VECTOR
    if has_inputs:
        return None
    if broadcast:
        if vector_mode:
            return lambda ci: tuple(ci.source_nodes)
        return lambda ci: ()
    if not vector_mode:
        return lambda ci: tuple(tuple(sorted(slots)) for slots in ci.sources)
    return None


def collapse_instances(
    group: "list[CompiledInstance]", signature_of
) -> tuple[list[int], list[tuple[int, int]]]:
    """Split a shared-topology group into representatives and duplicates.

    Returns ``(executed, duplicates)``: the positions that must run the
    round loop, and ``(position, representative)`` pairs whose results are
    copies of their representative's.
    """
    duplicates: list[tuple[int, int]] = []
    if signature_of is None:
        return list(range(len(group))), duplicates
    representatives: dict[Any, int] = {}
    executed: list[int] = []
    for position, instance in enumerate(group):
        signature = signature_of(instance)
        representative = representatives.get(signature)
        if representative is None:
            representatives[signature] = position
            executed.append(position)
        else:
            duplicates.append((position, representative))
    return executed, duplicates


class _LazyRowTable(dict):
    """state_id -> outgoing-row table computing entries on first use.

    Backs the C-level buffer-rebuild send paths: ``map(table.__getitem__,
    state_row)`` stays a plain dict lookup per node, and ``__missing__``
    invokes the builder exactly once per state that actually appears in a
    rebuild at this shape -- never for states interned by other-degree
    groups sharing the same :class:`SweepTables`.
    """

    __slots__ = ("_build",)

    def __init__(self, build) -> None:
        super().__init__()
        self._build = build

    def __missing__(self, sid: int):
        row = self[sid] = self._build(sid)
        return row


@dataclass
class SweepStats:
    """Work accounting of one (or more) superposed sweeps.

    ``executed`` and ``replicated`` split the instances into
    delivery-signature representatives that ran the round loop and
    duplicates whose results were copied from their representative.
    ``occurrences`` counts the per-``(instance, node, round)`` steps the
    representatives walked, ``replicated_occurrences`` the steps the
    duplicates would have repeated (so :attr:`naive_occurrences` is the full
    per-instance-engine walk); ``evaluations`` counts how many steps
    actually reached the algorithm's transition function -- one per
    configuration the sweep had never seen before.
    ``distinct_states``/``distinct_messages`` count the values the accounted
    sweeps *newly* interned (zero on a warm re-sweep), so every field
    accumulates across calls sharing one stats object.
    """

    instances: int = 0
    executed: int = 0
    replicated: int = 0
    rounds: int = 0
    occurrences: int = 0
    replicated_occurrences: int = 0
    evaluations: int = 0
    distinct_states: int = 0
    distinct_messages: int = 0

    @property
    def naive_occurrences(self) -> int:
        """Node-rounds a per-instance engine would walk for the full sweep:
        the representatives' walks plus the walks the replicated duplicates
        would have repeated."""
        return self.occurrences + self.replicated_occurrences

    @property
    def dedup_ratio(self) -> float:
        """Naive transitions per actual transition evaluation (both levels
        of superposition: configuration dedup and instance collapse).  A
        fully-warm sweep (zero evaluations) reports its whole naive walk as
        deduplicated, not 1.0."""
        if self.evaluations:
            return self.naive_occurrences / self.evaluations
        return float(self.naive_occurrences) if self.naive_occurrences else 1.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "instances": self.instances,
            "executed": self.executed,
            "replicated": self.replicated,
            "rounds": self.rounds,
            "occurrences": self.occurrences,
            "naive_occurrences": self.naive_occurrences,
            "evaluations": self.evaluations,
            "distinct_states": self.distinct_states,
            "distinct_messages": self.distinct_messages,
            "dedup_ratio": round(self.dedup_ratio, 2),
        }


_STATS_FIELDS = (
    "instances",
    "executed",
    "replicated",
    "rounds",
    "occurrences",
    "replicated_occurrences",
    "evaluations",
    "distinct_states",
    "distinct_messages",
)


def stats_values(stats: SweepStats) -> tuple[int, ...]:
    """Raw field vector of a stats object (for before/after delta capture)."""
    return tuple(getattr(stats, field) for field in _STATS_FIELDS)


def publish_stats(prefix: str, stats: SweepStats, before: tuple[int, ...], sp) -> None:
    """Publish the per-call delta of an accumulated stats object.

    ``SweepStats`` remains the caller-facing compatibility view; this folds
    the same numbers into the process-wide registry as ``{prefix}.*``
    counters and attaches the headline figures to the enclosing span.
    """
    deltas = {
        field: value - prior
        for field, value, prior in zip(_STATS_FIELDS, stats_values(stats), before)
    }
    if _metrics.enabled():
        for field, delta in deltas.items():
            if delta:
                _metrics.counter(f"{prefix}.{field}").inc(delta)
    naive = deltas["occurrences"] + deltas["replicated_occurrences"]
    sp.set(
        instances=deltas["instances"],
        executed=deltas["executed"],
        evaluations=deltas["evaluations"],
        naive_occurrences=naive,
        distinct_states=deltas["distinct_states"],
    )


class SweepTables:
    """Dense-id interning tables shared across the sweeps of one algorithm.

    * ``state_values[state_ids[z]] is z`` -- states to dense ids and back,
      with the stopping flag pre-computed per id in ``state_stops`` and the
      local output of a stopping state memoized in ``state_outputs``;
    * ``msg_values[msg_ids[m]] is m`` -- messages to dense ids (id 0 is the
      paper's ``m0``);
    * ``configs[(state_id, inbox_key)] -> (new_state_id, stopped)`` -- the
      global configuration table, shared by the sweep and vector kernels:
      the transition function is consulted once per key, ever;
    * ``send_rows[(state_id, degree)]`` and the per-shape ``rebuild_rows``
      tables -- the interned outgoing-message row of a state, computed once
      per state (and degree, for port-addressed sending);
    * ``initial_rows[degree] -> state_id`` -- interned ``z0``.

    Sharing the tables is sound for exactly the reason transition
    memoization is (see :mod:`repro.machines.fastpath`): the paper defines
    algorithms as deterministic state machines (Section 1.1), so a
    configuration determines its successor.  The tables live on the
    :class:`~repro.machines.fastpath.FastPathAlgorithm` wrapper; pass the
    same wrapper to successive sweeps to amortize them across calls.
    """

    __slots__ = (
        "state_ids",
        "state_values",
        "state_stops",
        "state_outputs",
        "msg_ids",
        "msg_values",
        "configs",
        "send_rows",
        "initial_rows",
        "rebuild_rows",
    )

    def __init__(self) -> None:
        self.state_ids: dict[Any, int] = {}
        self.state_values: list[Any] = []
        self.state_stops: list[bool] = []
        self.state_outputs: list[Any] = []
        self.msg_ids: dict[Any, int] = {NO_MESSAGE: 0}
        self.msg_values: list[Any] = [NO_MESSAGE]
        self.configs: dict[tuple[int, tuple[int, ...]], tuple[int, bool]] = {}
        self.send_rows: dict[tuple[int, int], tuple[int, ...]] = {}
        self.initial_rows: dict[int, int] = {}
        # state_id-indexed outgoing rows for the C-level buffer-rebuild send
        # paths, one lazy table per shape key ("b" for broadcast, degree for
        # port-addressed regular topologies); see ``_sweep_group``.
        self.rebuild_rows: dict[Any, "_LazyRowTable"] = {}

    def clear(self) -> None:
        self.__init__()


def sweep_tables_for(fast: FastPathAlgorithm) -> SweepTables:
    """The sweep tables of a fast-path wrapper, created on first use."""
    tables = fast.sweep_tables
    if tables is None:
        tables = SweepTables()
        fast.sweep_tables = tables
    return tables


def bind_interner(fast: FastPathAlgorithm, tables: SweepTables) -> tuple:
    """The interning closures over one wrapper's tables, for a kernel to bind.

    Returns ``(intern_state, intern_msg, output_of, evaluate)``:

    * ``intern_state(state)`` / ``intern_msg(message)`` -- the dense id of a
      value, interned on first sight (with a state's stopping flag);
    * ``output_of(sid)`` -- the local output of a stopping state, memoized
      in ``tables.state_outputs``;
    * ``evaluate(cfg)`` -- consult the algorithm for a configuration
      ``(state_id, inbox)`` seen for the first time and write its
      ``(new_state_id, stopped)`` entry into ``tables.configs``.

    A configuration key's inbox is the tuple of received message ids,
    canonical per receive mode (port order for Vector, sorted for Multiset,
    sorted and deduplicated for Set).  Every kernel sharing the tables
    builds the same key for the same configuration, so the transition
    function runs once per key per wrapper, whichever engine met it first.
    """
    inner = fast.inner
    cls = type(inner)
    default_protocol = (
        cls.is_stopping is Algorithm.is_stopping and cls.output is Algorithm.output
    )
    is_stopping = inner.is_stopping
    transition = inner.transition
    vector_mode = inner.model.receive is ReceiveMode.VECTOR
    project = inner.model.receive.project
    state_ids = tables.state_ids
    state_values = tables.state_values
    state_stops = tables.state_stops
    state_outputs = tables.state_outputs
    msg_ids = tables.msg_ids
    msg_values = tables.msg_values
    configs = tables.configs

    def intern_state(state: Any) -> int:
        sid = state_ids.get(state)
        if sid is None:
            sid = state_ids[state] = len(state_values)
            state_values.append(state)
            if default_protocol:
                state_stops.append(isinstance(state, Output))
            else:
                state_stops.append(is_stopping(state))
            state_outputs.append(_MISSING)
        return sid

    def intern_msg(message: Any) -> int:
        mid = msg_ids.get(message)
        if mid is None:
            mid = msg_ids[message] = len(msg_values)
            msg_values.append(message)
        return mid

    def output_of(sid: int) -> Any:
        value = state_outputs[sid]
        if value is _MISSING:
            state = state_values[sid]
            value = state.value if default_protocol else inner.output(state)
            state_outputs[sid] = value
        return value

    def evaluate(cfg: tuple[int, tuple[int, ...]]) -> tuple[int, bool]:
        vector = tuple(map(msg_values.__getitem__, cfg[1]))
        new_state = transition(
            state_values[cfg[0]], vector if vector_mode else project(vector)
        )
        nsid = intern_state(new_state)
        entry = configs[cfg] = (nsid, state_stops[nsid])
        return entry

    return intern_state, intern_msg, output_of, evaluate


def run_sweep(
    algorithm: Algorithm | FastPathAlgorithm,
    instances: Iterable[Instance],
    *,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    require_halt: bool = True,
    inputs: Sequence[dict[Node, Any] | None] | None = None,
    stats: SweepStats | None = None,
) -> list[ExecutionResult]:
    """Run one algorithm over a sweep of instances, superposed.

    Parameters are as in :func:`repro.execution.engine.run_many`; results are
    returned in input order and are node-for-node identical to the compiled
    engine's.  Instances are grouped by graph, so a sweep may mix graphs
    (each group still executes over the same global interning tables, which
    is where the cross-instance deduplication lives).
    The whole sweep runs in this process.  ``stats``, when given,
    accumulates a :class:`SweepStats` work account.  The other engines,
    oracles included, are selected through ``run_many``'s ``engine`` knob.
    """
    return run_batch(
        _sweep_kernel,
        "sweep",
        algorithm,
        instances,
        max_rounds=max_rounds,
        require_halt=require_halt,
        inputs=inputs,
        stats=stats,
    )


def run_batch(
    kernel,
    engine: str,
    algorithm: Algorithm | FastPathAlgorithm,
    instances: Iterable[Instance],
    *,
    max_rounds: int,
    require_halt: bool,
    inputs: Sequence[dict[Node, Any] | None] | None,
    stats: SweepStats | None,
) -> list[ExecutionResult]:
    """The batch entry point shared by the superposed and the vector kernels.

    Compiles the instances, groups them by graph and keeps one
    representative per delivery signature in each group (see
    :func:`delivery_signature_of`).  Graphs hash and compare by content (the
    hash is cached), so equal graphs share one group even when a collection
    between two compilations left them with distinct compiled topologies,
    which hold the same data.  ``kernel(fast, tables,
    interner, compiled, inputs, layout, max_rounds)`` then runs the
    representatives: ``layout`` holds one ``(executed, duplicates)`` pair of
    batch indices per group, ``interner`` is
    :func:`bind_interner`'s tuple, and the kernel returns ``(finals,
    evaluations)`` -- ``finals[index] = (state ids, rounds, halted,
    walked)`` for every representative, and how many configurations it
    sent to ``evaluate``.  The results tail materializes them, copies each
    duplicate's result from its representative and folds the work into
    ``stats``, published as ``{engine}.*`` counters under the
    ``engine.{engine}.run`` span.
    """
    compiled = [compile_instance(item) for item in instances]
    if inputs is None:
        per_inputs: list[dict[Node, Any] | None] = [None] * len(compiled)
    else:
        per_inputs = list(inputs)
        if len(per_inputs) != len(compiled):
            raise ValueError(
                f"inputs has {len(per_inputs)} entries for {len(compiled)} instances"
            )

    fast = fast_path(algorithm)
    tables = sweep_tables_for(fast)
    # With telemetry on, the registry gets the same work account the stats
    # object accumulates -- allocate one if the caller did not ask for it.
    observing = _metrics.enabled() or _tracing()
    if observing and stats is None:
        stats = SweepStats()
    before = stats_values(stats) if stats is not None else None
    states_before = len(tables.state_values)
    messages_before = len(tables.msg_values)

    groups: dict[Graph, list[int]] = {}
    for index, instance in enumerate(compiled):
        groups.setdefault(instance.graph, []).append(index)
    layout: list[tuple[list[int], list[tuple[int, int]]]] = []
    for indices in groups.values():
        signature_of = delivery_signature_of(
            fast.model, any(per_inputs[i] is not None for i in indices)
        )
        executed, duplicates = collapse_instances(
            [compiled[i] for i in indices], signature_of
        )
        layout.append(
            (
                [indices[p] for p in executed],
                [(indices[p], indices[r]) for p, r in duplicates],
            )
        )

    with _span(f"engine.{engine}.run", engine=engine) as sp:
        interner = bind_interner(fast, tables)
        finals, evaluations = kernel(
            fast, tables, interner, compiled, per_inputs, layout, max_rounds
        )
        results = _results_tail(tables, interner, compiled, layout, finals, stats)
        if stats is not None:
            stats.instances += len(compiled)
            stats.evaluations += evaluations
            stats.distinct_states += len(tables.state_values) - states_before
            stats.distinct_messages += len(tables.msg_values) - messages_before
            if observing:
                publish_stats(engine, stats, before, sp)
    if require_halt:
        for index, result in enumerate(results):
            if not result.halted:
                raise ExecutionError(
                    f"{fast.inner.name} did not halt on {compiled[index].graph!r} "
                    f"within {max_rounds} rounds"
                )
    return results


def _results_tail(
    tables: SweepTables,
    interner: tuple,
    compiled: list[CompiledInstance],
    layout: list[tuple[list[int], list[tuple[int, int]]]],
    finals: dict[int, tuple[list[int], int, bool, int]],
    stats: SweepStats | None,
) -> list[ExecutionResult]:
    """Materialize a kernel's final rows as results, in input order.

    Sweeps revisit the same handful of final configurations over and over,
    so each topology group materializes the result dictionaries once per
    distinct ``(halted, rounds, state row)``; duplicates copy their
    representative's result and are charged its walk.
    """
    _, _, output_of, _ = interner
    state_values = tables.state_values
    state_stops = tables.state_stops
    results: list[Any] = [None] * len(compiled)
    rounds_total = occurrences = replicated_occurrences = replicated = 0
    for executed, duplicates in layout:
        nodes = compiled[executed[0]].topology.nodes
        memo: dict[tuple, tuple[dict, dict]] = {}
        for index in executed:
            row, rounds, halted, walked = finals[index]
            rounds_total += rounds
            occurrences += walked
            key = (halted, rounds, tuple(row))
            memoized = memo.get(key)
            if memoized is None:
                final_states = dict(zip(nodes, map(state_values.__getitem__, row)))
                if halted:
                    outputs = dict(zip(nodes, map(output_of, row)))
                else:
                    outputs = {
                        nodes[i]: output_of(sid)
                        for i, sid in enumerate(row)
                        if state_stops[sid]
                    }
                memoized = memo[key] = (outputs, final_states)
            results[index] = ExecutionResult(
                outputs=memoized[0].copy(),
                rounds=rounds,
                halted=halted,
                trace=None,
                states=memoized[1].copy(),
            )
        for index, representative in duplicates:
            original = results[representative]
            replicated_occurrences += finals[representative][3]
            results[index] = ExecutionResult(
                outputs=original.outputs.copy(),
                rounds=original.rounds,
                halted=original.halted,
                trace=None,
                states=original.states.copy(),
            )
        replicated += len(duplicates)
    if stats is not None:
        stats.executed += len(finals)
        stats.replicated += replicated
        stats.rounds += rounds_total
        stats.occurrences += occurrences
        stats.replicated_occurrences += replicated_occurrences
    return results


def _sweep_kernel(fast, tables, interner, compiled, per_inputs, layout, max_rounds):
    """The superposed kernel: each topology group through :func:`_sweep_group`."""
    finals: dict[int, tuple[list[int], int, bool, int]] = {}
    evaluations = 0
    for executed, _ in layout:
        evaluations += _sweep_group(
            fast,
            tables,
            interner,
            [compiled[i] for i in executed],
            executed,
            max_rounds,
            [per_inputs[i] for i in executed],
            finals,
        )
    return finals, evaluations


def _sweep_group(
    fast: FastPathAlgorithm,
    tables: SweepTables,
    interner: tuple,
    group: list[CompiledInstance],
    indices: list[int],
    max_rounds: int,
    group_inputs: list[dict[Node, Any] | None],
    finals: dict[int, tuple[list[int], int, bool, int]],
) -> int:
    """Execute one shared-topology group's representatives superposed.

    Instances run through the round loop one after another, but entirely in
    the sweep's dense id space: all per-round work is integer table lookups
    unless a configuration (or state, or send row) is genuinely new, in which
    case the algorithm is consulted once and the answer interned for every
    later occurrence -- in this instance, the rest of the sweep, and any
    later sweep sharing the tables.  Records each instance's final row in
    ``finals`` (see :func:`run_batch`) and returns the evaluation count.
    """
    inner = fast.inner
    topology = group[0].topology
    nodes = topology.nodes
    n = len(nodes)
    num_ports = topology.num_ports
    degrees = topology.degrees
    offsets = topology.offsets
    broadcast = inner.model.send is SendMode.BROADCAST
    receive = inner.model.receive
    vector_mode = receive is ReceiveMode.VECTOR
    set_mode = receive is ReceiveMode.SET
    send = inner.send
    broadcast_rule = inner.broadcast
    intern_state, intern_msg, _, evaluate = interner

    state_values = tables.state_values
    state_stops = tables.state_stops
    send_rows = tables.send_rows
    configs_get = tables.configs.get
    rows_get = send_rows.get

    # The shared initial configuration (inputs may specialize it per instance).
    initial_rows = tables.initial_rows
    init_row: list[int] = []
    for i in range(n):
        sid = initial_rows.get(degrees[i])
        if sid is None:
            sid = initial_rows[degrees[i]] = intern_state(
                inner.initial_state(degrees[i])
            )
        init_row.append(sid)
    init_active = [i for i in range(n) if not state_stops[init_row[i]]]
    m0_rows = {d: (0,) * d for d in set(degrees)}

    # When every node emits one buffer entry of uniform shape -- broadcast
    # mode, or port-addressed sending on a regular topology -- the send phase
    # collapses to one C-level rebuild of the output buffer from a
    # state_id-indexed row table (stopped states map to m0 rows, so halted
    # nodes park m0 implicitly).  The table is a dict whose ``__missing__``
    # computes a state's row on its first appearance in a rebuild, so ``mu``
    # is only ever consulted for states that actually send at this shape --
    # states interned by other-degree groups sharing the tables are never
    # touched.  One table per shape key ("b" for broadcast, the degree for
    # port-addressed), shared across groups and sweeps via
    # ``tables.rebuild_rows``.
    regular = len(m0_rows) == 1 and n > 0
    rebuild_send = broadcast or regular
    uniform_degree = degrees[0] if regular else 0
    if rebuild_send:
        shape_key = "b" if broadcast else uniform_degree
        row_of = tables.rebuild_rows.get(shape_key)
        if row_of is None:
            if broadcast:
                row_of = _LazyRowTable(
                    lambda sid: 0
                    if state_stops[sid]
                    else intern_msg(broadcast_rule(state_values[sid]))
                )
            else:
                m0_row = m0_rows[uniform_degree]
                row_of = _LazyRowTable(
                    lambda sid: m0_row
                    if state_stops[sid]
                    else tuple(
                        intern_msg(send(state_values[sid], q + 1))
                        for q in range(uniform_degree)
                    )
                )
            tables.rebuild_rows[shape_key] = row_of
        row_of_get = row_of.__getitem__
    else:
        row_of_get = None

    evaluations = 0
    for position, instance in enumerate(group):
        item_inputs = group_inputs[position]
        if item_inputs is None:
            state_row = list(init_row)
            active = list(init_active)
        else:
            state_row = [
                intern_state(
                    inner.initial_state_with_input(degrees[i], item_inputs.get(nodes[i]))
                )
                for i in range(n)
            ]
            active = [i for i in range(n) if not state_stops[state_row[i]]]
        getters = instance.node_getters if broadcast else instance.port_getters
        out = [0] * (n if broadcast else num_ports)

        rounds = 0
        walked = 0
        while active and rounds < max_rounds:
            rounds += 1
            walked += len(active)

            # Send phase: one interned row per distinct state, written either
            # by one C-level buffer rebuild (broadcast / regular topologies;
            # stopped states carry m0 rows, so halted nodes park m0
            # implicitly) or by per-node slice scatter (irregular degrees).
            if broadcast:
                out = list(map(row_of_get, state_row))
            elif regular:
                out = list(chain.from_iterable(map(row_of_get, state_row)))
            else:
                for i in active:
                    sid = state_row[i]
                    d = degrees[i]
                    row = rows_get((sid, d))
                    if row is None:
                        state = state_values[sid]
                        row = send_rows[(sid, d)] = tuple(
                            intern_msg(send(state, q + 1)) for q in range(d)
                        )
                    base = offsets[i]
                    out[base : base + d] = row

            # Receive + transition phase, specialized per receive mode.  The
            # output buffer is frozen for the round (m0 parking happens after
            # every gather), exactly as in the compiled engine.
            still_active: list[int] = []
            newly_stopped: list[int] = []
            if vector_mode:
                for i in active:
                    cfg = (state_row[i], getters[i](out))
                    entry = configs_get(cfg)
                    if entry is None:
                        evaluations += 1
                        entry = evaluate(cfg)
                    state_row[i] = entry[0]
                    if entry[1]:
                        newly_stopped.append(i)
                    else:
                        still_active.append(i)
            elif set_mode:
                for i in active:
                    cfg = (state_row[i], tuple(sorted(set(getters[i](out)))))
                    entry = configs_get(cfg)
                    if entry is None:
                        evaluations += 1
                        entry = evaluate(cfg)
                    state_row[i] = entry[0]
                    if entry[1]:
                        newly_stopped.append(i)
                    else:
                        still_active.append(i)
            else:
                for i in active:
                    cfg = (state_row[i], tuple(sorted(getters[i](out))))
                    entry = configs_get(cfg)
                    if entry is None:
                        evaluations += 1
                        entry = evaluate(cfg)
                    state_row[i] = entry[0]
                    if entry[1]:
                        newly_stopped.append(i)
                    else:
                        still_active.append(i)
            if not rebuild_send:
                # The rebuild paths derive m0 parking from the state row; the
                # scatter path writes it once per newly-halted node.
                for i in newly_stopped:
                    base = offsets[i]
                    out[base : base + degrees[i]] = m0_rows[degrees[i]]
            active = still_active
        finals[indices[position]] = (state_row, rounds, not active, walked)
    return evaluations
