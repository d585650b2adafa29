"""NumPy vector kernel: the superposed sweep as array scatter/gather.

The superposed sweep engine (:mod:`repro.execution.sweep`) already reduced a
whole adversarial sweep to dense integer ids -- interned states and messages,
a global ``(state, inbox) -> successor`` configuration table -- but its round
loop still walks every ``(instance, node)`` pair in Python: one dict lookup
per node-round, even when the lookup is a guaranteed hit.  On an E3/E9-shaped
sweep (thousands of numberings of one small witness graph) that is tens of
thousands of Python dict operations per round for a handful of *distinct*
configurations.

This module runs the same id-space superposition as array code over int64
lanes.  Every delivery-signature representative of a batch, across all of
the batch's topologies, lies end to end on one flat node axis and one flat
port axis: its topology's port owners and port numbers, and its instance's
delivery map, are offset by the nodes and ports laid before it.  One round
is then one batched pass over every live node of every instance:

* send: one fancy-index table lookup ``OUT = SEND[state[owner], q]``
  (``BCAST[state]`` under broadcast) -- the lazily-filled ``SEND[sid, q]``
  table plays the role of the sweep engine's rebuild rows (stopped states
  carry ``m0`` rows, so halted nodes park ``m0`` implicitly);
* gather: ``OUT[src]`` over the concatenated delivery maps of
  :class:`~repro.execution.engine.CompiledInstance`;
* scatter into one ``(nodes, max_degree)`` inbox at ``[owner, q]``
  (sentinel-padded) and canonicalize per receive mode: Multiset sorts along
  the port axis, Set sorts, masks duplicates to the sentinel and re-sorts;
* transition: the alive rows are deduplicated through packed scalar keys,
  and each *distinct* row is looked up in the sweep engine's configuration
  table under the sweep's own key -- the algorithm's ``transition`` runs
  only for configurations the wrapper has never seen, whichever engine,
  topology or degree met them first;
* walks and halting per instance are ``np.add.reduceat`` /
  ``np.logical_and.reduceat`` over its node segment; halted instances
  record their final rows and leave the flat arrays.

States, messages and configurations are interned into the *same*
:class:`~repro.execution.sweep.SweepTables` the sweep engine uses, through
its closures (:func:`repro.execution.sweep.bind_interner`), and the batch
entry point and results tail are the sweep's
(:func:`repro.execution.sweep.run_batch`), so results are node-for-node
identical, warm tables carry over between both engines and their
:class:`SweepStats` agree.  The NumPy-side mirrors (stop
flags, send tables) live in :class:`VectorTables` on the wrapper's
``vector_tables`` slot.

NumPy is an optional dependency: the module imports without it, and
:func:`run_vector` raises
:class:`~repro.engines.registry.EngineUnavailableError` (a ``ValueError``
*and* an ``ImportError``) with an install hint when it is missing.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain
from typing import Any

from repro.graphs.graph import Node
from repro.machines.algorithm import Algorithm
from repro.machines.fastpath import FastPathAlgorithm
from repro.machines.models import ReceiveMode, SendMode
from repro.execution.engine import DEFAULT_MAX_ROUNDS, ExecutionResult, Instance
from repro.execution.sweep import SweepStats, run_batch
from repro.obs import metrics as _metrics

__all__ = ["VectorTables", "run_vector", "vector_tables_for"]

#: Inbox padding value: sorts after every real message id and is never one.
_SENTINEL = 1 << 62

#: Ceiling for the scalar base-packed row keys (int64 with safety margin).
_PACK_LIMIT = 1 << 62


class VectorTables:
    """NumPy-side mirrors of the shared sweep id space.

    The authoritative interning (state/message values and ids, stop flags,
    outputs, the configuration table) stays in
    :class:`~repro.execution.sweep.SweepTables`; this class keeps the flat
    array views the kernel indexes per round:

    * ``stops`` -- per-sid stop flags as a bool array (grown in sync with
      the interned states);
    * ``send_table`` -- ``send_table[sid, q]`` is the interned id of
      ``mu(state, q + 1)``, filled lazily up to the largest degree the sid
      has actually been observed at (``send_fill_np[sid]``), so a send rule
      that indexes per-port state data is never consulted beyond its own
      shape; stopped sids carry ``m0`` rows;
    * ``bcast_table`` -- the broadcast analogue (one id per sid, ``-1``
      means unfilled).
    """

    __slots__ = ("stops", "stop_count", "send_table", "send_fill_np", "bcast_table")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.stops: Any = None
        self.stop_count: int = 0
        self.send_table: Any = None
        self.send_fill_np: Any = None
        self.bcast_table: Any = None

    def sync_stops(self, np: Any, state_stops: list[bool]) -> Any:
        """Grow the stop-flag array to cover every interned sid."""
        total = len(state_stops)
        stops = self.stops
        if stops is None or len(stops) < total:
            capacity = max(64, 2 * total)
            grown = np.zeros(capacity, dtype=bool)
            if stops is not None:
                grown[: self.stop_count] = stops[: self.stop_count]
            self.stops = stops = grown
        if self.stop_count < total:
            stops[self.stop_count : total] = state_stops[self.stop_count : total]
            self.stop_count = total
        return stops

    def ensure_send(self, np: Any, sids: int, width: int) -> Any:
        """Grow the port-addressed send table to ``(>= sids, >= width)``."""
        table = self.send_table
        if table is None or table.shape[0] < sids or table.shape[1] < width:
            rows = max(64, 2 * sids, table.shape[0] if table is not None else 0)
            cols = max(width, table.shape[1] if table is not None else 0)
            grown = np.full((rows, cols), -1, dtype=np.int64)
            if table is not None:
                grown[: table.shape[0], : table.shape[1]] = table
            self.send_table = table = grown
        fill = self.send_fill_np
        if fill is None or len(fill) < table.shape[0]:
            grown_fill = np.zeros(table.shape[0], dtype=np.int64)
            if fill is not None:
                grown_fill[: len(fill)] = fill
            self.send_fill_np = fill = grown_fill
        return table

    def ensure_bcast(self, np: Any, sids: int) -> Any:
        """Grow the broadcast send table to cover ``sids`` states."""
        table = self.bcast_table
        if table is None or len(table) < sids:
            capacity = max(64, 2 * sids)
            grown = np.full(capacity, -1, dtype=np.int64)
            if table is not None:
                grown[: len(table)] = table
            self.bcast_table = table = grown
        return table


def vector_tables_for(fast: FastPathAlgorithm) -> VectorTables:
    """The vector tables of a fast-path wrapper, created on first use."""
    tables = fast.vector_tables
    if tables is None:
        tables = VectorTables()
        fast.vector_tables = tables
    return tables


def run_vector(
    algorithm: Algorithm | FastPathAlgorithm,
    instances: Iterable[Instance],
    *,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    require_halt: bool = True,
    inputs: Sequence[dict[Node, Any] | None] | None = None,
    stats: SweepStats | None = None,
) -> list[ExecutionResult]:
    """Run one algorithm over a sweep of instances through the NumPy kernel.

    The contract is exactly :func:`repro.execution.sweep.run_sweep`'s:
    results in input order, node-for-node identical to the sweep, compiled
    and reference engines (the differential suite in
    ``tests/test_vector_engine.py`` checks all seven model classes), the
    same post-sweep ``require_halt`` behaviour and the same
    :class:`SweepStats` accounting -- both engines run through one batch
    entry point and share the wrapper's configuration table, so a batch costs
    the same transition evaluations on either.  Every instance of the batch,
    whatever its topology, runs in one flat kernel invocation, in this
    process.

    Raises :class:`~repro.engines.registry.EngineUnavailableError` when
    NumPy is not installed.
    """
    from repro.engines.registry import resolve_engine

    resolve_engine("vector", requires={"sweep"}, operation="run_vector")
    if _metrics.enabled():
        _metrics.gauge("engines.numpy_available").set(1)
    return run_batch(
        _vector_kernel,
        "vector",
        algorithm,
        instances,
        max_rounds=max_rounds,
        require_halt=require_halt,
        inputs=inputs,
        stats=stats,
    )


def _vector_kernel(fast, tables, interner, compiled, per_inputs, layout, max_rounds):
    """Run a batch's representatives as one flat array program.

    The kernel of :func:`~repro.execution.sweep.run_batch` (same arguments,
    same ``(finals, evaluations)`` result); see the module docstring for the
    layout and the round step.
    """
    from repro.engines.registry import numpy_or_none

    np = numpy_or_none()
    vtables = vector_tables_for(fast)
    intern_state, intern_msg, _, evaluate = interner
    inner = fast.inner
    broadcast = inner.model.send is SendMode.BROADCAST
    receive = inner.model.receive
    vector_mode = receive is ReceiveMode.VECTOR
    set_mode = receive is ReceiveMode.SET
    send = inner.send
    broadcast_rule = inner.broadcast
    state_values = tables.state_values
    state_stops = tables.state_stops
    msg_values = tables.msg_values
    configs_get = tables.configs.get
    initial_rows = tables.initial_rows
    int64 = np.int64

    # Lay out every representative with a live node end to end.  The others
    # halt at round 0 and never enter the segments (``reduceat`` cannot take
    # an empty one, and a zero-node graph would be one).
    finals: dict[int, tuple[list[int], int, bool, int]] = {}
    reps: list[int] = []
    states: list[int] = []
    owners, qs, srcs, degs = [], [], [], []
    sizes: list[int] = []
    port_sizes: list[int] = []
    node_base = port_base = 0
    for executed, _ in layout:
        topology = compiled[executed[0]].topology
        nodes, degrees = topology.nodes, topology.degrees
        n, ports = len(nodes), topology.num_ports
        init_row = []
        for degree in degrees:
            sid = initial_rows.get(degree)
            if sid is None:
                sid = initial_rows[degree] = intern_state(inner.initial_state(degree))
            init_row.append(sid)
        live = []
        for index in executed:
            item_inputs = per_inputs[index]
            row = init_row
            if item_inputs is not None:
                row = [
                    intern_state(
                        inner.initial_state_with_input(degrees[i], item_inputs.get(nodes[i]))
                    )
                    for i in range(n)
                ]
            if all(map(state_stops.__getitem__, row)):
                finals[index] = (list(row), 0, True, 0)
            else:
                live.append(index)
                states.extend(row)
        if not live:
            continue
        count = len(live)
        deg = np.asarray(degrees, dtype=int64)
        port_owner = np.repeat(np.arange(n, dtype=int64), deg)
        port_q = np.arange(ports, dtype=int64) - np.repeat(
            np.asarray(topology.offsets[:n], dtype=int64), deg
        )
        shift = np.arange(count, dtype=int64)
        owners.append((node_base + n * shift)[:, None] + port_owner)
        qs.append(np.tile(port_q, count))
        degs.append(np.tile(deg, count))
        maps = (compiled[i].source_nodes if broadcast else compiled[i].sources for i in live)
        source = np.fromiter(
            chain.from_iterable(chain.from_iterable(maps)), dtype=int64, count=count * ports
        )
        step, base = (n, node_base) if broadcast else (ports, port_base)
        srcs.append(source + np.repeat(base + step * shift, ports))
        reps += live
        sizes += [n] * count
        port_sizes += [ports] * count
        node_base += n * count
        port_base += ports * count
    if not reps:
        return finals, 0

    st = np.asarray(states, dtype=int64)
    owner = np.concatenate([block.reshape(-1) for block in owners])
    q = np.concatenate(qs)
    src = np.concatenate(srcs)
    deg = np.concatenate(degs)
    sizes = np.asarray(sizes, dtype=int64)
    port_sizes = np.asarray(port_sizes, dtype=int64)
    starts = np.cumsum(sizes) - sizes
    walk = np.zeros(len(reps), dtype=int64)
    maxd = int(deg.max())

    def fill_send_rows() -> None:
        """Fill the lazy send tables for every (sid, degree) pair in ``st``.

        Warm rounds reduce to one vectorized "anything unfilled?" check: the
        per-pair discovery only runs when some sid needs a wider row than it
        has.
        """
        if broadcast:
            table = vtables.ensure_bcast(np, len(state_values))
            missing = table[st] < 0
            if missing.any():
                for sid in np.unique(st[missing]).tolist():
                    table[sid] = (
                        0 if state_stops[sid] else intern_msg(broadcast_rule(state_values[sid]))
                    )
            return
        if maxd == 0:
            return
        table = vtables.ensure_send(np, len(state_values), maxd)
        fill = vtables.send_fill_np
        need = fill[st] < deg
        if not need.any():
            return
        for key in np.unique(st[need] * (maxd + 1) + deg[need]).tolist():
            sid, degree = divmod(key, maxd + 1)
            filled = int(fill[sid])
            if filled >= degree:
                continue
            if state_stops[sid]:
                table[sid, filled:degree] = 0
            else:
                value = state_values[sid]
                table[sid, filled:degree] = [
                    intern_msg(send(value, q + 1)) for q in range(filled, degree)
                ]
            fill[sid] = degree

    def record(selected, halted: bool) -> None:
        """Record the final rows of the ``selected`` segments in ``finals``."""
        flat = st.tolist()
        bounds = starts.tolist()
        lengths = sizes.tolist()
        walked = walk.tolist()
        for r in selected:
            finals[reps[r]] = (
                flat[bounds[r] : bounds[r] + lengths[r]],
                current_round,
                halted,
                walked[r],
            )

    evaluations = 0
    fastpath_rounds = 0
    sortpath_rounds = 0

    # Per-call transition map over scalar base-packed row keys: sorted keys
    # with their new sids, applied by one np.searchsorted per round.  Valid
    # only while the packing base is stable (growing message tables change
    # the encoding), so rounds that intern anything fall back to the full
    # unique-and-look-up pass and rebuild the map.
    pack_base = -1
    pack_keys: Any = None
    pack_sids: Any = None

    stops_np = vtables.sync_stops(np, state_stops)
    current_round = 0
    while reps and current_round < max_rounds:
        current_round += 1
        alive = ~stops_np[st]  # pre-transition active-node mask

        # Send, gather, scatter: stopped sids carry m0 entries, so halted
        # nodes park m0; inbox slots beyond a node's degree keep the sentinel.
        fill_send_rows()
        inbox = np.full((len(st), maxd), _SENTINEL, dtype=int64)
        if maxd:
            out = vtables.bcast_table[st] if broadcast else vtables.send_table[st[owner], q]
            inbox[owner, q] = out[src]
            if not vector_mode and maxd > 1:
                inbox.sort(axis=1)
                if set_mode:
                    dup = inbox[:, 1:] == inbox[:, :-1]
                    if dup.any():
                        inbox[:, 1:][dup] = _SENTINEL
                        inbox.sort(axis=1)

        # Transition: deduplicate the alive rows (through scalar base-packed
        # keys when the id spaces fit in int64 -- a 1-D sort, ~20x cheaper
        # than np.unique's row-wise argsort), then one configuration-table
        # lookup per distinct row under the sweep's key and one transition
        # call per configuration the wrapper has never seen.
        rows = np.concatenate((st[alive][:, None], inbox[alive]), axis=1)
        base = len(msg_values) + 1
        packable = (len(state_values) + 1) * base**maxd < _PACK_LIMIT
        successors = None
        if packable:
            packed = rows[:, 0].copy()
            for col in range(1, maxd + 1):
                slot = rows[:, col]
                packed *= base
                packed += np.where(slot == _SENTINEL, base - 1, slot)
            if base == pack_base:
                pos = np.searchsorted(pack_keys, packed)
                np.minimum(pos, len(pack_keys) - 1, out=pos)
                if (pack_keys[pos] == packed).all():
                    successors = pack_sids[pos]
        if successors is not None:
            fastpath_rounds += 1
        else:
            sortpath_rounds += 1
            if packable:
                uniq_keys, first, inverse = np.unique(
                    packed, return_index=True, return_inverse=True
                )
                uniq = rows[first]
            else:
                uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
            new_sids = np.empty(len(uniq), dtype=int64)
            for u, (sid, *inbox_ids) in enumerate(uniq.tolist()):
                cfg = (sid, tuple(mid for mid in inbox_ids if mid != _SENTINEL))
                entry = configs_get(cfg)
                if entry is None:
                    evaluations += 1
                    entry = evaluate(cfg)
                new_sids[u] = entry[0]
            successors = new_sids[inverse.reshape(-1)]
            if not packable:
                pack_base = -1
            elif base == pack_base:
                merged = np.union1d(pack_keys, uniq_keys)
                merged_sids = np.empty(len(merged), dtype=int64)
                merged_sids[np.searchsorted(merged, pack_keys)] = pack_sids
                merged_sids[np.searchsorted(merged, uniq_keys)] = new_sids
                pack_keys, pack_sids = merged, merged_sids
            else:
                pack_base = base
                pack_keys, pack_sids = uniq_keys, new_sids
        st[alive] = successors

        walk += np.add.reduceat(alive, starts, dtype=int64)
        stops_np = vtables.sync_stops(np, state_stops)
        done = np.logical_and.reduceat(stops_np[st], starts)
        if done.any():
            # Record the halted instances, then compact the flat arrays:
            # surviving nodes and ports are renumbered by cumulative sums.
            record(np.flatnonzero(done).tolist(), True)
            keep = ~done
            node_keep = np.repeat(keep, sizes)
            port_keep = np.repeat(keep, port_sizes)
            node_map = np.cumsum(node_keep) - 1
            src_map = node_map if broadcast else np.cumsum(port_keep) - 1
            src = src_map[src[port_keep]]
            owner = node_map[owner[port_keep]]
            q = q[port_keep]
            st = st[node_keep]
            deg = deg[node_keep]
            reps = [reps[r] for r in np.flatnonzero(keep).tolist()]
            sizes = sizes[keep]
            port_sizes = port_sizes[keep]
            walk = walk[keep]
            starts = np.cumsum(sizes) - sizes

    record(range(len(reps)), False)  # round budget exhausted, not halted
    if _metrics.enabled():
        # Row-dedup path split: rounds fully served by the sorted pack-key
        # probe vs. rounds that needed the np.unique sort pass.
        if fastpath_rounds:
            _metrics.counter("vector.rounds_fastpath").inc(fastpath_rounds)
        if sortpath_rounds:
            _metrics.counter("vector.rounds_sortpath").inc(sortpath_rounds)
    return finals, evaluations
