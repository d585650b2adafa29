"""The campaign executor: sharding, batch routing, resume.

:func:`run_campaign` is the one entry point: expand the spec, skip every
scenario whose record is already in the store (resume is the default, not a
mode), shard the rest across ``multiprocessing`` workers, and write the
manifest.  Scenario evaluation routes through the existing compiled batch
APIs rather than per-instance calls:

* execution scenarios are grouped by ``(algorithm, engine, max_rounds)`` and
  streamed through :func:`repro.execution.engine.run_iter`, so a whole group
  shares one :class:`~repro.machines.fastpath.FastPathAlgorithm` cache;
* logic scenarios batch their formula set through
  :func:`repro.logic.engine.check_many` on one compiled Kripke model per
  instance, plus a partition-refinement bisimilarity pass;
* correspondence scenarios run the Theorem 2 round trip
  (:func:`repro.modal.correspondence.machine_roundtrip_report`) -- machine
  outputs vs formula extension vs recompiled formula-algorithm -- with the
  hash-consed Table 4/5 formula built once per ``(machine, class, Delta)``
  and reused across the scenarios of a batch.

Everything a worker needs travels as a :class:`~repro.campaign.spec.Scenario`
(primitives only); graphs, algorithms, formula sets and machine formulas are
regenerated in-worker from the registries, with a per-worker memo keyed by
scenario content so successive chunks (and campaigns) of one process never
rebuild the same witness graph twice.  Records are deterministic functions of
their scenario, which is why a sharded run's manifest digest is byte-identical
to a serial run's.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.campaign import registry
from repro.campaign.spec import CampaignSpec, Scenario, content_digest
from repro.campaign.store import ResultStore
from repro.engines.registry import resolve_engine
from repro.execution.engine import run_iter
from repro.graphs.graph import Graph
from repro.graphs.ports import PortNumbering
from repro.machines.fastpath import fast_path
from repro.machines.models import ProblemClass
from repro.obs import init_worker as _obs_init_worker, worker_config as _obs_worker_config
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span

#: Node budget of the Table 4/5 construction for campaign scenarios.  High
#: enough for the library machines on the registered graph families, low
#: enough that a mis-specified sweep fails fast with a
#: :class:`~repro.modal.algorithm_to_formula.FormulaSizeError` instead of
#: hanging a worker.
CORRESPONDENCE_NODE_BUDGET = 5_000_000


def canonical_value(value: Any) -> Any:
    """Canonicalize an algorithm output / record payload for JSON.

    Unordered collections are sorted by their canonical form so that the
    record bytes never depend on hash-iteration order (which varies across
    processes); exotic objects fall back to ``repr``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((canonical_value(item) for item in value), key=repr)
    if isinstance(value, Mapping):
        return sorted(
            ([canonical_value(key), canonical_value(item)] for key, item in value.items()),
            key=repr,
        )
    try:  # FrozenMultiset and other iterables of hashables
        items = list(value)
    except TypeError:
        return repr(value)
    return sorted((canonical_value(item) for item in items), key=repr)


# --------------------------------------------------------------------------- #
# Scenario evaluation
# --------------------------------------------------------------------------- #

#: Per-worker memo of materialized registry objects, keyed by scenario
#: content (graph points, algorithm/formula-set names, machine formula
#: coordinates).  Registry objects are deterministic functions of those keys,
#: so the memo is sound across chunks, campaigns and ``run_campaign`` calls
#: within one process -- a shard no longer rebuilds the same witness graph
#: (or re-enumerates the same Table 4/5 formula) for every chunk it
#: evaluates.  Lives at module level so each multiprocessing worker owns one.
#: Each memo is bounded: on overflow it is simply cleared and
#: ``campaign.memo.evictions`` counts the clear (the campaign working sets
#: are far below the caps; the bound only protects long-lived processes
#: sweeping unbounded distinct scenarios from monotonic growth).
_WORKER_GRAPHS: dict[tuple, Graph] = {}
_WORKER_ALGORITHMS: dict[str, Any] = {}
_WORKER_FORMULA_SETS: dict[str, Any] = {}
_WORKER_MACHINE_FORMULAS: dict[tuple, Any] = {}

_WORKER_MEMO_LIMIT = 512
#: Machine formulas can be CORRESPONDENCE_NODE_BUDGET-sized; keep fewer.
_WORKER_FORMULA_LIMIT = 64
#: Reset a memoized wrapper's interning tables past this many configurations:
#: the warm-table win is for small-machine workloads whose tables plateau;
#: history-accumulating algorithms never repeat a configuration, and without
#: a bound their tables would grow for the worker's whole lifetime.
_WORKER_CONFIG_LIMIT = 200_000


def _memo_put(memo: dict, key: Any, value: Any, limit: int = _WORKER_MEMO_LIMIT) -> Any:
    if len(memo) >= limit:
        memo.clear()
        if _metrics.enabled():
            _metrics.counter("campaign.memo.evictions").inc()
    memo[key] = value
    return value


@registry.on_registry_change
def clear_worker_memo() -> None:
    """Drop the per-worker registry memo.

    Registered as a registry invalidation hook, so re-registering a family,
    algorithm, formula set or machine under an existing name takes effect on
    the next scenario instead of silently serving the memoized old object.
    """
    _WORKER_GRAPHS.clear()
    _WORKER_ALGORITHMS.clear()
    _WORKER_FORMULA_SETS.clear()
    _WORKER_MACHINE_FORMULAS.clear()


def _memo_observe(hit: bool) -> None:
    if _metrics.enabled():
        _metrics.counter("campaign.memo.hits" if hit else "campaign.memo.misses").inc()


def _materialize(scenario: Scenario) -> tuple[Graph, PortNumbering]:
    point = scenario.graph_point()
    graph = _WORKER_GRAPHS.get(point)
    _memo_observe(graph is not None)
    if graph is None:
        graph = _memo_put(
            _WORKER_GRAPHS,
            point,
            registry.build_graph(
                scenario.family, dict(scenario.graph_params), seed=scenario.seed
            ),
        )
    numbering = registry.build_numbering(scenario.port_strategy, graph, scenario.seed)
    return graph, numbering


def _worker_algorithm(name: str) -> Any:
    # The memo holds the fast-path wrapper, not the bare algorithm: the
    # wrapper owns the projection/transition caches and the sweep engine's
    # interning tables, so successive chunks (run_iter and run_sweep are
    # idempotent on an already-memoizing wrapper) reuse warm tables instead
    # of re-interning every configuration per chunk.
    algorithm = _WORKER_ALGORITHMS.get(name)
    _memo_observe(algorithm is not None)
    if algorithm is None:
        algorithm = _memo_put(
            _WORKER_ALGORITHMS,
            name,
            fast_path(registry.build_algorithm(name), memoize_transitions=True),
        )
    tables = algorithm.sweep_tables
    vtables = algorithm.vector_tables
    if (
        (tables is not None and len(tables.configs) > _WORKER_CONFIG_LIMIT)
        or (vtables is not None and vtables.config_count > _WORKER_CONFIG_LIMIT)
        or len(algorithm.transition_cache or ()) > _WORKER_CONFIG_LIMIT
        or algorithm.cache_size > _WORKER_CONFIG_LIMIT
    ):
        algorithm.clear_cache()
    return algorithm


def _worker_formula_set(name: str) -> Any:
    fset = _WORKER_FORMULA_SETS.get(name)
    _memo_observe(fset is not None)
    if fset is None:
        fset = _memo_put(_WORKER_FORMULA_SETS, name, registry.formula_set(name))
    return fset


def _execution_records(scenarios: list[Scenario]) -> dict[str, dict[str, Any]]:
    """Evaluate execution scenarios, batched per algorithm through run_iter.

    Batched engines (``"sweep"``, the builtin default, and ``"vector"``)
    execute the whole group through one kernel invocation -- one transition
    evaluation per distinct configuration across all the numberings of a
    graph point, and for ``"vector"`` one array pass per round over every
    representative of a graph family at once.
    """
    groups: dict[tuple[str, str, int], list[Scenario]] = {}
    for scenario in scenarios:
        key = (scenario.algorithm or "", scenario.engine, scenario.max_rounds)
        groups.setdefault(key, []).append(scenario)

    records: dict[str, dict[str, Any]] = {}
    for (algorithm_name, engine, max_rounds), group in sorted(groups.items()):
        algorithm = _worker_algorithm(algorithm_name)
        instances = [_materialize(scenario) for scenario in group]
        started = time.perf_counter()
        stream = run_iter(
            algorithm,
            instances,
            max_rounds=max_rounds,
            require_halt=False,
            engine=engine,
            memoize_transitions=True,
        )
        if resolve_engine(engine).batched:
            # Batched engines (sweep, vector) execute the whole group as one
            # superposed/vectorized batch: there is no per-scenario wall
            # clock to read, so the group time is apportioned evenly and the
            # record says so (``elapsed_apportioned``) -- a slow outlier is
            # invisible inside such a group by construction.  The lazy
            # compiled/reference streams below keep genuine per-scenario
            # timings.
            results = list(stream)
            apportioned = (time.perf_counter() - started) / max(len(group), 1)
        else:
            results = stream
            apportioned = None
        for scenario, (graph, _), result in zip(group, instances, results):
            if apportioned is None:
                elapsed = time.perf_counter() - started
                started = time.perf_counter()
            else:
                elapsed = apportioned
            outputs = [
                [repr(node), canonical_value(result.outputs[node])]
                for node in graph.nodes
                if node in result.outputs
            ]
            payload = {
                "nodes": graph.number_of_nodes,
                "edges": graph.number_of_edges,
                "halted": result.halted,
                "rounds": result.rounds,
                "outputs": outputs,
                "output_digest": content_digest(outputs),
            }
            records[scenario.content_hash()] = _record(
                scenario, payload, elapsed, apportioned=apportioned is not None
            )
    return records


def _logic_record(scenario: Scenario) -> dict[str, Any]:
    """Evaluate one logic scenario: check_many + bisimilarity invariance."""
    from repro.logic.bisimulation import bisimilarity_partition
    from repro.logic.engine import check_many
    from repro.modal.encoding import KripkeVariant, kripke_encoding, variant_for_class

    started = time.perf_counter()
    graph, numbering = _materialize(scenario)
    if scenario.model_class is not None:
        variant = variant_for_class(ProblemClass(scenario.model_class))
    else:
        variant = KripkeVariant.NEITHER
    encoding = kripke_encoding(graph, numbering, variant=variant)
    fset = _worker_formula_set(scenario.formula_set or "")
    formulas = fset.build(encoding.indices)
    truths = check_many(encoding, formulas, engine=scenario.engine)
    partition = bisimilarity_partition(encoding, graded=fset.graded, engine=scenario.engine)
    blocks: dict[Any, list[Any]] = {}
    for world, block in partition.items():
        blocks.setdefault(block, []).append(world)
    invariant = all(
        len({world in truth for world in block}) == 1
        for truth in truths
        for block in blocks.values()
    )
    payload = {
        "nodes": graph.number_of_nodes,
        "edges": graph.number_of_edges,
        "variant": variant.value,
        "worlds": len(encoding.worlds),
        "formulas": len(formulas),
        "graded": fset.graded,
        "extension_sizes": [len(truth) for truth in truths],
        "extension_digest": content_digest(
            [sorted(repr(world) for world in truth) for truth in truths]
        ),
        "classes": len(blocks),
        "invariant": invariant,
    }
    return _record(scenario, payload, time.perf_counter() - started)


def _correspondence_record(scenario: Scenario) -> dict[str, Any]:
    """Evaluate one correspondence scenario: the Theorem 2 round trip.

    The Table 4/5 formula *and* the three round-trip algorithms of a
    ``(machine, class, Delta, engine)`` coordinate are built once per worker
    (``_WORKER_MACHINE_FORMULAS``) -- the hash-consed pool dedups the formula
    nodes anyway, but skipping the spec enumeration and reusing the wrapped
    algorithms (with their warm memos and sweep tables, the seed oracle's
    included) is what keeps a sweep over many numberings of one graph
    family cheap.
    """
    from repro.modal.algorithm_to_formula import formula_for_machine
    from repro.modal.correspondence import machine_roundtrip_report, roundtrip_algorithms

    started = time.perf_counter()
    graph, numbering = _materialize(scenario)
    problem_class = ProblemClass(scenario.model_class)
    workload = registry.machine_workload(scenario.machine or registry.DEFAULT_MACHINE)
    delta = max(graph.max_degree(), 1)
    key = (workload.name, problem_class.value, delta, scenario.engine)
    cached = _WORKER_MACHINE_FORMULAS.get(key)
    _memo_observe(cached is not None)
    if cached is None:
        machine = workload.build(problem_class, delta)
        formula = formula_for_machine(
            machine,
            problem_class,
            workload.running_time,
            max_formula_nodes=CORRESPONDENCE_NODE_BUDGET,
        )
        algorithms = roundtrip_algorithms(machine, formula, problem_class, scenario.engine)
        cached = _memo_put(
            _WORKER_MACHINE_FORMULAS,
            key,
            (machine, formula, algorithms),
            limit=_WORKER_FORMULA_LIMIT,
        )
    machine, formula, algorithms = cached
    report = machine_roundtrip_report(
        machine,
        problem_class,
        workload.running_time,
        pairs=[(graph, numbering)],
        engine=scenario.engine,
        cross_check=scenario.engine != "reference",
        max_rounds=scenario.max_rounds,
        formula=formula,
        algorithms=algorithms,
    )
    payload = {
        "nodes": graph.number_of_nodes,
        "edges": graph.number_of_edges,
        "delta": delta,
        **report.to_dict(),
    }
    return _record(scenario, payload, time.perf_counter() - started)


def _record(
    scenario: Scenario,
    payload: dict[str, Any],
    elapsed: float,
    apportioned: bool = False,
) -> dict[str, Any]:
    if _metrics.enabled():
        _metrics.counter(f"campaign.scenarios.{scenario.kind}").inc()
        _metrics.histogram("campaign.record.elapsed_s").observe(elapsed)
    return {
        "hash": scenario.content_hash(),
        "scenario": scenario.to_dict(),
        "kind": scenario.kind,
        "result": payload,
        "elapsed_s": round(elapsed, 6),
        # True when elapsed_s is an even share of a batched group's wall
        # time rather than a per-scenario measurement.  Volatile (see
        # ``backends.base.VOLATILE_FIELDS``), like the timing it qualifies.
        "elapsed_apportioned": apportioned,
    }


def evaluate_scenarios(scenarios: list[Scenario]) -> list[dict[str, Any]]:
    """Evaluate a batch of scenarios, returning records in scenario order."""
    with _span("campaign.shard.evaluate", scenarios=len(scenarios)) as sp:
        if _metrics.enabled():
            _metrics.histogram(
                "campaign.shard.scenarios", buckets=_metrics.DEFAULT_SIZE_BUCKETS
            ).observe(len(scenarios))
        execution = [scenario for scenario in scenarios if scenario.kind == "execution"]
        records = _execution_records(execution)
        for scenario in scenarios:
            if scenario.kind == "logic":
                records[scenario.content_hash()] = _logic_record(scenario)
            elif scenario.kind == "correspondence":
                records[scenario.content_hash()] = _correspondence_record(scenario)
        sp.set(execution=len(execution))
    return [records[scenario.content_hash()] for scenario in scenarios]


def _run_shard(
    scenarios: list[Scenario],
) -> tuple[list[dict[str, Any]], dict[str, Any] | None]:
    """Multiprocessing entry point: one worker evaluates one shard.

    Returns the shard's records plus the worker's metrics delta for this
    shard (``None`` when telemetry is off), so the parent can fold worker
    counters into its own registry without double-counting anything a
    long-lived worker accumulated on earlier shards.
    """
    if not _metrics.enabled():
        return evaluate_scenarios(scenarios), None
    before = _metrics.snapshot()
    records = evaluate_scenarios(scenarios)
    return records, _metrics.snapshot_delta(before, _metrics.snapshot())


#: Serial runs persist records to the store after every chunk of this many
#: scenarios, bounding how much work a mid-run interrupt can lose.  Large
#: enough that each chunk still forms sizeable run_iter batches.
SERIAL_CHUNK = 64


# --------------------------------------------------------------------------- #
# The campaign run
# --------------------------------------------------------------------------- #


@dataclass
class CampaignRun:
    """Summary of one ``run_campaign`` invocation."""

    name: str
    total: int
    executed: int
    skipped: int
    manifest_path: Path | str
    manifest_digest: str
    elapsed_s: float

    @property
    def store_hit_rate(self) -> float:
        """Fraction of scenarios answered by the store instead of executed."""
        return self.skipped / self.total if self.total else 1.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "total": self.total,
            "executed": self.executed,
            "skipped": self.skipped,
            "store_hit_rate": round(self.store_hit_rate, 4),
            "manifest_path": str(self.manifest_path),
            "manifest_digest": self.manifest_digest,
            "elapsed_s": round(self.elapsed_s, 4),
        }


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore | str,
    workers: int | None = None,
    resume: bool = True,
    log: Callable[[str], None] | None = None,
) -> CampaignRun:
    """Run (or resume) a campaign against a result store.

    Parameters
    ----------
    spec:
        The declarative sweep to run.
    store:
        A :class:`ResultStore` or a path to open one at.
    workers:
        ``None``/0/1 evaluates the pending scenarios serially in-process; a
        larger value round-robins them into that many shards evaluated by a
        ``multiprocessing`` pool.  Sharding never changes any record or the
        manifest digest -- only the wall time.
    resume:
        When true (the default), scenarios whose content hash is already in
        the store are skipped; ``False`` forces re-evaluation and replaces
        any stored records with the fresh ones (use after changing an
        algorithm or engine behind unchanged scenario coordinates).
    log:
        Optional progress sink (the CLI passes ``print``).
    """
    if isinstance(store, (str, Path)):
        store = ResultStore(store)
    started = time.perf_counter()
    scenarios = spec.expand()
    if resume:
        # One set-at-a-time store probe instead of a has() per scenario --
        # on the sqlite backend this is a handful of indexed IN queries,
        # which is what keeps warm resume flat at 10^5 records.
        present = store.has_many(s.content_hash() for s in scenarios)
        pending = [s for s in scenarios if s.content_hash() not in present]
    else:
        pending = list(scenarios)
    skipped = len(scenarios) - len(pending)
    if log:
        log(
            f"campaign {spec.name!r}: {len(scenarios)} scenarios, "
            f"{skipped} already stored, {len(pending)} to run"
        )

    # Records are persisted incrementally -- per shard as it completes, per
    # chunk on the serial path -- so an interrupted run resumes from whatever
    # it got through, not from zero (the index heals from the objects).
    with _span(
        "campaign.run", campaign=spec.name, total=len(scenarios), skipped=skipped
    ) as run_span:
        if pending:
            if workers and workers > 1 and len(pending) > 1:
                import multiprocessing

                shard_count = min(workers, len(pending))
                shards = [pending[i::shard_count] for i in range(shard_count)]
                with multiprocessing.Pool(
                    shard_count, initializer=_obs_init_worker, initargs=(_obs_worker_config(),)
                ) as pool:
                    for shard_records, delta in pool.imap_unordered(_run_shard, shards):
                        # One index flush per completed shard: a run that dies
                        # between shards resumes with a warm index, and the
                        # object files alone still carry the resume if it dies
                        # mid-flush (the index is pure acceleration).
                        store.put_many(shard_records, overwrite=not resume)
                        _metrics.merge_snapshot(delta)
            else:
                for start in range(0, len(pending), SERIAL_CHUNK):
                    store.put_many(
                        evaluate_scenarios(pending[start : start + SERIAL_CHUNK]),
                        overwrite=not resume,
                    )
        run_span.set(executed=len(pending))

    manifest_path, manifest_digest = store.write_manifest(spec, scenarios)
    # Flush the index only after the manifest pass, which may have
    # self-healed entries (e.g. a lost index.json over a populated store) by
    # re-reading object files -- those healed digests must be persisted.
    store.save_index()
    run = CampaignRun(
        name=spec.name,
        total=len(scenarios),
        executed=len(pending),
        skipped=skipped,
        manifest_path=manifest_path,
        manifest_digest=manifest_digest,
        elapsed_s=time.perf_counter() - started,
    )
    if log:
        log(
            f"campaign {spec.name!r}: executed {run.executed}, "
            f"store hits {run.skipped}/{run.total}, "
            f"manifest {run.manifest_digest[:12]} ({run.elapsed_s:.2f}s)"
        )
    return run
