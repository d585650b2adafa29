"""The campaign executor: scenario evaluation and the one dispatcher.

:class:`CampaignService` is the only place that hands scenarios to
evaluation.  It expands a spec, skips every scenario whose record is already
in the store (resume is the default, not a mode), cuts the rest into units
and evaluates each unit as one ``concurrent.futures`` future -- on a process
pool with ``workers > 1``, in-process otherwise -- persisting records and
writing the manifest as units land.  :func:`run_campaign` is its one-shot
client.  Scenario evaluation routes through the existing compiled batch APIs
rather than per-instance calls:

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
  and reused across the scenarios of a batch.  The seed formula-algorithm
  does not run here: it is a test oracle, and a tier-1 test runs it over
  every scenario of the built-in ``e2-correspondence`` campaign.

Everything a worker needs travels as a :class:`~repro.campaign.spec.Scenario`
(primitives only); graphs, algorithms, formula sets and machine formulas are
regenerated in-worker from the registries, with a per-worker memo keyed by
scenario content so successive units (and campaigns) of one process never
rebuild the same witness graph twice.  Records are deterministic functions of
their scenario, which is why a run on a pool writes a manifest byte-identical
to a serial run's.
"""

from __future__ import annotations

import itertools
import logging
import queue
import threading
import time
from collections import deque
from collections.abc import Callable, Mapping
from concurrent.futures import BrokenExecutor, Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

from repro.campaign import registry
from repro.campaign.aggregate import CampaignRollup
from repro.campaign.backends import ResultStore, StoreError, open_backend
from repro.campaign.spec import CampaignSpec, Scenario, content_digest
from repro.engines.registry import resolve_engine
from repro.execution.engine import run_iter
from repro.experiments.report import ExperimentResult
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
#: so the memo is sound across units, campaigns and ``run_campaign`` calls
#: within one process -- a worker never rebuilds the same witness graph (or
#: re-enumerates the same Table 4/5 formula) for every unit it evaluates.
#: Lives at module level so each worker process owns one.
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
    # interning tables, so successive units (run_iter and run_sweep are
    # idempotent on an already-memoizing wrapper) reuse warm tables instead
    # of re-interning every configuration per unit.
    algorithm = _WORKER_ALGORITHMS.get(name)
    _memo_observe(algorithm is not None)
    if algorithm is None:
        algorithm = _memo_put(
            _WORKER_ALGORITHMS,
            name,
            fast_path(registry.build_algorithm(name), memoize_transitions=True),
        )
    tables = algorithm.sweep_tables
    if (
        (tables is not None and len(tables.configs) > _WORKER_CONFIG_LIMIT)
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

    The Table 4/5 formula *and* the two round-trip algorithms of a
    ``(machine, class, Delta, engine)`` coordinate are built once per worker
    (``_WORKER_MACHINE_FORMULAS``) -- the hash-consed pool dedups the formula
    nodes anyway, but skipping the spec enumeration and reusing the wrapped
    algorithms (with their warm memos and sweep tables) is what keeps a
    sweep over many numberings of one graph family cheap.  The seed oracle
    stays off this path (``cross_check=False``, so every record reads
    ``oracle_checked: false``); ``tests/test_modal_roundtrip.py`` runs it
    over every ``e2-correspondence`` scenario instead.
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
        algorithms = roundtrip_algorithms(
            machine, formula, problem_class, scenario.engine, cross_check=False
        )
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
        cross_check=False,
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
        # ``backends.VOLATILE_FIELDS``), like the timing it qualifies.
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
    """Pool entry point: one worker process evaluates one unit.

    Returns the unit's records plus the worker's metrics delta for this
    unit (``None`` when telemetry is off), so the parent can fold worker
    counters into its own registry without double-counting anything a
    long-lived worker accumulated on earlier units.
    """
    if not _metrics.enabled():
        return evaluate_scenarios(scenarios), None
    before = _metrics.snapshot()
    records = evaluate_scenarios(scenarios)
    return records, _metrics.snapshot_delta(before, _metrics.snapshot())


def _run_here(scenarios: list[Scenario]) -> tuple[list[dict[str, Any]], None]:
    """In-process entry point: the live registry already holds the counts."""
    return evaluate_scenarios(scenarios), None


# --------------------------------------------------------------------------- #
# The dispatcher
# --------------------------------------------------------------------------- #

#: Job lifecycle lines (submit, done, cancel) are DEBUG: every campaign run
#: is a job, and a one-shot ``run`` reports its own progress.  A failed job
#: logs a WARNING.
_log = logging.getLogger("repro.campaign.service")

#: Scenarios per work unit.  Small enough for responsive progress and
#: cancellation, large enough that the batched engines still see sizeable
#: run_iter groups.  Records are persisted once per unit, which bounds how
#: much work an interrupt can lose.
SERVICE_SHARD = 64

#: Job lifecycle states; the last three are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
_TERMINAL = ("done", "failed", "cancelled")

_STOP = object()

#: Set once the dispatch loop has logged a failed step: the first failure
#: in a process logs a WARNING, later ones only count
#: ``fallback.campaign.fold``.
_KEEPALIVE_WARNED = threading.Event()


class ServiceError(RuntimeError):
    """A service-level failure (unknown job, closed service, protocol error)."""


@dataclass
class Job:
    """One submitted campaign and its live accounting."""

    job_id: str
    spec: CampaignSpec
    resume: bool
    status: str = "queued"
    total: int = 0
    store_hits: int = 0
    inflight_hits: int = 0
    executed: int = 0
    error: str | None = None
    manifest_digest: str | None = None
    manifest_location: str | None = None
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    # Internal bookkeeping (not part of the status payload):
    scenarios: list[Scenario] = field(default_factory=list, repr=False)
    waiting: set[str] = field(default_factory=set, repr=False)
    rollup: CampaignRollup | None = field(default=None, repr=False)
    #: Store hits not yet folded into the rollup: ``result()`` reads them.
    hits: list[str] = field(default_factory=list, repr=False)
    #: The exception that failed the job (``error`` is its message).
    exception: BaseException | None = field(default=None, repr=False)

    @property
    def done_scenarios(self) -> int:
        return self.total - len(self.waiting)

    def to_dict(self) -> dict[str, Any]:
        return {
            "job": self.job_id,
            "campaign": self.spec.name,
            "kind": self.spec.kind,
            "status": self.status,
            "total": self.total,
            "done": self.done_scenarios,
            "store_hits": self.store_hits,
            "inflight_hits": self.inflight_hits,
            "executed": self.executed,
            "error": self.error,
            "manifest_digest": self.manifest_digest,
            "manifest_location": self.manifest_location,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
        }


class CampaignService:
    """The campaign dispatcher: a work queue of campaign specs over one store.

    Every campaign run goes through here; :func:`run_campaign` is a one-job
    client.  ``submit`` probes the store and cuts the pending scenarios into
    units of :data:`SERVICE_SHARD`.  One loop thread hands units out and
    folds their results: each unit is one ``concurrent.futures`` future, from
    a ``ProcessPoolExecutor`` when ``workers > 1`` and from one in-process
    thread otherwise (one unit at a time, so a failed unit is settled before
    the next starts).  Pending scenarios are deduplicated against the store
    *and* against every other in-flight job, which counts an
    ``inflight_hit`` instead of running a scenario twice.  Each job folds
    executed records into a streaming rollup as they land and reads its
    store hits only when ``result()`` asks.  A unit that raises fails every
    job waiting on it with the unit's own exception; a dead worker process
    fails them with ``BrokenProcessPool``, stored records stay, and the next
    unit gets a fresh pool.  Whatever answered its scenarios, a finished job
    writes the byte-identical manifest a serial run writes.
    """

    def __init__(self, store: ResultStore | str, workers: int | None = None) -> None:
        self.store = open_backend(store)
        self.workers = workers or 0
        self._lock = threading.RLock()
        self._turnstile = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._ids = itertools.count(1)
        #: hash -> job id whose unit will compute the record (the owner).
        self._inflight: dict[str, str] = {}
        #: hash -> job ids the landed record must fold into (owner + waiters).
        self._waiters: dict[str, list[str]] = {}
        #: (job id, unit, None) to dispatch, (job id, unit, future) when done.
        self._events: queue.Queue = queue.Queue()
        self._executor = self._new_executor()
        if self.workers > 1:
            # Fork the pool's workers now, before this service starts its
            # thread: forking a multi-threaded process can deadlock the child.
            self._executor.submit(int).result()
        # In-process, one unit is in flight at a time, so a failed unit is
        # settled before the next one starts.  A pool keeps one unit queued
        # beyond its workers, so none idles while the loop folds.
        self._evaluate = _run_shard if self.workers > 1 else _run_here
        self._width = self.workers + 1 if self.workers > 1 else 1
        self._closed = False
        self._loop = threading.Thread(
            target=self._dispatch_loop, name="campaign-dispatch", daemon=True
        )
        self._loop.start()

    def _new_executor(self) -> Any:
        if self.workers <= 1:
            return ThreadPoolExecutor(1, thread_name_prefix="campaign-unit")
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            self.workers, initializer=_obs_init_worker, initargs=(_obs_worker_config(),)
        )

    # ------------------------------------------------------------------ #
    # Client surface
    # ------------------------------------------------------------------ #

    def submit(self, spec: CampaignSpec, resume: bool = True) -> str:
        """Expand and enqueue a campaign; returns its job id immediately.

        ``resume=False`` forces re-evaluation and overwrites stored records;
        such a job also opts out of store/in-flight dedup (fresh records are
        the point), while its results still land in the shared store.
        """
        scenarios = spec.expand()  # raises ValueError on a bad spec
        with self._lock:
            if self._closed:
                raise ServiceError("service is shut down")
            job = Job(
                job_id=f"job-{next(self._ids)}",
                spec=spec,
                resume=resume,
                scenarios=scenarios,
                rollup=CampaignRollup(spec),
            )
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)

        # Classify outside the lock where possible: has_many on a big store
        # must not stall status requests.  Only the in-flight bookkeeping
        # below needs the lock.
        by_hash = {scenario.content_hash(): scenario for scenario in scenarios}
        hashes = list(by_hash)
        present: set[str] = set()
        if resume:
            with self._lock:
                was_inflight = [h for h in hashes if self._inflight.get(h)]
            present = self.store.has_many(hashes)

        to_run: list[Scenario] = []
        with self._lock:
            if resume:
                # A scenario in flight at the snapshot but no longer in flight
                # was folded (or failed) after the store probe looked: ask the
                # store again for just those, or it would run a second time.
                settled = [
                    h for h in was_inflight if h not in present and not self._inflight.get(h)
                ]
                if settled:
                    present |= self.store.has_many(settled)
            job.total = len(hashes)
            for scenario_hash in hashes:
                if scenario_hash in present:
                    job.hits.append(scenario_hash)
                    continue
                job.waiting.add(scenario_hash)
                if resume and self._inflight.get(scenario_hash):
                    self._waiters[scenario_hash].append(job.job_id)
                    job.inflight_hits += 1
                else:
                    self._inflight[scenario_hash] = job.job_id
                    self._waiters.setdefault(scenario_hash, []).append(job.job_id)
                    to_run.append(by_hash[scenario_hash])
            job.store_hits = len(job.hits)
            job.status = "running"
            if _metrics.enabled():
                _metrics.counter("service.jobs.submitted").inc()
                _metrics.counter("service.scenarios.submitted").inc(job.total)
                _metrics.counter("service.scenarios.store_hits").inc(job.store_hits)
                _metrics.counter("service.scenarios.inflight_hits").inc(job.inflight_hits)
            if not job.waiting:
                self._finalize_locked(job)
        _log.debug(
            "submit %s campaign=%s total=%d store_hits=%d inflight_hits=%d",
            job.job_id,
            spec.name,
            job.total,
            job.store_hits,
            job.inflight_hits,
        )
        for start in range(0, len(to_run), SERVICE_SHARD):
            self._events.put((job.job_id, to_run[start : start + SERVICE_SHARD], None))
        return job.job_id

    def cancel(self, job_id: str) -> bool:
        """Stop a job's remaining work; returns ``False`` if already terminal.

        Scenarios another live job is waiting on keep running; everything
        this job alone wanted is dropped at dispatch time.  Records from
        units already dispatched still land in the store.
        """
        with self._lock:
            job = self._job(job_id)
            if job.status in _TERMINAL:
                return False
            job.status = "cancelled"
            job.finished_at = time.time()
            if _metrics.enabled():
                _metrics.counter("service.jobs.cancelled").inc()
                _metrics.counter("service.scenarios.unanswered").inc(len(job.waiting))
            for scenario_hash in job.waiting:
                waiters = self._waiters.get(scenario_hash)
                if waiters and job_id in waiters:
                    waiters.remove(job_id)
            job.waiting.clear()
            self._turnstile.notify_all()
            _log.debug("cancel %s campaign=%s", job_id, job.spec.name)
            return True

    def status(self, job_id: str | None = None) -> dict[str, Any]:
        """A snapshot: one job's counters, or the whole service.

        The service-wide payload carries a live metrics snapshot
        (``"metrics"``), so a running service is introspectable over the
        same verb that reports its jobs.
        """
        with self._lock:
            if job_id is not None:
                return self._job(job_id).to_dict()
            payload = {
                "store": self.store.uri,
                "backend": self.store.scheme,
                "workers": self.workers,
                "records": None,  # filled outside the lock (store access)
                "jobs": [self._jobs[jid].to_dict() for jid in self._order],
            }
        payload["metrics"] = self.metrics_snapshot()
        return payload

    def metrics_snapshot(self) -> dict[str, Any]:
        """The process-wide metrics registry snapshot (live, never cached)."""
        return _metrics.snapshot()

    def wait(self, job_id: str | None = None, timeout: float | None = None) -> bool:
        """Block until the job (or every job) reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                if job_id is None:
                    pending = [
                        j for j in self._jobs.values() if j.status not in _TERMINAL
                    ]
                else:
                    job = self._job(job_id)
                    pending = [] if job.status in _TERMINAL else [job]
                if not pending:
                    return True
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._turnstile.wait(remaining)

    def result(self, job_id: str) -> ExperimentResult:
        """The finished job's report: its streamed rollup plus its store hits.

        The hits are read here, on the first call, so a run nobody asks a
        report of reads no records.  A hit whose record has vanished since
        the job's store probe raises the store's ``KeyError`` (or
        ``StoreError``) naming its hash; resubmitting the campaign runs that
        scenario again.
        """
        with self._lock:
            job = self._job(job_id)
            if job.status != "done":
                raise ServiceError(
                    f"job {job_id} is {job.status}; results exist only for done jobs"
                )
            hits = job.hits
        records = list(self.store.get_many(hits))
        with self._lock:
            if job.hits is hits:  # another caller may have folded them meanwhile
                job.rollup.fold_many(records)
                job.hits = []
            return job.rollup.result()

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs and tear the dispatch loop and executor down.

        ``wait=True`` drains in-flight jobs first; ``wait=False`` abandons
        undispatched units (records of units already folded stay stored).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if wait:
            self.wait()
        self._events.put(_STOP)
        self._loop.join(timeout=30)
        self._executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(wait=not any(exc_info))

    # ------------------------------------------------------------------ #
    # The dispatch loop
    # ------------------------------------------------------------------ #

    def _job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            known = ", ".join(self._order) or "(none)"
            raise ServiceError(f"unknown job {job_id!r}; jobs: {known}") from None

    def _live_jobs(self, scenario_hash: str) -> list[str]:
        return [
            jid
            for jid in self._waiters.get(scenario_hash, [])
            if self._jobs[jid].status not in _TERMINAL
        ]

    def _dispatch_loop(self) -> None:
        """Hand units to the executor, at most ``_width`` at a time, and fold them."""
        backlog: deque[tuple[str, list[Scenario]]] = deque()
        running = 0
        while True:
            event = self._events.get()
            if event is _STOP:
                return
            job_id, unit, future = event
            if future is None:
                backlog.append((job_id, unit))
            else:
                running -= 1
                self._guarded(self._settle, job_id, unit, future)
            while backlog and running < self._width:
                running += self._guarded(self._dispatch, *backlog.popleft())

    def _guarded(
        self, step: Callable[..., Any], job_id: str, unit: list[Scenario], *args: Any
    ) -> Any:
        """Run one loop step; an error fails the unit's jobs, not the loop.

        The first failure in a process logs one WARNING naming the step,
        also when every job of the unit is already terminal and so logs no
        failure of its own.
        """
        try:
            return step(job_id, unit, *args)
        except Exception as error:  # noqa: BLE001 - keep the loop alive
            if _metrics.enabled():
                _metrics.counter("fallback.campaign.fold").inc()
            if not _KEEPALIVE_WARNED.is_set():
                _KEEPALIVE_WARNED.set()
                _log.warning(
                    "dispatch step %s failed for %s, loop kept alive: %s: %s",
                    step.__name__,
                    job_id,
                    type(error).__name__,
                    error,
                )
            self._fail_unit(job_id, unit, error)
            return False

    def _dispatch(self, job_id: str, unit: list[Scenario]) -> bool:
        with self._lock:
            keep = []
            for scenario in unit:
                scenario_hash = scenario.content_hash()
                if self._live_jobs(scenario_hash):
                    keep.append(scenario)
                else:
                    # Nobody wants it any more: release ownership so a
                    # later submit re-owns it instead of waiting forever.
                    self._inflight.pop(scenario_hash, None)
                    self._waiters.pop(scenario_hash, None)
        if not keep:
            return False
        try:
            future = self._executor.submit(self._evaluate, keep)
        except BrokenExecutor:
            # A worker died under an earlier unit and broke the pool; the
            # jobs that unit touched failed with it.  Later work gets a
            # fresh pool.
            self._executor.shutdown(wait=False)
            self._executor = self._new_executor()
            future = self._executor.submit(self._evaluate, keep)
        future.add_done_callback(lambda done: self._events.put((job_id, keep, done)))
        return True

    def _settle(self, job_id: str, unit: list[Scenario], future: Future) -> None:
        error = future.exception()
        if error is not None:
            self._fail_unit(job_id, unit, error)
            return
        records, metrics_delta = future.result()
        _metrics.merge_snapshot(metrics_delta)
        self.store.put_many(records, overwrite=not self._jobs[job_id].resume)
        with self._lock:
            touched = set()
            for record in records:
                scenario_hash = record["hash"]
                owner = self._inflight.pop(scenario_hash, None)
                targets = self._waiters.pop(scenario_hash, [job_id])
                touched.update(self._fold_locked(record, targets, owner=owner))
            for jid in touched:
                job = self._jobs[jid]
                if not job.waiting and job.status == "running":
                    self._finalize_locked(job)

    def _fold_locked(
        self, record: dict[str, Any], targets: list[str], owner: str | None
    ) -> set[str]:
        scenario_hash = record["hash"]
        touched = set()
        for jid in targets:
            job = self._jobs[jid]
            if job.status in _TERMINAL or scenario_hash not in job.waiting:
                continue
            job.waiting.discard(scenario_hash)
            job.rollup.fold(record)
            if jid == owner:
                job.executed += 1
                if _metrics.enabled():
                    _metrics.counter("service.scenarios.executed").inc()
            touched.add(jid)
        return touched

    def _fail_unit(self, job_id: str, unit: list[Scenario], error: BaseException) -> None:
        message = f"shard failed: {type(error).__name__}: {error}"
        with self._lock:
            casualties = {job_id}
            for scenario in unit:
                scenario_hash = scenario.content_hash()
                casualties.update(self._waiters.pop(scenario_hash, []))
                self._inflight.pop(scenario_hash, None)
            for jid in casualties:
                job = self._jobs[jid]
                if job.status not in _TERMINAL:
                    self._fail_locked(job, message, error)

    def _fail_locked(self, job: Job, message: str, error: BaseException) -> None:
        job.status = "failed"
        job.error = message
        job.exception = error
        job.finished_at = time.time()
        if _metrics.enabled():
            _metrics.counter("service.jobs.failed").inc()
            _metrics.counter("service.scenarios.unanswered").inc(len(job.waiting))
        job.waiting.clear()
        self._turnstile.notify_all()
        _log.warning(
            "fail %s campaign=%s: %s", job.job_id, job.spec.name, message, exc_info=error
        )

    def _finalize_locked(self, job: Job) -> None:
        """Every scenario answered: write the manifest and mark the job done.

        The manifest lists entries in expansion order with digests from the
        store, so it is the same whichever path answered each scenario.
        """
        try:
            location, digest = self.store.write_manifest(job.spec, job.scenarios)
        except (KeyError, StoreError, OSError) as error:
            self._fail_locked(job, f"manifest write failed: {error}", error)
            return
        job.manifest_location = str(location)
        job.manifest_digest = digest
        job.status = "done"
        job.finished_at = time.time()
        if _metrics.enabled():
            _metrics.counter("service.jobs.done").inc()
        self._turnstile.notify_all()
        _log.debug(
            "done %s campaign=%s manifest=%s", job.job_id, job.spec.name, digest[:12]
        )


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
    #: ``result()`` builds the run's report table: executed records were
    #: folded as they landed, store hits are read on this call.
    result: Callable[[], ExperimentResult] | None = field(
        default=None, repr=False, compare=False
    )

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
    """Run (or resume) a campaign against a result store, and wait for it.

    A thin client of :class:`CampaignService`: it submits the spec as the one
    job of a private service, waits for it and summarizes it.  A failing unit
    re-raises its own exception here (``BrokenProcessPool`` when a worker
    process died); the records of units that finished before stay stored.

    Parameters
    ----------
    spec:
        The declarative sweep to run.
    store:
        A :class:`ResultStore` or a path to open one at.
    workers:
        ``None``/0/1 evaluates the pending scenarios in-process; a larger
        value evaluates them on a pool of that many worker processes.
        Neither changes any record or the manifest digest -- only the wall
        time.
    resume:
        When true (the default), scenarios whose content hash is already in
        the store are skipped; ``False`` forces re-evaluation and replaces
        any stored records with the fresh ones (use after changing an
        algorithm or engine behind unchanged scenario coordinates).
    log:
        Optional progress sink (the CLI passes ``print``).
    """
    started = time.perf_counter()
    with _span("campaign.run", campaign=spec.name) as run_span:
        with CampaignService(store, workers=workers) as service:
            job_id = service.submit(spec, resume=resume)
            job = service._job(job_id)
            if log:
                log(
                    f"campaign {spec.name!r}: {job.total} scenarios, "
                    f"{job.store_hits} already stored, "
                    f"{job.total - job.store_hits} to run"
                )
            service.wait(job_id)
        run_span.set(total=job.total, skipped=job.store_hits, executed=job.executed)
    if job.exception is not None:
        raise job.exception
    run = CampaignRun(
        name=spec.name,
        total=job.total,
        executed=job.executed,
        skipped=job.store_hits,
        manifest_path=job.manifest_location,
        manifest_digest=job.manifest_digest,
        elapsed_s=time.perf_counter() - started,
        result=partial(service.result, job_id),
    )
    if log:
        log(
            f"campaign {spec.name!r}: executed {run.executed}, "
            f"store hits {run.skipped}/{run.total}, "
            f"manifest {run.manifest_digest[:12]} ({run.elapsed_s:.2f}s)"
        )
    return run
