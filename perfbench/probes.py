"""The ledger's probes: which public calls of ``src/repro`` are timed, and as which layer.

Probes are installed from outside the program.  Each wrapper replaces the
original object at every binding a caller can reach it through: the
defining module or class, and every ``repro`` module that imported the name
with ``from ... import``.  Modules imported after installation get their
probes when they load.  :func:`install` returns an :class:`Installation`
whose :meth:`~Installation.restore` puts every original back.

A call that returns a generator (``run_iter``, ``get_many``) is a lazy
stream: the wrapper times each ``next`` on the stream as its own span, so a
stream consumed through ``zip`` is charged to its own engine however the
streams interleave.

:func:`layer_metrics` turns a :func:`spanrec.ledger` result into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import sys
from dataclasses import dataclass
from typing import Any, Callable

#: Layer of each engine name given to ``run_iter``/``run_many``/``run_sweep``.
ENGINE_LAYERS = {
    "compiled": "engine.compiled",
    "sweep": "engine.sweep",
    "vector": "engine.vector",
    "reference": "oracle",
}

#: Benchmark modules that call the program directly, rebound like ``repro`` modules.
CALLERS = ("libwork",)

#: Layer charged with the part of a pool wait that no worker span covers.
POOL_LAYER = "executor.evaluate"

#: Every layer with a ``<layer>.self_s`` metric, in report order.
LAYERS = (
    "import",
    "spec.expand",
    "store.probe",
    "store.write",
    "store.manifest",
    "store.read",
    "materialize",
    "executor.evaluate",
    "plan",
    "rollup",
    "engine.compiled",
    "engine.sweep",
    "engine.vector",
    "oracle",
    "trace.message_size",
    "formula.emit",
    "formula.compile",
    "formula.eval.compiled",
    "formula.eval.reference",
    "logic.check",
    "logic.partition",
)

EXPERIMENT_IDS = tuple(f"E{index}" for index in range(1, 13))

#: Counters reported as per-layer metrics.
COUNTERS = (
    "spec.scenarios",
    "store.write.records",
    "materialize.graph_builds",
    "executor.shards",
    "engine.compiled.instances",
    "sweep.occurrences",
    "sweep.evaluations",
    "engine.vector.arena_calls",
    "oracle.instances",
    "trace.message_size.calls",
    "formula.dag_nodes",
    "formula.eval.calls",
)


@dataclass(frozen=True)
class Probe:
    """One timed call: ``module`` + dotted ``path`` to the function or method.

    ``layer`` is a layer name, ``None`` (raw duration only) or a function of
    the call's keyword arguments.  ``count(recorder, args, kwargs, result)``
    records counters.  ``prepare(kwargs)`` may add keyword arguments before
    the call and returns a state for ``count``.  A probe whose ``absorb``
    layers include the current span's layer opens no span of its own.
    """

    module: str
    path: str
    layer: Any
    count: Callable | None = None
    prepare: Callable | None = None
    item: str | None = None
    absorb: tuple[str, ...] = ()
    timed: bool = True


def _engine_layer(default: str) -> Callable[[dict], str]:
    def layer(kwargs: dict) -> str:
        return ENGINE_LAYERS.get(kwargs.get("engine", default), f"engine.{default}")

    return layer


def _count_len(counter: str) -> Callable:
    def count(recorder, args, kwargs, result, state=None) -> None:
        recorder.count(counter, len(result))

    return count


def _count_one(counter: str) -> Callable:
    def count(recorder, args, kwargs, result, state=None) -> None:
        recorder.count(counter)

    return count


def _count_written(recorder, args, kwargs, result, state=None) -> None:
    recorder.count("store.write.records", result)


def _count_evaluated(recorder, args, kwargs, result, state=None) -> None:
    recorder.count("executor.shards")
    recorder.count("executor.scenarios", len(args[0]))


def _count_dag(recorder, args, kwargs, result, state=None) -> None:
    from repro.logic.syntax import dag_size

    recorder.count("formula.dag_nodes", dag_size(result))


_STAT_FIELDS = ("occurrences", "replicated_occurrences", "evaluations")


def _prepare_sweep(kwargs: dict) -> Any:
    """Give a superposed ``run_sweep`` a public ``SweepStats`` to read."""
    if kwargs.get("engine", "sweep") != "sweep":
        return None
    if kwargs.get("stats") is None:
        from repro.execution.sweep import SweepStats

        kwargs["stats"] = SweepStats()
    stats = kwargs["stats"]
    return stats, [getattr(stats, field) for field in _STAT_FIELDS]


def _count_sweep(recorder, args, kwargs, result, state=None) -> None:
    if state is None:
        return
    stats, before = state
    occurrences, replicated, evaluations = (
        getattr(stats, field) - prior for field, prior in zip(_STAT_FIELDS, before)
    )
    recorder.count("sweep.occurrences", occurrences)
    recorder.count("sweep.naive_occurrences", occurrences + replicated)
    recorder.count("sweep.evaluations", evaluations)


_BACKENDS = (
    ("repro.campaign.backends.base", "StoreBackend"),
    ("repro.campaign.backends.json_backend", "JsonBackend"),
    ("repro.campaign.backends.sqlite_backend", "SqliteBackend"),
)


def _store_probes() -> list[Probe]:
    probes = []
    for module, cls in _BACKENDS:
        probes += [
            Probe(module, f"{cls}.has_many", "store.probe"),
            Probe(module, f"{cls}.put_many", "store.write", count=_count_written),
            Probe(module, f"{cls}.write_manifest", "store.manifest"),
            # The index flush inside put_many is part of the write.
            Probe(module, f"{cls}.save_index", "store.manifest", absorb=("store.write",)),
            Probe(module, f"{cls}.read_manifest", "store.read"),
            Probe(module, f"{cls}.iter_records", "store.read"),
            Probe(module, f"{cls}.get_many", "store.read"),
        ]
    return probes


_PLAN = "repro.execution.plan"
_EXECUTOR = "repro.campaign.executor"
_ENGINE = "repro.execution.engine"

PROBES: tuple[Probe, ...] = (
    Probe("repro.campaign.spec", "CampaignSpec.expand", "spec.expand",
          count=_count_len("spec.scenarios")),
    *_store_probes(),
    Probe("repro.campaign.registry", "build_graph", "materialize",
          count=_count_one("materialize.graph_builds")),
    Probe("repro.campaign.registry", "build_numbering", "materialize"),
    Probe(_EXECUTOR, "run_campaign", "executor.evaluate"),
    Probe(_EXECUTOR, "evaluate_scenarios", "executor.evaluate", count=_count_evaluated),
    *(Probe(_EXECUTOR, f"PlanCache.{method}", "plan")
      for method in ("prepare", "ref", "fold", "persist", "activate_local", "close")),
    *(Probe(_PLAN, name, "plan")
      for name in ("plan_key", "capture_plan", "install_plan", "capture_delta",
                   "fold_delta", "load_plans")),
    Probe(_PLAN, "PlanPublisher.publish", "plan"),
    Probe(_PLAN, "PlanPublisher.close", "plan"),
    Probe("repro.campaign.aggregate", "report_campaign", "rollup"),
    Probe("repro.campaign.aggregate", "campaign_result", "rollup"),
    Probe("repro.campaign.aggregate", "CampaignRollup.fold_many", "rollup"),
    Probe("repro.campaign.aggregate", "CampaignRollup.result", "rollup"),
    Probe(_ENGINE, "run_iter", _engine_layer("compiled"), item="engine.compiled.instances"),
    Probe(_ENGINE, "run_many", _engine_layer("compiled")),
    Probe(_ENGINE, "compile_instance", "engine.compiled"),
    Probe("repro.execution.runner", "run", "engine.compiled",
          count=_count_one("engine.compiled.instances")),
    Probe("repro.execution.sweep", "run_sweep", _engine_layer("sweep"),
          prepare=_prepare_sweep, count=_count_sweep),
    Probe("repro.execution.vector", "run_vector", "engine.vector"),
    Probe("repro.execution.vector", "_vector_arena", None,
          count=_count_one("engine.vector.arena_calls"), timed=False),
    Probe("repro.execution.legacy", "run_reference", "oracle",
          count=_count_one("oracle.instances")),
    Probe("repro.execution.trace", "Trace.max_message_size", "trace.message_size",
          count=_count_one("trace.message_size.calls")),
    Probe("repro.modal.algorithm_to_formula", "formula_for_machine", "formula.emit",
          count=_count_dag),
    Probe("repro.modal.formula_to_algorithm", "algorithm_for_formula", "formula.compile"),
    Probe("repro.modal.formula_to_algorithm", "CompiledFormulaAlgorithm.transition",
          "formula.eval.compiled", count=_count_one("formula.eval.calls")),
    Probe("repro.modal.formula_to_algorithm", "FormulaAlgorithm.transition",
          "formula.eval.reference", count=_count_one("formula.eval.calls")),
    Probe("repro.logic.engine", "check_many", "logic.check"),
    Probe("repro.logic.bisimulation", "bisimilarity_partition", "logic.partition"),
)


def _traced_stream(recorder, stream, name, layer, item=None, wait=False):
    """Re-yield ``stream``, timing each ``next`` (and a generator's close) as a span."""
    try:
        while True:
            frame = recorder.open(name, layer, wait)
            try:
                value = next(stream)
            except StopIteration:
                return
            finally:
                recorder.close(frame)
            if item is not None:
                recorder.count(item)
            yield value
    finally:
        if inspect.isgenerator(stream):
            frame = recorder.open(name, layer, wait)
            try:
                stream.close()
            finally:
                recorder.close(frame)


def _wrap(recorder, probe: Probe, original: Callable, name: str) -> Callable:
    layer_of = probe.layer if callable(probe.layer) else (lambda kwargs: probe.layer)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not probe.timed:
            result = original(*args, **kwargs)
            probe.count(recorder, args, kwargs, result)
            return result
        layer = layer_of(kwargs)
        if probe.absorb and recorder.current_layer() in probe.absorb:
            return original(*args, **kwargs)
        state = probe.prepare(kwargs) if probe.prepare else None
        frame = recorder.open(name, layer)
        try:
            result = original(*args, **kwargs)
            if inspect.isgenerator(result):
                item = probe.item if layer == "engine.compiled" else None
                return _traced_stream(recorder, result, name, layer, item)
            if probe.count is not None:
                probe.count(recorder, args, kwargs, result, state)
            return result
        finally:
            recorder.close(frame)

    return wrapper


class _LateModules(importlib.abc.MetaPathFinder):
    """Installs the probes of a target module that is imported later."""

    def __init__(self, installation: "Installation", names: set[str]) -> None:
        self.installation = installation
        self.names = names

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.names:
            return None
        self.names.discard(fullname)
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None or not hasattr(spec.loader, "exec_module"):
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_probe(module):
            exec_module(module)
            self.installation.probe_module(fullname)

        spec.loader.exec_module = exec_and_probe
        return spec


class Installation:
    """Installed probes; :meth:`restore` removes them."""

    def __init__(self, recorder, probes=PROBES) -> None:
        self.recorder = recorder
        self.probes = probes
        self._undo: list[tuple[Any, str, Any]] = []
        self._finder: _LateModules | None = None

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def probe_module(self, module_name: str) -> None:
        """Wrap the targets defined in an imported module and rebind them."""
        module = sys.modules[module_name]
        replaced: dict[int, Callable] = {}
        for probe in self.probes:
            if probe.module != module_name:
                continue
            *owners, attr = probe.path.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                continue  # the program no longer has this call
            original = vars(owner)[attr]
            wrapper = _wrap(self.recorder, probe, original, f"{module_name}.{probe.path}")
            self._set(owner, attr, wrapper)
            replaced[id(original)] = wrapper
        if replaced:
            self._rebind(replaced)

    def _rebind(self, replaced: dict[int, Callable]) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name.split(".")[0] == "repro" or name in CALLERS):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._set(module, attr, wrapper)

    def install(self) -> "Installation":
        pending = set()
        for module_name in dict.fromkeys(probe.module for probe in self.probes):
            if module_name in sys.modules:
                self.probe_module(module_name)
            else:
                pending.add(module_name)
        self._finder = _LateModules(self, pending)
        sys.meta_path.insert(0, self._finder)
        self._probe_experiments()
        self._probe_pool()
        return self

    def _probe_experiments(self) -> None:
        registry = sys.modules.get("repro.experiments.registry")
        if registry is None:
            return
        experiments = registry.EXPERIMENTS
        for experiment_id, runner in list(experiments.items()):
            probe = Probe(registry.__name__, experiment_id, None)
            wrapped = _wrap(self.recorder, probe, runner, f"experiment.{experiment_id}")
            self._undo.append((experiments, experiment_id, runner))
            experiments[experiment_id] = wrapped

    def _probe_pool(self) -> None:
        """Time the parent's waits on a ``multiprocessing`` pool."""
        from multiprocessing import pool

        recorder = self.recorder
        name = "executor.pool_wait"

        def waiting(method):
            @functools.wraps(method)
            def wrapper(*args, **kwargs):
                frame = recorder.open(name, POOL_LAYER, wait=True)
                try:
                    return method(*args, **kwargs)
                finally:
                    recorder.close(frame)

            return wrapper

        def waiting_stream(method):
            @functools.wraps(method)
            def wrapper(*args, **kwargs):
                results = iter(method(*args, **kwargs))
                return _traced_stream(recorder, results, name, POOL_LAYER, wait=True)

            return wrapper

        for attr in ("__init__", "terminate", "join"):
            self._set(pool.Pool, attr, waiting(vars(pool.Pool)[attr]))
        for attr in ("imap", "imap_unordered"):
            self._set(pool.Pool, attr, waiting_stream(vars(pool.Pool)[attr]))

    def restore(self) -> None:
        if self._finder is not None and self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()


def install(recorder, probes=PROBES) -> Installation:
    return Installation(recorder, probes).install()


def metric_names() -> list[str]:
    """Every per-layer metric name, in ``BENCHMARK.json`` order."""
    names = [f"{layer}.self_s" for layer in LAYERS]
    names += list(COUNTERS)
    names += ["executor.pool_wait_s", "sweep.dedup_ratio", "materialize.memo_hit_ratio"]
    names += [f"experiment.{experiment_id}.s" for experiment_id in EXPERIMENT_IDS]
    names += ["trace.coverage", "untraced.self_s", "trace.overhead_s"]
    return names


def layer_metrics(ledger: dict, wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation (see ``BENCHMARK.json``)."""
    self_time, counts, durations = ledger["self"], ledger["counts"], ledger["durations"]
    metrics = {f"{layer}.self_s": self_time.get(layer, 0.0) for layer in LAYERS}
    metrics.update({name: float(counts.get(name, 0)) for name in COUNTERS})
    metrics["executor.pool_wait_s"] = durations.get("executor.pool_wait", 0.0)
    naive = counts.get("sweep.naive_occurrences", 0)
    evaluations = counts.get("sweep.evaluations", 0)
    # SweepStats.dedup_ratio semantics; 0 when no superposed sweep ran.
    metrics["sweep.dedup_ratio"] = naive / evaluations if evaluations else float(naive)
    scenarios = counts.get("executor.scenarios", 0)
    builds = counts.get("materialize.graph_builds", 0)
    metrics["materialize.memo_hit_ratio"] = (scenarios - builds) / scenarios if scenarios else 0.0
    for experiment_id in EXPERIMENT_IDS:
        metrics[f"experiment.{experiment_id}.s"] = durations.get(f"experiment.{experiment_id}", 0.0)
    unclaimed = ledger["unclaimed"]
    metrics["untraced.self_s"] = unclaimed
    metrics["trace.coverage"] = 1.0 - unclaimed / wall if wall > 0 else 0.0
    metrics["trace.overhead_s"] = wall - untraced_wall
    return metrics
