"""Campaign subsystem: declarative scenario sweeps over the compiled engines.

A campaign turns "imagine a scenario" into a sharded, cached, resumable run:

* :class:`~repro.campaign.spec.CampaignSpec` declares a grid of axes (graph
  families with parameter ranges, port-numbering strategies, model classes or
  algorithms, formula sets, engines, seeds) and expands deterministically
  into content-hashed :class:`~repro.campaign.spec.Scenario` units;
* :class:`~repro.campaign.executor.CampaignService` is the one dispatcher:
  it cuts the scenarios a store does not hold yet into units, evaluates each
  unit as one ``concurrent.futures`` future (on worker processes or
  in-process) through the compiled batch APIs
  (:func:`repro.execution.engine.run_iter`,
  :func:`repro.logic.engine.check_many`), and persists records in a
  content-addressed :class:`~repro.campaign.store.ResultStore`, so re-invoked
  campaigns resume from the store and workers never change the manifest
  digest.  A dead worker fails the jobs it touched with
  ``BrokenProcessPool`` instead of hanging them;
* :func:`~repro.campaign.executor.run_campaign` is its one-shot client;
* :mod:`~repro.campaign.aggregate` streams records through per-axis rollup
  folds (:class:`~repro.campaign.aggregate.CampaignRollup`) into the same
  :class:`~repro.experiments.report.ExperimentResult` tables the experiment
  harness prints;
* storage is pluggable (:mod:`~repro.campaign.backends`): ``json:path``
  keeps the loose-object layout, ``sqlite:path`` is a single WAL-mode
  database safe for concurrent writers, and :func:`migrate_store` converts
  between them with digest verification;
* the same service is long-lived behind :mod:`~repro.campaign.service` --
  asynchronous submission, cross-campaign in-flight dedup, streaming
  rollups, cancellation -- served over TCP by
  ``python -m repro.campaign serve|submit|status|cancel``;
* ``python -m repro.campaign run|resume|report|list|migrate`` is the
  one-shot CLI, with built-in campaigns (:mod:`~repro.campaign.builtin`)
  re-expressing the E3 hierarchy survey and the E12 invariance sweep as
  specs.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "CampaignRollup": ".aggregate",
        "campaign_result": ".aggregate",
        "load_records": ".aggregate",
        "report_campaign": ".aggregate",
        "BACKENDS": ".backends",
        "JsonBackend": ".backends",
        "SqliteBackend": ".backends",
        "StoreBackend": ".backends",
        "StoreError": ".backends",
        "migrate_store": ".backends",
        "open_backend": ".backends",
        "parse_store_uri": ".backends",
        "BUILTIN_CAMPAIGNS": ".builtin",
        "builtin_spec": ".builtin",
        "CampaignRun": ".executor",
        "evaluate_scenarios": ".executor",
        "run_campaign": ".executor",
        "CampaignService": ".executor",
        "CampaignServiceServer": ".service",
        "ServiceClient": ".service",
        "ServiceError": ".executor",
        "ALGORITHMS": ".registry",
        "FORMULA_SETS": ".registry",
        "GRAPH_FAMILIES": ".registry",
        "MACHINES": ".registry",
        "MODEL_DEFAULT_ALGORITHMS": ".registry",
        "PORT_STRATEGIES": ".registry",
        "GraphFamily": ".registry",
        "MachineWorkload": ".registry",
        "build_graph": ".registry",
        "machine_workload": ".registry",
        "register_graph_family": ".registry",
        "CampaignSpec": ".spec",
        "GraphGrid": ".spec",
        "Scenario": ".spec",
        "ResultStore": ".store",
        "record_digest": ".store",
    },
)

__all__ = [
    "ALGORITHMS",
    "BACKENDS",
    "BUILTIN_CAMPAIGNS",
    "CampaignRollup",
    "CampaignRun",
    "CampaignService",
    "CampaignServiceServer",
    "CampaignSpec",
    "FORMULA_SETS",
    "GRAPH_FAMILIES",
    "GraphFamily",
    "GraphGrid",
    "JsonBackend",
    "MACHINES",
    "MachineWorkload",
    "MODEL_DEFAULT_ALGORITHMS",
    "PORT_STRATEGIES",
    "ResultStore",
    "Scenario",
    "ServiceClient",
    "ServiceError",
    "SqliteBackend",
    "StoreBackend",
    "StoreError",
    "builtin_spec",
    "build_graph",
    "campaign_result",
    "evaluate_scenarios",
    "load_records",
    "machine_workload",
    "migrate_store",
    "open_backend",
    "parse_store_uri",
    "record_digest",
    "register_graph_family",
    "report_campaign",
    "run_campaign",
]
