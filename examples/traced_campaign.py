"""A campaign run under full telemetry: metrics, span trace, exporters.

This is the programmatic face of ``python -m repro.campaign run ...
--metrics --trace``: enable the process-wide metrics registry and a
JSON-lines span trace, run a sharded campaign (the counters fold back from
the worker processes via snapshot deltas), then read everything back --
the metrics table, the Prometheus exposition, and the per-span aggregate
table ``python -m repro.obs report`` renders from the trace file.

The closing assertions are the telemetry contract: the counters, the span
attributes and the campaign's own manifest must agree on how much work
happened (scenario count, records written, dedup accounting).

Run with ``python examples/traced_campaign.py`` (after ``pip install -e .``
or ``export PYTHONPATH=src``).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import obs
from repro.campaign import CampaignSpec, GraphGrid, ResultStore, run_campaign

spec = CampaignSpec(
    name="traced-survey",
    kind="execution",
    description="cycle survey under telemetry",
    graphs=[GraphGrid.of("cycle", {"n": [4, 5, 6, 7]})],
    port_strategies=["consistent", "random"],
    model_classes=["SB", "MV"],
    engines=["sweep"],
    seeds=[0],
)

with tempfile.TemporaryDirectory() as root:
    trace_file = Path(root) / "trace.jsonl"
    obs.configure_logging("info")
    obs.enable()  # metrics: a no-op boolean check everywhere until this call
    obs.configure_tracing(path=str(trace_file))

    store = ResultStore(Path(root) / "store")
    summary = run_campaign(spec, store, workers=2)
    obs.stop_tracing()  # close the sink so the file is complete

    snapshot = obs.snapshot()
    print(obs.format_metrics_table(snapshot))
    print()

    # The same snapshot, rendered for a Prometheus scrape endpoint.
    prometheus = obs.prometheus_text(snapshot)
    print("\n".join(line for line in prometheus.splitlines() if "sweep" in line))
    print()

    # The trace file, aggregated per span name -- what the CLI renders via
    # ``python -m repro.obs report <trace-file>``.
    aggregates = obs.aggregate_spans(obs.load_trace(str(trace_file)))
    print(obs.format_span_table(aggregates))

    # The telemetry contract: counters, span attrs and the manifest agree.
    counters = snapshot["counters"]
    total = len(store.read_manifest(spec.name)["scenarios"])
    assert summary.executed == total
    assert counters["campaign.scenarios.execution"] == total
    assert counters["store.sqlite.records_written"] == total == store.count_records()
    assert aggregates["campaign.run"]["attrs"]["executed"] == total
    assert aggregates["store.put_many"]["attrs"]["written"] == total

    naive = counters["sweep.occurrences"] + counters.get("sweep.replicated_occurrences", 0)
    evaluations = counters["sweep.evaluations"]
    assert naive == aggregates["engine.sweep.run"]["attrs"]["naive_occurrences"]
    print(
        f"\ntelemetry agrees with the manifest: {total} scenarios, "
        f"superposition dedup {naive / max(evaluations, 1):.1f}x"
    )
