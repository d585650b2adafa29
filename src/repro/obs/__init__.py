"""`repro.obs` — unified telemetry: metrics registry, span tracing, exporters.

Everything here is import-light (stdlib only) so instrumented hot paths can
import it unconditionally; when neither metrics nor tracing is enabled the
per-call cost is a single module-global boolean check.
"""

from __future__ import annotations

from typing import Any

from repro.obs.export import (
    aggregate_spans,
    format_metrics_table,
    format_span_table,
    load_trace,
    prometheus_text,
)
from repro.obs.logging import configure_logging, get_logger
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    REGISTRY,
    MetricsRegistry,
    counter,
    disable,
    enable,
    enabled,
    gauge,
    histogram,
    merge_snapshot,
    reset,
    set_enabled,
    snapshot,
    snapshot_delta,
)
from repro.obs.trace import (
    clear_ring,
    configure_tracing,
    current_span_id,
    flush,
    ring_events,
    span,
    stop_tracing,
    trace_path,
    tracing_enabled,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "REGISTRY",
    "MetricsRegistry",
    "aggregate_spans",
    "clear_ring",
    "configure_logging",
    "configure_tracing",
    "counter",
    "current_span_id",
    "disable",
    "enable",
    "enabled",
    "flush",
    "format_metrics_table",
    "format_span_table",
    "gauge",
    "get_logger",
    "histogram",
    "load_trace",
    "merge_snapshot",
    "prometheus_text",
    "reset",
    "ring_events",
    "set_enabled",
    "snapshot",
    "snapshot_delta",
    "span",
    "stop_tracing",
    "trace_path",
    "tracing_enabled",
    "worker_config",
    "init_worker",
]


def worker_config() -> dict[str, Any]:
    """Serializable telemetry state to hand to pool worker initializers."""

    return {
        "metrics": enabled(),
        "trace": tracing_enabled(),
        "trace_path": trace_path(),
    }


def init_worker(config: dict[str, Any] | None) -> None:
    """Apply :func:`worker_config` output inside a freshly started worker.

    Re-opens the trace sink so a forked worker does not share the parent's
    buffered file handle.
    """

    if not config:
        return
    set_enabled(bool(config.get("metrics")))
    if config.get("trace"):
        configure_tracing(path=config.get("trace_path"))
