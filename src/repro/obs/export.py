"""Exporters: Prometheus text format and trace aggregation."""

from __future__ import annotations

import json
import math
from typing import Any, Iterable

__all__ = [
    "prometheus_text",
    "load_trace",
    "aggregate_spans",
    "format_span_table",
    "format_metrics_table",
]


def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    sanitized = "".join(out)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(snapshot: dict[str, Any]) -> str:
    """Render a registry snapshot in the Prometheus text exposition format."""

    lines: list[str] = []
    for name, value in snapshot.get("counters", {}).items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, hist in snapshot.get("histograms", {}).items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for bound, cell in zip(hist["buckets"], hist["counts"]):
            cumulative += cell
            lines.append(f'{prom}_bucket{{le="{_prom_value(float(bound))}"}} {cumulative}')
        cumulative += hist["counts"][-1]
        lines.append(f'{prom}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{prom}_sum {_prom_value(hist['sum'])}")
        lines.append(f"{prom}_count {hist['count']}")
    return "\n".join(lines) + "\n"


def load_trace(path: str) -> list[dict[str, Any]]:
    """Read a JSON-lines trace file, skipping any malformed lines."""

    events: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict) and "name" in event:
                events.append(event)
    return events


def aggregate_spans(events: Iterable[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Per-span-name aggregates: count, duration stats, summed numeric attrs.

    Boolean attributes count occurrences of ``True``; non-numeric attrs are
    ignored.  Keys come back sorted by span name.
    """

    agg: dict[str, dict[str, Any]] = {}
    for event in events:
        name = event.get("name", "?")
        entry = agg.setdefault(
            name,
            {"count": 0, "total_s": 0.0, "min_s": math.inf, "max_s": 0.0, "attrs": {}},
        )
        dur = float(event.get("dur_s", 0.0))
        entry["count"] += 1
        entry["total_s"] += dur
        entry["min_s"] = min(entry["min_s"], dur)
        entry["max_s"] = max(entry["max_s"], dur)
        for key, value in (event.get("attrs") or {}).items():
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, (int, float)):
                entry["attrs"][key] = entry["attrs"].get(key, 0) + value
    for entry in agg.values():
        entry["mean_s"] = entry["total_s"] / max(entry["count"], 1)
        if entry["min_s"] is math.inf:
            entry["min_s"] = 0.0
    return {name: agg[name] for name in sorted(agg)}


def format_span_table(aggregates: dict[str, dict[str, Any]]) -> str:
    header = f"{'span':<32} {'count':>7} {'total_s':>10} {'mean_s':>10} {'max_s':>10}"
    lines = [header, "-" * len(header)]
    for name, entry in aggregates.items():
        lines.append(
            f"{name:<32} {entry['count']:>7} {entry['total_s']:>10.4f}"
            f" {entry['mean_s']:>10.6f} {entry['max_s']:>10.6f}"
        )
        attrs = entry.get("attrs") or {}
        for key in sorted(attrs):
            value = attrs[key]
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"    {key} = {rendered}")
    return "\n".join(lines)


def format_metrics_table(snapshot: dict[str, Any]) -> str:
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:<40} {counters[name]:g}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name:<40} {gauges[name]:g}")
    hists = snapshot.get("histograms", {})
    if hists:
        lines.append("histograms:")
        for name in sorted(hists):
            hist = hists[name]
            count = max(hist["count"], 1)
            lines.append(
                f"  {name:<40} count={hist['count']} sum={hist['sum']:.6g}"
                f" mean={hist['sum'] / count:.6g}"
            )
    return "\n".join(lines)
