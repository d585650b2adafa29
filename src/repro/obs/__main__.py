"""CLI: render trace-file aggregates and metric snapshots.

Usage::

    python -m repro.obs report TRACE.jsonl [--json]
    python -m repro.obs prom SNAPSHOT.json

``report`` aggregates a JSON-lines trace per span name (count, duration
stats, summed numeric attributes).  ``prom`` renders a registry snapshot
(as produced by ``repro.obs.snapshot()`` / the campaign ``metrics`` verb
with ``--json``) in Prometheus text format.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.export import (
    aggregate_spans,
    format_span_table,
    load_trace,
    prometheus_text,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.obs")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="aggregate a JSON-lines trace file")
    report.add_argument("trace", help="path to a trace file written via --trace")
    report.add_argument("--json", action="store_true", help="emit aggregates as JSON")

    prom = sub.add_parser("prom", help="render a metrics snapshot as Prometheus text")
    prom.add_argument("snapshot", help="path to a JSON metrics snapshot")

    args = parser.parse_args(argv)

    if args.command == "report":
        try:
            events = load_trace(args.trace)
        except (OSError, ValueError) as error:
            raise SystemExit(f"error: cannot read trace file {args.trace!r}: {error}") from None
        aggregates = aggregate_spans(events)
        if args.json:
            json.dump({"events": len(events), "spans": aggregates}, sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            print(f"{len(events)} events from {args.trace}")
            print(format_span_table(aggregates))
        return 0

    if args.command == "prom":
        try:
            with open(args.snapshot, "r", encoding="utf-8") as handle:
                snap = json.load(handle)
        except (OSError, ValueError) as error:
            raise SystemExit(
                f"error: cannot read snapshot file {args.snapshot!r}: {error}"
            ) from None
        if not isinstance(snap, dict):
            raise SystemExit(f"error: {args.snapshot!r} is not a metrics snapshot")
        if "metrics" in snap and isinstance(snap["metrics"], dict):
            snap = snap["metrics"]
        sys.stdout.write(prometheus_text(snap))
        return 0

    return 1


if __name__ == "__main__":
    raise SystemExit(main())
