"""Command-line entry point for the campaign subsystem.

Usage::

    python -m repro.campaign list    [--store URI]
    python -m repro.campaign run     <name | spec.json> [--store URI] [--workers N] [--json]
                                     [--metrics] [--trace PATH]
    python -m repro.campaign resume  <name>             [--store URI] [--workers N] [--json]
                                     [--metrics] [--trace PATH]
    python -m repro.campaign report  <name>             [--store URI] [--json]
    python -m repro.campaign migrate <source-uri> <dest-uri> [--json]
    python -m repro.campaign serve   [--store URI] [--workers N] [--port P] [--port-file F]
                                     [--no-metrics] [--trace PATH]
    python -m repro.campaign submit  <name | spec.json> --port P [--wait] [--json]
    python -m repro.campaign status  [job] --port P [--json]
    python -m repro.campaign cancel  <job> --port P [--json]
    python -m repro.campaign metrics --port P [--json]

``--store`` names the result store: the path of its sqlite file (bare or as
``sqlite:path``), created on the first write.  ``json:path`` names the
loose-file layout that only ``migrate`` reads and writes; every other verb
refuses it, and refuses a directory, with the ``migrate`` command that
converts a json store.  ``run`` accepts a built-in campaign name or a path
to a JSON spec file; it is resumable by construction (scenarios already in
the store are skipped).  ``resume`` re-invokes a campaign whose spec is
recovered from the stored manifest (or a built-in), so an interrupted run
continues without the original spec file.  Both run the campaign as one
job of an in-process :class:`~repro.campaign.executor.CampaignService` and
print that job's rollup.  ``report`` aggregates the stored records into the
same paper-vs-measured table the experiment harness prints; ``--json`` emits
the machine-readable form CI consumes.  ``migrate`` copies a store to the json
layout or back (``migrate <file> json:<dir>``, ``migrate json:<dir> <file>``)
and verifies byte-identical manifests and matching digests before reporting
success.

``serve`` starts the long-lived work-queue service on a TCP socket (port 0
picks a free port; ``--port-file`` writes the bound address for scripts);
``submit``/``status``/``cancel`` are thin clients for it.  The service
deduplicates submissions against the store *and* against each other: a
scenario in flight for one campaign is never re-executed for another.

Telemetry (see :mod:`repro.obs`): ``--metrics`` on ``run``/``resume`` prints
a metrics table after the report (or embeds a ``metrics`` snapshot in the
``--json`` payload); ``--trace PATH`` writes a JSON-lines span trace that
``python -m repro.obs report PATH`` aggregates.  ``serve`` collects metrics
by default (``--no-metrics`` opts out); the ``metrics`` client verb fetches
the live snapshot as Prometheus text (or JSON with ``--json``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import obs
from repro.campaign.aggregate import report_campaign
from repro.campaign.backends import ResultStore, StoreError, migrate_store
from repro.campaign.builtin import BUILTIN_CAMPAIGNS, builtin_spec
from repro.campaign.spec import CampaignSpec
from repro.experiments.report import format_report

DEFAULT_STORE = "campaign-store"
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7340


def _open_store(location: str) -> ResultStore:
    try:
        return ResultStore(location)
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None


def _resolve_spec(target: str, store: ResultStore | None = None) -> CampaignSpec:
    """A spec from ``store``'s manifest, a built-in name, or a JSON file path.

    For ``resume`` (which passes its store) the stored manifest wins over a
    built-in of the same name: the user may have run a customized spec under
    that name, and resuming must continue *that* campaign, not silently swap
    in the built-in grid.
    """
    if store is not None:
        try:
            manifest = store.read_manifest(target)
        except KeyError:
            manifest = None  # no stored campaign of that name; fall through
        if manifest is not None:
            # A present-but-broken manifest is an error, never a silent
            # fall-through to a same-named built-in spec.
            try:
                return CampaignSpec.from_dict(manifest["spec"])
            except (KeyError, TypeError, ValueError) as error:
                raise SystemExit(
                    f"error: stored manifest for {target!r} is not a valid campaign: {error}"
                ) from None
    if target in BUILTIN_CAMPAIGNS:
        return builtin_spec(target)
    path = Path(target)
    if path.suffix == ".json" or path.is_file():
        try:
            return CampaignSpec.from_json(path.read_text())
        except OSError as error:
            raise SystemExit(f"error: cannot read spec file {target!r}: {error}") from None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
            raise SystemExit(f"error: {target!r} is not a valid campaign spec: {error}") from None
    known = ", ".join(sorted(BUILTIN_CAMPAIGNS))
    raise SystemExit(
        f"error: unknown campaign {target!r}; built-ins: {known} (or pass a spec.json path)"
    )


def _print_report(result, as_json: bool, run_summary=None, metrics=None) -> bool:
    if as_json:
        payload = result.to_dict()
        if run_summary is not None:
            payload["run"] = run_summary.to_dict()
        if metrics is not None:
            payload["metrics"] = metrics
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_report([result]))
        if metrics is not None:
            print()
            print(obs.format_metrics_table(metrics))
    return result.all_match


def _client(args: argparse.Namespace):
    from repro.campaign.service import ServiceClient

    host, port = args.host, args.port
    if args.port_file:
        try:
            host, port = Path(args.port_file).read_text().split(":", 1)
            port = int(port)
        except (OSError, ValueError) as error:
            raise SystemExit(f"error: cannot read port file {args.port_file!r}: {error}") from None
    try:
        return ServiceClient(host, port)
    except OSError as error:
        raise SystemExit(f"error: cannot reach service at {host}:{port}: {error}") from None


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    if "jobs" in payload:
        print(
            f"service store {payload['store']} ({payload['backend']} backend, "
            f"{payload['records']} records), {payload['workers'] or 1} worker(s)"
        )
        for job in payload["jobs"]:
            _emit(job, as_json=False)
        if not payload["jobs"]:
            print("  no jobs submitted")
        return
    line = (
        f"  {payload['job']:8} {payload['campaign']:18} {payload['status']:10} "
        f"{payload['done']}/{payload['total']} done, {payload['store_hits']} store hits, "
        f"{payload['inflight_hits']} in-flight hits, {payload['executed']} executed"
    )
    if payload.get("manifest_digest"):
        line += f", manifest {payload['manifest_digest'][:12]}"
    if payload.get("error"):
        line += f", error: {payload['error']}"
    print(line)


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect telemetry counters and print them after the report",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSON-lines span trace (see python -m repro.obs report)",
    )


def _add_client_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default=DEFAULT_HOST, help="service host")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT, help="service port")
    parser.add_argument(
        "--port-file", default=None, help="file holding host:port (written by serve)"
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Declarative scenario sweeps over the compiled engines.",
    )
    parser.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help="result store: the path of its sqlite file (or sqlite:path)",
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warning", "error"),
        help="log verbosity on stderr",
    )
    parser.add_argument(
        "--log-json", action="store_true", help="emit log lines as JSON objects"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run (or resume) a campaign")
    run_parser.add_argument("campaign", help="built-in name or path to a spec JSON file")
    run_parser.add_argument("--workers", type=int, default=None, help="shard across N workers")
    run_parser.add_argument(
        "--no-resume", action="store_true", help="re-evaluate and replace stored records"
    )
    run_parser.add_argument("--json", action="store_true", help="machine-readable report")
    _add_obs_args(run_parser)

    resume_parser = commands.add_parser(
        "resume", help="continue a campaign from its stored manifest"
    )
    resume_parser.add_argument("campaign", help="built-in name or stored campaign name")
    resume_parser.add_argument("--workers", type=int, default=None)
    resume_parser.add_argument("--json", action="store_true")
    _add_obs_args(resume_parser)

    report_parser = commands.add_parser("report", help="aggregate a stored campaign")
    report_parser.add_argument("campaign", help="stored campaign name")
    report_parser.add_argument("--json", action="store_true")

    commands.add_parser("list", help="list built-in and stored campaigns")

    migrate_parser = commands.add_parser(
        "migrate", help="copy a store to or from the json layout and verify digests"
    )
    migrate_parser.add_argument("source", help="source: a store path or json:dir")
    migrate_parser.add_argument("destination", help="destination: a store path or json:dir")
    migrate_parser.add_argument("--json", action="store_true")

    serve_parser = commands.add_parser("serve", help="start the campaign work-queue service")
    serve_parser.add_argument("--workers", type=int, default=None)
    serve_parser.add_argument("--host", default=DEFAULT_HOST)
    serve_parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="TCP port (0 picks a free port)"
    )
    serve_parser.add_argument(
        "--port-file", default=None, help="write the bound host:port to this file"
    )
    serve_parser.add_argument(
        "--no-metrics",
        action="store_true",
        help="do not collect telemetry counters (collected by default)",
    )
    serve_parser.add_argument(
        "--trace", default=None, metavar="PATH", help="write a JSON-lines span trace"
    )

    submit_parser = commands.add_parser("submit", help="submit a campaign to the service")
    submit_parser.add_argument("campaign", help="built-in name or path to a spec JSON file")
    submit_parser.add_argument(
        "--no-resume", action="store_true", help="re-evaluate and replace stored records"
    )
    submit_parser.add_argument(
        "--wait", action="store_true", help="block until the job finishes and print its report"
    )
    _add_client_args(submit_parser)

    status_parser = commands.add_parser("status", help="job (or service) status")
    status_parser.add_argument("job", nargs="?", default=None, help="job id (omit for all)")
    _add_client_args(status_parser)

    cancel_parser = commands.add_parser("cancel", help="cancel a submitted job")
    cancel_parser.add_argument("job", help="job id")
    _add_client_args(cancel_parser)

    metrics_parser = commands.add_parser(
        "metrics", help="fetch the service's live metrics snapshot"
    )
    _add_client_args(metrics_parser)

    args = parser.parse_args(argv)
    # run/resume progress lines belong to the text report on stdout; every
    # other verb (notably serve, whose stdout port line scripts parse) logs
    # to stderr.
    log_stream = sys.stdout if args.command in ("run", "resume") else None
    obs.configure_logging(args.log_level, json=args.log_json, stream=log_stream)
    log = obs.get_logger("repro.campaign.cli")

    if args.command == "migrate":
        try:
            report = migrate_store(args.source, args.destination)
        except (StoreError, ValueError, KeyError, OSError) as error:
            raise SystemExit(f"error: {error.args[0] if error.args else error}") from None
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(
                f"migrated {report['source']} -> {report['destination']}: "
                f"{report['records_copied']} records copied, "
                f"{report['records_already_present']} already present"
            )
            for entry in report["campaigns"]:
                print(f"  {entry['campaign']:16} manifest {entry['manifest_digest'][:12]} verified")
        return 0

    if args.command == "serve":
        from repro.campaign.service import CampaignService, CampaignServiceServer

        # Metrics are on by default for the long-lived service: the whole
        # point of the `metrics` verb / status snapshot is live introspection.
        if not args.no_metrics:
            obs.enable()
        if args.trace:
            obs.configure_tracing(path=args.trace)
        service = CampaignService(_open_store(args.store), workers=args.workers)
        server = CampaignServiceServer(service, host=args.host, port=args.port)
        host, port = server.address
        if args.port_file:
            Path(args.port_file).write_text(f"{host}:{port}")
        # Scripts parse this stdout line; logging goes to stderr alongside it.
        print(f"campaign service on {host}:{port}, store {service.store.uri}", flush=True)
        log.info("serving on %s:%d, store %s", host, port, service.store.uri)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
            service.shutdown(wait=False)
            obs.stop_tracing()
        return 0

    if args.command in ("submit", "status", "cancel", "metrics"):
        from repro.campaign.service import ServiceError

        with _client(args) as client:
            try:
                if args.command == "metrics":
                    payload = client.metrics()
                    if args.json:
                        print(json.dumps(payload["metrics"], indent=2, sort_keys=True))
                    else:
                        print(payload["prometheus"], end="")
                    return 0
                if args.command == "submit":
                    spec = _resolve_spec(args.campaign)
                    job_id = client.submit(spec, resume=not args.no_resume)
                    if not args.wait:
                        _emit(client.status(job_id), args.json)
                        return 0
                    status = client.wait(job_id)
                    _emit(status, args.json)
                    if status["status"] != "done":
                        return 1
                    report = client.report(job_id)
                    if args.json:
                        print(json.dumps(report, indent=2, sort_keys=True))
                    else:
                        rows = report["rows"]
                        matches = sum(1 for row in rows if row["matches"])
                        print(f"report: {matches}/{len(rows)} rows match")
                    return 0 if all(row["matches"] for row in report["rows"]) else 1
                if args.command == "status":
                    _emit(client.status(args.job), args.json)
                    return 0
                payload = client.cancel(args.job)
                _emit(payload, args.json)
                return 0 if payload.get("cancelled") else 1
            except ServiceError as error:
                raise SystemExit(f"error: {error.args[0] if error.args else error}") from None

    store = _open_store(args.store)

    if args.command == "list":
        print("built-in campaigns:")
        for name in sorted(BUILTIN_CAMPAIGNS):
            spec = builtin_spec(name)
            print(f"  {name:16} {len(spec.expand()):5d} scenarios  {spec.description}")
        stored = store.list_campaigns()
        print(
            f"stored campaigns in {store.uri} ({store.scheme} backend, "
            f"{store.count_records()} records):"
            if stored
            else f"no stored campaigns in {store.uri} ({store.scheme} backend)"
        )
        for name in stored:
            manifest = store.read_manifest(name)
            hashes = [entry["hash"] for entry in manifest["scenarios"]]
            present = len(store.has_many(hashes))
            print(
                f"  {name:16} {present:5d}/{len(hashes)} records  "
                f"digest {manifest['manifest_digest'][:12]}"
            )
        return 0

    if args.command in ("run", "resume"):
        # The dispatcher and the engines it drives load only for the verbs
        # that evaluate scenarios.
        from repro.campaign.executor import run_campaign

        if args.metrics:
            obs.enable()
        if args.trace:
            obs.configure_tracing(path=args.trace)
        spec = _resolve_spec(args.campaign, store if args.command == "resume" else None)
        try:
            summary = run_campaign(
                spec,
                store,
                workers=args.workers,
                resume=args.command == "resume" or not getattr(args, "no_resume", False),
                log=None if args.json else log.info,
            )
        except (KeyError, ValueError) as error:
            # Invalid axis values (bad strategy, model class, family...)
            # surface as clean CLI errors, not tracebacks.
            raise SystemExit(f"error: {error.args[0] if error.args else error}") from None
        finally:
            # Close the sink so the trace file is complete before report time.
            obs.stop_tracing()
        metrics = obs.snapshot() if args.metrics else None
        # The run's own rollup: no second pass over its records.
        return 0 if _print_report(
            summary.result(), args.json, run_summary=summary, metrics=metrics
        ) else 1

    # report
    try:
        result = report_campaign(store, args.campaign)
    except (KeyError, StoreError) as error:
        raise SystemExit(f"error: {error.args[0]}") from None
    return 0 if _print_report(result, args.json) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
