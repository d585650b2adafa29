"""The campaign work-queue service: submit, dedup, cancel, migrate.

This is the programmatic face of ``python -m repro.campaign serve|submit|
status|cancel``: start a :class:`~repro.campaign.CampaignService` on a
sqlite store, submit two overlapping campaigns (the second is answered
entirely by store hits and the first job's in-flight scenarios -- nothing
runs twice), cancel a third, read the streamed report, and finish by
migrating the store to the json layout with digest verification.

Run with ``python examples/campaign_service.py`` (after ``pip install -e .``
or ``export PYTHONPATH=src``).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.campaign import (
    CampaignService,
    CampaignSpec,
    GraphGrid,
    ResultStore,
    migrate_store,
    run_campaign,
)
from repro.experiments.report import format_report


def survey(name: str, sizes: list[int]) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        kind="execution",
        description=f"cycle survey {sizes}",
        graphs=[GraphGrid.of("cycle", {"n": sizes})],
        port_strategies=["consistent", "random"],
        model_classes=["SB", "MV"],
        seeds=[0, 1],
    )


with tempfile.TemporaryDirectory() as root:
    store_uri = f"sqlite:{Path(root) / 'campaigns.db'}"

    with CampaignService(store_uri, workers=2) as service:
        print(f"service on {service.store.uri} ({service.store.scheme} backend)")

        # Two overlapping submissions, back to back: every scenario the
        # second campaign shares with the first is deduplicated against the
        # store or the first job's in-flight shards.
        small = service.submit(survey("small-survey", [4, 5, 6]))
        large = service.submit(survey("large-survey", [4, 5, 6, 7, 8]))
        third = service.submit(survey("doomed-survey", [10, 11, 12]))
        service.cancel(third)

        service.wait()
        for job_id in (small, large, third):
            status = service.status(job_id)
            print(
                f"  {status['job']} {status['campaign']:15} {status['status']:10}"
                f" executed={status['executed']} store_hits={status['store_hits']}"
                f" inflight_hits={status['inflight_hits']}"
            )
        overlap = service.status(large)
        assert overlap["store_hits"] + overlap["inflight_hits"] > 0
        assert service.status(third)["status"] == "cancelled"

        # The report streamed out of the per-job rollup: no record reloads.
        print(format_report([service.result(large)]))
        service_digest = service.status(large)["manifest_digest"]

    # The service path is digest-compatible with the one-shot executor.
    serial = run_campaign(
        survey("large-survey", [4, 5, 6, 7, 8]), ResultStore(Path(root) / "serial")
    )
    assert serial.manifest_digest == service_digest
    print(f"service == serial manifest digest: {service_digest[:12]}")

    # Export, digest-verified: the store -> the loose-file json layout.
    report = migrate_store(store_uri, f"json:{Path(root) / 'json-store'}")
    print(
        f"migrated {report['records_copied']} records to {report['destination']}; "
        f"verified campaigns: {[c['campaign'] for c in report['campaigns']]}"
    )
