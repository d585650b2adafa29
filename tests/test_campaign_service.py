"""Tests for the campaign work-queue service and its socket protocol.

The acceptance property is digest identity: a spec submitted to the service
-- whatever mixture of store hits, cross-campaign in-flight hits and fresh
execution answers its scenarios, over either backend -- must finish with the
byte-identical manifest digest a serial ``run_campaign`` produces.  The
dedup-accounting tests pin down *how* each scenario was answered; the
streaming tests pin the service's folded report to the batch aggregation of
the stored records.
"""

from __future__ import annotations

import threading

import pytest

from repro.campaign import (
    CampaignService,
    CampaignServiceServer,
    CampaignSpec,
    GraphGrid,
    ResultStore,
    ServiceClient,
    ServiceError,
    builtin_spec,
    campaign_result,
    load_records,
    run_campaign,
)
from repro.campaign.service import handle_request


def exec_spec(name: str = "svc", sizes: list[int] | None = None) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        kind="execution",
        graphs=[GraphGrid.of("cycle", {"n": sizes or [4, 5, 6]})],
        port_strategies=["consistent"],
        model_classes=["SB", "MB"],
        seeds=[0],
    )


def logic_spec(name: str = "svc-logic") -> CampaignSpec:
    return CampaignSpec(
        name=name,
        kind="logic",
        graphs=[GraphGrid.of("cycle", {"n": [4, 5]})],
        model_classes=["SB"],
        formula_sets=["ml-basic"],
        seeds=[0],
    )


@pytest.fixture
def service(tmp_path):
    svc = CampaignService(str(tmp_path / "store"))
    yield svc
    svc.shutdown(wait=False)


class TestServiceLifecycle:
    def test_submit_runs_to_done_with_the_serial_digest(self, service, tmp_path):
        spec = exec_spec()
        serial = run_campaign(spec, ResultStore(tmp_path / "serial"), log=None)
        job = service.submit(spec)
        assert service.wait(job, timeout=120)
        status = service.status(job)
        assert status["status"] == "done"
        assert status["executed"] == status["total"] == len(spec.expand())
        assert status["store_hits"] == status["inflight_hits"] == 0
        assert status["manifest_digest"] == serial.manifest_digest

    def test_resubmission_is_all_store_hits(self, service):
        spec = exec_spec()
        first = service.submit(spec)
        assert service.wait(first, timeout=120)
        again = service.submit(spec)
        assert service.wait(again, timeout=120)
        status = service.status(again)
        assert status["status"] == "done"
        assert status["executed"] == 0
        assert status["store_hits"] == status["total"]
        assert status["manifest_digest"] == service.status(first)["manifest_digest"]

    def test_concurrent_overlapping_jobs_dedup_in_flight(self, service):
        spec = exec_spec()
        first = service.submit(spec)
        second = service.submit(spec)  # identical scenarios, still in flight
        assert service.wait(timeout=120)
        s1, s2 = service.status(first), service.status(second)
        assert s1["status"] == s2["status"] == "done"
        assert s1["manifest_digest"] == s2["manifest_digest"]
        # Every scenario executed exactly once, for the first job; the
        # second job's scenarios were answered without re-execution.
        assert s1["executed"] == s1["total"]
        assert s2["executed"] == 0
        assert s2["store_hits"] + s2["inflight_hits"] == s2["total"]

    def test_partial_overlap_executes_only_the_new_scenarios(self, service):
        small = exec_spec("small", sizes=[4, 5])
        large = exec_spec("large", sizes=[4, 5, 6, 7])
        first = service.submit(small)
        second = service.submit(large)
        assert service.wait(timeout=120)
        s1, s2 = service.status(first), service.status(second)
        overlap = {s.content_hash() for s in small.expand()} & {
            s.content_hash() for s in large.expand()
        }
        assert s1["executed"] == s1["total"]
        assert s2["executed"] == s2["total"] - len(overlap)
        assert s2["store_hits"] + s2["inflight_hits"] == len(overlap)

    def test_scenarios_folded_during_the_store_probe_are_not_rerun(
        self, service, monkeypatch
    ):
        # The second job's store probe misses scenarios the first job still
        # has in flight; the first job folds them before the second job
        # classifies them, so they are store hits, not a second execution.
        from repro.campaign import service as service_module

        release = threading.Event()
        evaluate = service_module.evaluate_scenarios

        def gated_evaluate(scenarios):
            release.wait(timeout=60)
            return evaluate(scenarios)

        monkeypatch.setattr(service_module, "evaluate_scenarios", gated_evaluate)
        small = exec_spec("small", sizes=[4, 5])
        large = exec_spec("large", sizes=[4, 5, 6, 7])
        first = service.submit(small)

        probe = service.store.has_many
        probed: list[int] = []

        def probe_then_finish_the_first_job(hashes):
            found = probe(hashes)
            if not probed:
                probed.append(len(found))
                release.set()
                assert service.wait(first, timeout=60)
            return found

        monkeypatch.setattr(service.store, "has_many", probe_then_finish_the_first_job)
        second = service.submit(large)
        assert service.wait(timeout=120)
        overlap = {s.content_hash() for s in small.expand()} & {
            s.content_hash() for s in large.expand()
        }
        s2 = service.status(second)
        assert probed == [0]
        assert s2["status"] == "done"
        assert s2["store_hits"] == len(overlap)
        assert s2["executed"] == s2["total"] - len(overlap)

    def test_mixed_kind_jobs_coexist(self, service):
        jobs = [service.submit(exec_spec()), service.submit(logic_spec())]
        assert service.wait(timeout=120)
        for job in jobs:
            assert service.status(job)["status"] == "done"

    def test_streaming_rollups_equal_batch_rollups_exactly(self, service):
        spec = logic_spec()
        job = service.submit(spec)
        assert service.wait(job, timeout=120)
        streamed = service.result(job).to_dict()
        stored_spec, records = load_records(service.store, spec.name)
        batch = campaign_result(stored_spec, records).to_dict()
        assert streamed == batch

    def test_result_of_unfinished_job_is_an_error(self, service):
        with pytest.raises(ServiceError, match="unknown job"):
            service.status("job-999")
        job = service.submit(exec_spec())
        service.cancel(job)
        service.wait(job, timeout=120)
        with pytest.raises(ServiceError, match="results exist only"):
            service.result(job)

    def test_cancel_stops_a_job_and_spares_the_other(self, service):
        spec = exec_spec()
        keep = service.submit(spec)
        drop = service.submit(exec_spec("other", sizes=[8, 9, 10]))
        assert service.cancel(drop)
        assert service.wait(timeout=120)
        assert service.status(keep)["status"] == "done"
        dropped = service.status(drop)
        assert dropped["status"] == "cancelled"
        assert dropped["manifest_digest"] is None
        assert not service.cancel(drop)  # already terminal

    def test_no_resume_job_reexecutes_everything(self, service):
        spec = exec_spec()
        first = service.submit(spec)
        assert service.wait(first, timeout=120)
        forced = service.submit(spec, resume=False)
        assert service.wait(forced, timeout=120)
        status = service.status(forced)
        assert status["executed"] == status["total"]
        assert status["store_hits"] == status["inflight_hits"] == 0
        assert status["manifest_digest"] == service.status(first)["manifest_digest"]

    def test_shard_failure_fails_the_job_with_a_reason(self, tmp_path, monkeypatch):
        from repro.campaign import service as service_module

        def boom(scenarios):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(service_module, "evaluate_scenarios", boom)
        svc = CampaignService(str(tmp_path / "store"))
        try:
            job = svc.submit(exec_spec())
            assert svc.wait(job, timeout=60)
            status = svc.status(job)
            assert status["status"] == "failed"
            assert "engine exploded" in status["error"]
        finally:
            svc.shutdown(wait=False)

    def test_submit_after_shutdown_is_refused(self, tmp_path):
        svc = CampaignService(str(tmp_path / "store"))
        svc.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            svc.submit(exec_spec())


class TestDigestIdentityAcrossPaths:
    def test_every_path_yields_one_manifest_digest(self, tmp_path):
        """Serial, sharded, service x {json, sqlite}: one digest."""
        spec = exec_spec()
        digests = {}
        digests["json-serial"] = run_campaign(
            spec, ResultStore(tmp_path / "a"), log=None
        ).manifest_digest
        digests["json-sharded"] = run_campaign(
            spec, ResultStore(tmp_path / "b"), workers=2, log=None
        ).manifest_digest
        digests["sqlite-serial"] = run_campaign(
            spec, ResultStore(f"sqlite:{tmp_path / 'c.db'}"), log=None
        ).manifest_digest
        for scheme, uri in (
            ("json-service", str(tmp_path / "d")),
            ("sqlite-service", f"sqlite:{tmp_path / 'e.db'}"),
        ):
            svc = CampaignService(uri, workers=2)
            try:
                job = svc.submit(spec)
                assert svc.wait(job, timeout=120)
                digests[scheme] = svc.status(job)["manifest_digest"]
            finally:
                svc.shutdown(wait=False)
        assert len(set(digests.values())) == 1, digests


class TestProtocol:
    def test_handle_request_dispatch(self, service):
        assert handle_request(service, {"cmd": "ping"}) == {"ok": True, "pong": True}
        submitted = handle_request(
            service, {"cmd": "submit", "spec": exec_spec().to_dict()}
        )
        assert submitted["ok"]
        assert service.wait(submitted["job"], timeout=120)
        status = handle_request(service, {"cmd": "status"})
        assert status["ok"] and len(status["jobs"]) == 1
        assert status["records"] == service.store.count_records()

    def test_handle_request_errors_do_not_raise(self, service):
        assert handle_request(service, {"cmd": "nope"})["ok"] is False
        assert "unknown builtin" in handle_request(
            service, {"cmd": "submit", "spec": "no-such-campaign"}
        )["error"]
        assert handle_request(service, {"cmd": "status", "job": "job-7"})["ok"] is False

    def test_tcp_round_trip(self, tmp_path):
        svc = CampaignService(str(tmp_path / "store"))
        server = CampaignServiceServer(svc)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.address
            with ServiceClient(host, port) as client:
                assert client.ping()
                job = client.submit(exec_spec())
                final = client.wait(job, timeout=120)
                assert final["status"] == "done"
                report = client.report(job)
                assert all(row["matches"] for row in report["rows"])
                with pytest.raises(ServiceError, match="unknown job"):
                    client.cancel("job-404")
                overview = client.status()
                assert overview["backend"] == "json"
                assert len(overview["jobs"]) == 1
        finally:
            server.shutdown()
            server.server_close()
            svc.shutdown(wait=False)

    def test_builtin_submission_by_name(self, tmp_path):
        svc = CampaignService(str(tmp_path / "store"))
        try:
            response = handle_request(svc, {"cmd": "submit", "spec": "smoke"})
            assert response["ok"] and response["campaign"] == "smoke"
            assert svc.wait(response["job"], timeout=120)
            digest = svc.status(response["job"])["manifest_digest"]
            serial = run_campaign(
                builtin_spec("smoke"), ResultStore(tmp_path / "serial"), log=None
            )
            assert digest == serial.manifest_digest
        finally:
            svc.shutdown(wait=False)
