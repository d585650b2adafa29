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

import json
import os
import signal
import socket
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

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


#: The pinned manifest digest of the built-in ``smoke`` campaign.
SMOKE_DIGEST = "32aae15efaf7ad7d7110cedf39fb8b5dbbbf9312565c86bea0b892227753ffb9"

REPO = Path(__file__).resolve().parent.parent


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
        from repro.campaign import executor

        release = threading.Event()
        evaluate = executor.evaluate_scenarios

        def gated_evaluate(scenarios):
            release.wait(timeout=60)
            return evaluate(scenarios)

        monkeypatch.setattr(executor, "evaluate_scenarios", gated_evaluate)
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
        from repro.campaign import executor

        def boom(scenarios):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(executor, "evaluate_scenarios", boom)
        svc = CampaignService(str(tmp_path / "store"))
        try:
            job = svc.submit(exec_spec())
            assert svc.wait(job, timeout=60)
            status = svc.status(job)
            assert status["status"] == "failed"
            assert "engine exploded" in status["error"]
        finally:
            svc.shutdown(wait=False)

    def test_fold_failures_fail_their_jobs_and_are_counted(self, tmp_path, monkeypatch):
        from repro import obs

        def refuse(records, overwrite=False):
            raise OSError("disk full")

        obs.REGISTRY.clear()
        obs.enable()
        svc = CampaignService(str(tmp_path / "store"))
        monkeypatch.setattr(svc.store, "put_many", refuse)
        try:
            jobs = [svc.submit(exec_spec("first", [4])), svc.submit(exec_spec("second", [5]))]
            assert svc.wait(timeout=60)
            for job in jobs:
                status = svc.status(job)
                assert status["status"] == "failed"
                assert "OSError: disk full" in status["error"]
            assert svc.metrics_snapshot()["counters"]["fallback.campaign.fold"] == 2
        finally:
            svc.shutdown(wait=False)
            obs.disable()
            obs.REGISTRY.clear()

    def test_a_vanished_store_hit_fails_the_report_and_reruns_on_resubmit(self, service):
        # Store hits are read when the report is asked for, not at submit:
        # a record deleted in between surfaces as the store's KeyError.
        spec = exec_spec()
        assert service.wait(service.submit(spec), timeout=120)
        warm = service.submit(spec)
        assert service.wait(warm, timeout=120)
        assert service.status(warm)["store_hits"] == service.status(warm)["total"]
        gone = spec.expand()[0].content_hash()
        (service.store.root / "objects" / gone[:2] / f"{gone}.json").unlink()
        with pytest.raises(KeyError, match=gone):
            service.result(warm)
        again = service.submit(spec)
        assert service.wait(again, timeout=120)
        status = service.status(again)
        assert status["status"] == "done"
        assert status["executed"] == 1
        assert status["store_hits"] == status["total"] - 1
        assert service.result(again).all_match

    def test_submit_after_shutdown_is_refused(self, tmp_path):
        svc = CampaignService(str(tmp_path / "store"))
        svc.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            svc.submit(exec_spec())


#: Preamble of the worker-death scripts: every campaign worker process dies
#: (``os._exit``) on its first unit until ``heal()`` restores evaluation.
_KILL_WORKERS = """
import multiprocessing, os, sys
from concurrent.futures.process import BrokenProcessPool
from repro.campaign import CampaignService, builtin_spec, executor, run_campaign

# Forked workers inherit the patch below, whatever the default start method.
multiprocessing.set_start_method("fork")
PARENT = os.getpid()
REAL = executor.evaluate_scenarios
STORE = sys.argv[1]


def die_in_workers(scenarios):
    if os.getpid() != PARENT:
        os._exit(3)
    return REAL(scenarios)


def heal():
    executor.evaluate_scenarios = REAL


executor.evaluate_scenarios = die_in_workers
"""


def _run_with_deadline(script: str, store: Path, deadline: float = 60.0) -> list[str]:
    """Run a worker-death script in a fresh interpreter; a hang fails the test.

    The script runs in its own session, so a timeout kills its pool workers
    along with it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    code = _KILL_WORKERS + textwrap.dedent(script)
    proc = subprocess.Popen(
        [sys.executable, "-c", code, str(store)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"a dead campaign worker hung the run for {deadline:.0f}s")
    assert proc.returncode == 0, err
    return out.split()


class TestWorkerDeath:
    """A worker process that dies fails its jobs in bounded time."""

    def test_run_campaign_raises_broken_process_pool(self, tmp_path):
        out = _run_with_deadline(
            """
            try:
                run_campaign(builtin_spec("smoke"), STORE, workers=2)
            except BrokenProcessPool:
                print("broken")
            heal()
            print(run_campaign(builtin_spec("smoke"), STORE).manifest_digest)
            """,
            tmp_path / "store",
        )
        assert out == ["broken", SMOKE_DIGEST]

    def test_service_fails_the_job_and_recovers_for_the_next(self, tmp_path):
        out = _run_with_deadline(
            """
            service = CampaignService(STORE, workers=2)
            job = service.submit(builtin_spec("smoke"))
            print(service.wait(job))
            status = service.status(job)
            print(status["status"], "BrokenProcessPool" in status["error"])
            heal()
            again = service.submit(builtin_spec("smoke"))
            print(service.wait(again), service.status(again)["manifest_digest"])
            service.shutdown()
            print(run_campaign(builtin_spec("smoke"), STORE).manifest_digest)
            """,
            tmp_path / "store",
        )
        assert out == ["True", "failed", "True", "True", SMOKE_DIGEST, SMOKE_DIGEST]


class TestConcurrentClients:
    def test_overlapping_submissions_from_many_threads_execute_each_scenario_once(
        self, tmp_path
    ):
        """Client threads race the dispatch loop (workers outnumber the cores,
        the switch interval is tiny); a lost update in the in-flight
        bookkeeping would run a scenario twice or leave a job waiting."""
        specs = [exec_spec(f"race-{i}", sizes=[4 + i % 3, 5 + i % 3, 9]) for i in range(8)]
        distinct = {s.content_hash() for spec in specs for s in spec.expand()}
        interval = sys.getswitchinterval()
        svc = CampaignService(str(tmp_path / "store"), workers=3)
        try:
            sys.setswitchinterval(1e-5)
            jobs: list[str] = []
            threads = [
                threading.Thread(target=lambda spec=spec: jobs.append(svc.submit(spec)))
                for spec in specs
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert len(jobs) == len(specs)
            assert svc.wait(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            svc.shutdown(wait=False)
        statuses = [svc.status(job) for job in jobs]
        assert all(status["status"] == "done" for status in statuses), statuses
        for status in statuses:
            answered = status["executed"] + status["store_hits"] + status["inflight_hits"]
            assert answered == status["total"], status
        assert sum(status["executed"] for status in statuses) == len(distinct)


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

    def test_bad_lines_get_an_error_and_the_connection_survives(self, tmp_path):
        svc = CampaignService(str(tmp_path / "store"))
        server = CampaignServiceServer(svc)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(server.address, timeout=30) as sock:
                stream = sock.makefile("rwb")

                def ask(line: str) -> dict:
                    stream.write(line.encode("utf-8") + b"\n")
                    stream.flush()
                    return json.loads(stream.readline())

                assert ask("42") == {"ok": False, "error": "bad request: expected a JSON object"}
                assert ask('{"cmd": "ping"}') == {"ok": True, "pong": True}
                for command in ("cancel", "report"):
                    reply = ask(json.dumps({"cmd": command}))
                    assert reply["ok"] is False
                    assert "needs a 'job' field" in reply["error"], reply
                assert ask('["ping"]')["ok"] is False
                assert ask('{"cmd": "ping"}') == {"ok": True, "pong": True}
                stream.close()
        finally:
            server.shutdown()
            server.server_close()
            svc.shutdown(wait=False)

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
