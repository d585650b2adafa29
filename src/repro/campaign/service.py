"""The campaign work-queue service: many clients, one deduplicating store.

:class:`CampaignService` turns the one-shot :func:`~repro.campaign.executor.
run_campaign` loop into a long-lived service:

* **asynchronous submission** -- ``submit`` expands and enqueues a campaign
  spec and returns a job id immediately; execution, store reads and rollup
  folding happen on the service's worker threads (and, with ``workers > 1``,
  a ``multiprocessing`` pool for scenario evaluation);
* **cross-campaign dedup** -- pending scenarios are deduplicated against the
  store *and* against every other in-flight campaign: a scenario already
  being computed for job A is never re-executed for job B, it is accounted as
  an ``inflight_hit`` on B and its record is folded into both jobs when the
  shard lands;
* **streaming rollups** -- each job owns a
  :class:`~repro.campaign.aggregate.CampaignRollup` that folds per-shard
  results as they complete, so a finished job's report is ready without
  reloading a single record;
* **progress and cancellation** -- ``status`` snapshots per-job counters at
  any time; ``cancel`` stops a job's un-dispatched work (scenarios another
  live job still needs keep running, and records from already-dispatched
  shards are still persisted -- the store never loses work).

Manifest digests are the contract: a job that runs to completion writes the
same byte-identical manifest a serial ``run_campaign`` of the same spec
writes, whatever mixture of store hits, in-flight hits and fresh execution
answered its scenarios.

:class:`CampaignServiceServer` / :class:`ServiceClient` expose the service
over a line-delimited-JSON TCP socket for the ``python -m repro.campaign
serve|submit|status|cancel`` CLI verbs.
"""

from __future__ import annotations

import itertools
import json
import logging
import queue
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.campaign.aggregate import CampaignRollup
from repro.campaign.backends.base import StoreError
from repro.campaign.builtin import BUILTIN_CAMPAIGNS, builtin_spec
from repro.campaign.executor import _run_shard, evaluate_scenarios
from repro.campaign.spec import CampaignSpec, Scenario
from repro.campaign.store import ResultStore
from repro.obs import init_worker as _obs_init_worker, worker_config as _obs_worker_config
from repro.obs import metrics as _metrics
from repro.obs.export import prometheus_text

_log = logging.getLogger("repro.campaign.service")

#: Scenarios per dispatched work unit.  Small enough for responsive progress
#: and cancellation, large enough that the batched engines still see
#: sizeable run_iter groups.
SERVICE_SHARD = 32

#: Job lifecycle states; the last three are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
_TERMINAL = ("done", "failed", "cancelled")

_STOP = object()


class ServiceError(RuntimeError):
    """A service-level failure (unknown job, closed service, protocol error)."""


@dataclass
class Job:
    """One submitted campaign and its live accounting."""

    job_id: str
    spec: CampaignSpec
    resume: bool
    status: str = "queued"
    total: int = 0
    store_hits: int = 0
    inflight_hits: int = 0
    executed: int = 0
    error: str | None = None
    manifest_digest: str | None = None
    manifest_location: str | None = None
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    # Internal bookkeeping (not part of the status payload):
    scenarios: list[Scenario] = field(default_factory=list, repr=False)
    by_hash: dict[str, Scenario] = field(default_factory=dict, repr=False)
    waiting: set[str] = field(default_factory=set, repr=False)
    rollup: CampaignRollup | None = field(default=None, repr=False)

    @property
    def done_scenarios(self) -> int:
        return self.total - len(self.waiting)

    def to_dict(self) -> dict[str, Any]:
        return {
            "job": self.job_id,
            "campaign": self.spec.name,
            "kind": self.spec.kind,
            "status": self.status,
            "total": self.total,
            "done": self.done_scenarios,
            "store_hits": self.store_hits,
            "inflight_hits": self.inflight_hits,
            "executed": self.executed,
            "error": self.error,
            "manifest_digest": self.manifest_digest,
            "manifest_location": self.manifest_location,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
        }


class CampaignService:
    """A long-lived work queue executing campaign specs against one store."""

    def __init__(
        self,
        store: ResultStore | str,
        workers: int | None = None,
        shard_size: int = SERVICE_SHARD,
    ) -> None:
        self.store = ResultStore(store)
        self.workers = workers or 0
        self.shard_size = max(1, shard_size)
        self._lock = threading.RLock()
        self._turnstile = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._ids = itertools.count(1)
        #: hash -> job id whose shard will compute the record (the owner).
        self._inflight: dict[str, str] = {}
        #: hash -> job ids the landed record must fold into (owner + waiters).
        self._waiters: dict[str, list[str]] = {}
        self._tasks: queue.Queue = queue.Queue()
        self._completions: queue.Queue = queue.Queue()
        self._pool = None
        if self.workers > 1:
            import multiprocessing

            self._pool = multiprocessing.Pool(
                self.workers,
                initializer=_obs_init_worker,
                initargs=(_obs_worker_config(),),
            )
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="campaign-dispatch", daemon=True
        )
        self._folder = threading.Thread(
            target=self._completion_loop, name="campaign-fold", daemon=True
        )
        self._dispatcher.start()
        self._folder.start()

    # ------------------------------------------------------------------ #
    # Client surface
    # ------------------------------------------------------------------ #

    def submit(self, spec: CampaignSpec, resume: bool = True) -> str:
        """Expand and enqueue a campaign; returns its job id immediately.

        ``resume=False`` forces re-evaluation and overwrites stored records;
        such a job also opts out of store/in-flight dedup (fresh records are
        the point), while its results still land in the shared store.
        """
        scenarios = spec.expand()  # raises ValueError on a bad spec
        with self._lock:
            if self._closed:
                raise ServiceError("service is shut down")
            job = Job(
                job_id=f"job-{next(self._ids)}",
                spec=spec,
                resume=resume,
                scenarios=scenarios,
                rollup=CampaignRollup(spec),
            )
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)

        # Classify outside the lock where possible: has_many on a big store
        # must not stall status requests.  Only the in-flight bookkeeping
        # below needs the lock.
        hashes: list[str] = []
        for scenario in scenarios:
            scenario_hash = scenario.content_hash()
            if scenario_hash not in job.by_hash:
                job.by_hash[scenario_hash] = scenario
                hashes.append(scenario_hash)
        present: set[str] = set()
        if resume:
            with self._lock:
                was_inflight = [h for h in hashes if self._inflight.get(h)]
            present = self.store.has_many(hashes)

        hit_hashes: list[str] = []
        to_run: list[Scenario] = []
        with self._lock:
            if resume:
                # A scenario in flight at the snapshot but no longer in flight
                # was folded (or failed) after the store probe looked: ask the
                # store again for just those, or it would run a second time.
                settled = [
                    h for h in was_inflight if h not in present and not self._inflight.get(h)
                ]
                if settled:
                    present |= self.store.has_many(settled)
            job.total = len(hashes)
            job.waiting = set(hashes)
            for scenario_hash in hashes:
                if scenario_hash in present:
                    hit_hashes.append(scenario_hash)
                elif resume and self._inflight.get(scenario_hash):
                    self._waiters[scenario_hash].append(job.job_id)
                    job.inflight_hits += 1
                else:
                    self._inflight[scenario_hash] = job.job_id
                    self._waiters.setdefault(scenario_hash, []).append(job.job_id)
                    to_run.append(job.by_hash[scenario_hash])
            job.store_hits = len(hit_hashes)
            job.status = "running"
            if _metrics.enabled():
                _metrics.counter("service.jobs.submitted").inc()
                _metrics.counter("service.scenarios.submitted").inc(job.total)
                _metrics.counter("service.scenarios.store_hits").inc(job.store_hits)
                _metrics.counter("service.scenarios.inflight_hits").inc(job.inflight_hits)
            if job.total == 0:
                self._finalize_locked(job)
        _log.info(
            "submit %s campaign=%s total=%d store_hits=%d inflight_hits=%d",
            job.job_id,
            spec.name,
            job.total,
            job.store_hits,
            job.inflight_hits,
        )

        if hit_hashes:
            self._completions.put(("hits", job.job_id, hit_hashes))
        for start in range(0, len(to_run), self.shard_size):
            self._tasks.put((job.job_id, to_run[start : start + self.shard_size]))
        return job.job_id

    def cancel(self, job_id: str) -> bool:
        """Stop a job's remaining work; returns ``False`` if already terminal.

        Scenarios another live job is waiting on keep running; everything
        this job alone wanted is dropped at dispatch time.  Records from
        shards already handed to the pool still land in the store.
        """
        with self._lock:
            job = self._job(job_id)
            if job.status in _TERMINAL:
                return False
            job.status = "cancelled"
            job.finished_at = time.time()
            if _metrics.enabled():
                _metrics.counter("service.jobs.cancelled").inc()
                _metrics.counter("service.scenarios.unanswered").inc(len(job.waiting))
            for scenario_hash in job.waiting:
                waiters = self._waiters.get(scenario_hash)
                if waiters and job_id in waiters:
                    waiters.remove(job_id)
            job.waiting.clear()
            self._turnstile.notify_all()
            _log.info("cancel %s campaign=%s", job_id, job.spec.name)
            return True

    def status(self, job_id: str | None = None) -> dict[str, Any]:
        """A snapshot: one job's counters, or the whole service.

        The service-wide payload carries a live metrics snapshot
        (``"metrics"``), so a running service is introspectable over the
        same verb that reports its jobs.
        """
        with self._lock:
            if job_id is not None:
                return self._job(job_id).to_dict()
            payload = {
                "store": self.store.uri,
                "backend": self.store.scheme,
                "workers": self.workers,
                "records": None,  # filled outside the lock (store access)
                "jobs": [self._jobs[jid].to_dict() for jid in self._order],
            }
        payload["metrics"] = self.metrics_snapshot()
        return payload

    def metrics_snapshot(self) -> dict[str, Any]:
        """The process-wide metrics registry snapshot (live, never cached)."""
        return _metrics.snapshot()

    def wait(self, job_id: str | None = None, timeout: float | None = None) -> bool:
        """Block until the job (or every job) reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                if job_id is None:
                    pending = [
                        j for j in self._jobs.values() if j.status not in _TERMINAL
                    ]
                else:
                    job = self._job(job_id)
                    pending = [] if job.status in _TERMINAL else [job]
                if not pending:
                    return True
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._turnstile.wait(remaining)

    def result(self, job_id: str):
        """The finished job's :class:`ExperimentResult` (streamed rollups)."""
        with self._lock:
            job = self._job(job_id)
            if job.status != "done":
                raise ServiceError(
                    f"job {job_id} is {job.status}; results exist only for done jobs"
                )
            return job.rollup.result()

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs and tear the worker threads down.

        ``wait=True`` drains in-flight jobs first; ``wait=False`` abandons
        queued work (already-persisted shards survive in the store).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if wait:
            self.wait()
        self._tasks.put(_STOP)
        self._dispatcher.join(timeout=30)
        self._completions.put(_STOP)
        self._folder.join(timeout=30)
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(wait=not any(exc_info))

    # ------------------------------------------------------------------ #
    # Worker threads
    # ------------------------------------------------------------------ #

    def _job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            known = ", ".join(self._order) or "(none)"
            raise ServiceError(f"unknown job {job_id!r}; jobs: {known}") from None

    def _live_jobs(self, scenario_hash: str) -> list[str]:
        return [
            jid
            for jid in self._waiters.get(scenario_hash, [])
            if self._jobs[jid].status not in _TERMINAL
        ]

    def _dispatch_loop(self) -> None:
        while True:
            task = self._tasks.get()
            if task is _STOP:
                return
            job_id, shard = task
            with self._lock:
                job = self._jobs[job_id]
                keep = []
                for scenario in shard:
                    scenario_hash = scenario.content_hash()
                    if self._live_jobs(scenario_hash):
                        keep.append(scenario)
                    else:
                        # Nobody wants it any more: release ownership so a
                        # later submit re-owns it instead of waiting forever.
                        self._inflight.pop(scenario_hash, None)
                        self._waiters.pop(scenario_hash, None)
            if not keep:
                continue
            if self._pool is not None:
                self._pool.apply_async(
                    _run_shard,
                    (keep,),
                    callback=lambda result, jid=job_id: self._completions.put(
                        ("records", jid, result)
                    ),
                    error_callback=lambda error, jid=job_id, batch=keep: (
                        self._completions.put(("error", jid, batch, error))
                    ),
                )
            else:
                try:
                    # In-process evaluation updates the live registry
                    # directly; only pool workers ship a delta back.
                    records = evaluate_scenarios(keep)
                except Exception as error:  # noqa: BLE001 - job-level failure
                    self._completions.put(("error", job_id, keep, error))
                else:
                    self._completions.put(("records", job_id, (records, None)))

    def _completion_loop(self) -> None:
        while True:
            item = self._completions.get()
            if item is _STOP:
                return
            kind = item[0]
            try:
                if kind == "hits":
                    self._fold_store_hits(item[1], item[2])
                elif kind == "records":
                    self._fold_shard(item[1], item[2])
                else:
                    self._fail_shard(item[1], item[2], item[3])
            except Exception as error:  # noqa: BLE001 - keep the loop alive
                with self._lock:
                    job = self._jobs.get(item[1])
                    if job is not None and job.status not in _TERMINAL:
                        self._fail_locked(job, f"{type(error).__name__}: {error}")

    def _fold_store_hits(self, job_id: str, hashes: list[str]) -> None:
        try:
            records = list(self.store.get_many(hashes))
        except (KeyError, StoreError):
            # A record vanished (or is corrupt) between has_many and the
            # read: demote the casualties to fresh execution, keep the rest.
            records, requeue = [], []
            for scenario_hash in hashes:
                try:
                    records.append(self.store.get(scenario_hash))
                except (KeyError, StoreError):
                    requeue.append(scenario_hash)
            with self._lock:
                job = self._jobs[job_id]
                rerun = []
                for scenario_hash in requeue:
                    # Mirror the demotion in the service counters: negative
                    # increments keep the registry tracking the same
                    # reclassification the per-job fields record.
                    job.store_hits -= 1
                    if _metrics.enabled():
                        _metrics.counter("service.scenarios.store_hits").inc(-1)
                    if self._inflight.get(scenario_hash):
                        self._waiters[scenario_hash].append(job_id)
                        job.inflight_hits += 1
                        if _metrics.enabled():
                            _metrics.counter("service.scenarios.inflight_hits").inc()
                    else:
                        self._inflight[scenario_hash] = job_id
                        self._waiters.setdefault(scenario_hash, []).append(job_id)
                        rerun.append(job.by_hash[scenario_hash])
            for start in range(0, len(rerun), self.shard_size):
                self._tasks.put((job_id, rerun[start : start + self.shard_size]))
        with self._lock:
            job = self._jobs[job_id]
            for record in records:
                self._fold_locked(record, [job_id], owner=None)
            if not job.waiting and job.status == "running":
                self._finalize_locked(job)

    def _fold_shard(
        self, job_id: str, shard_result: tuple[list[dict[str, Any]], dict[str, Any] | None]
    ) -> None:
        records, metrics_delta = shard_result
        _metrics.merge_snapshot(metrics_delta)
        job = self._jobs[job_id]
        self.store.put_many(records, overwrite=not job.resume)
        with self._lock:
            touched = set()
            for record in records:
                scenario_hash = record["hash"]
                owner = self._inflight.pop(scenario_hash, None)
                targets = self._waiters.pop(scenario_hash, [job_id])
                touched.update(self._fold_locked(record, targets, owner=owner))
            for jid in touched:
                job = self._jobs[jid]
                if not job.waiting and job.status == "running":
                    self._finalize_locked(job)

    def _fold_locked(
        self, record: dict[str, Any], targets: list[str], owner: str | None
    ) -> set[str]:
        scenario_hash = record["hash"]
        touched = set()
        for jid in targets:
            job = self._jobs[jid]
            if job.status in _TERMINAL or scenario_hash not in job.waiting:
                continue
            job.waiting.discard(scenario_hash)
            job.rollup.fold(record)
            if jid == owner:
                job.executed += 1
                if _metrics.enabled():
                    _metrics.counter("service.scenarios.executed").inc()
            touched.add(jid)
        return touched

    def _fail_shard(self, job_id: str, shard: list[Scenario], error: Exception) -> None:
        message = f"shard failed: {type(error).__name__}: {error}"
        with self._lock:
            casualties = {job_id}
            for scenario in shard:
                scenario_hash = scenario.content_hash()
                casualties.update(self._waiters.pop(scenario_hash, []))
                self._inflight.pop(scenario_hash, None)
            for jid in casualties:
                job = self._jobs[jid]
                if job.status not in _TERMINAL:
                    self._fail_locked(job, message)

    def _fail_locked(self, job: Job, message: str) -> None:
        job.status = "failed"
        job.error = message
        job.finished_at = time.time()
        if _metrics.enabled():
            _metrics.counter("service.jobs.failed").inc()
            _metrics.counter("service.scenarios.unanswered").inc(len(job.waiting))
        job.waiting.clear()
        self._turnstile.notify_all()
        _log.warning("fail %s campaign=%s: %s", job.job_id, job.spec.name, message)

    def _finalize_locked(self, job: Job) -> None:
        """Every scenario answered: write the manifest and mark the job done.

        The manifest is identical to a one-shot ``run_campaign`` of the same
        spec -- entries in expansion order, digests from the store -- so the
        service path is digest-compatible with the serial and sharded paths.
        """
        try:
            location, digest = self.store.write_manifest(job.spec, job.scenarios)
            self.store.save_index()
        except (KeyError, StoreError, OSError) as error:
            self._fail_locked(job, f"manifest write failed: {error}")
            return
        job.manifest_location = str(location)
        job.manifest_digest = digest
        job.status = "done"
        job.finished_at = time.time()
        if _metrics.enabled():
            _metrics.counter("service.jobs.done").inc()
        self._turnstile.notify_all()
        _log.info(
            "done %s campaign=%s manifest=%s", job.job_id, job.spec.name, digest[:12]
        )


# --------------------------------------------------------------------------- #
# The socket protocol (line-delimited JSON over TCP)
# --------------------------------------------------------------------------- #


def handle_request(service: CampaignService, request: dict[str, Any]) -> dict[str, Any]:
    """Execute one protocol request against the service.

    Commands: ``ping``, ``submit`` (spec dict or builtin name), ``status``,
    ``metrics``, ``cancel``, ``report``, ``shutdown``.  Every response
    carries ``ok``; failures carry ``error`` instead of raising across the
    wire.
    """
    try:
        command = request.get("cmd")
        if command == "ping":
            return {"ok": True, "pong": True}
        if command == "submit":
            spec_payload = request.get("spec")
            if isinstance(spec_payload, str):
                if spec_payload not in BUILTIN_CAMPAIGNS:
                    known = ", ".join(sorted(BUILTIN_CAMPAIGNS))
                    raise ServiceError(
                        f"unknown builtin campaign {spec_payload!r}; known: {known}"
                    )
                spec = builtin_spec(spec_payload)
            else:
                spec = CampaignSpec.from_dict(spec_payload)
            job_id = service.submit(spec, resume=request.get("resume", True))
            return {"ok": True, "job": job_id, "campaign": spec.name}
        if command == "status":
            payload = service.status(request.get("job"))
            if "jobs" in payload:
                payload["records"] = service.store.count_records()
            return {"ok": True, **payload}
        if command == "metrics":
            snap = service.metrics_snapshot()
            return {"ok": True, "metrics": snap, "prometheus": prometheus_text(snap)}
        if command == "cancel":
            cancelled = service.cancel(request["job"])
            return {"ok": True, "cancelled": cancelled, **service.status(request["job"])}
        if command == "report":
            result = service.result(request["job"])
            return {"ok": True, "report": result.to_dict()}
        if command == "shutdown":
            return {"ok": True, "stopping": True}
        raise ServiceError(f"unknown command {command!r}")
    except (ServiceError, KeyError, TypeError, ValueError) as error:
        detail = error.args[0] if error.args else str(error)
        return {"ok": False, "error": str(detail)}


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        for line in self.rfile:
            if not line.strip():
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as error:
                response: dict[str, Any] = {"ok": False, "error": f"bad request: {error}"}
                request = {}
            else:
                response = handle_request(self.server.service, request)
            self.wfile.write(json.dumps(response).encode("utf-8") + b"\n")
            self.wfile.flush()
            if request.get("cmd") == "shutdown" and response.get("ok"):
                self.server.initiate_shutdown()
                return


class CampaignServiceServer(socketserver.ThreadingTCPServer):
    """Serve a :class:`CampaignService` over line-delimited JSON on TCP."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self, service: CampaignService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        super().__init__((host, port), _Handler)
        self.service = service

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.socket.getsockname()[:2]
        return host, port

    def initiate_shutdown(self) -> None:
        # shutdown() blocks until serve_forever exits, so it must run off
        # the handler thread that called us.
        threading.Thread(target=self.shutdown, daemon=True).start()


class ServiceClient:
    """A blocking client for the service socket protocol."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        self._file.write(json.dumps(payload).encode("utf-8") + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServiceError("service closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            raise ServiceError(response.get("error", "request failed"))
        return response

    def ping(self) -> bool:
        return self.request({"cmd": "ping"})["pong"]

    def submit(self, spec: CampaignSpec | dict[str, Any] | str, resume: bool = True) -> str:
        if isinstance(spec, CampaignSpec):
            spec = spec.to_dict()
        return self.request({"cmd": "submit", "spec": spec, "resume": resume})["job"]

    def status(self, job_id: str | None = None) -> dict[str, Any]:
        payload: dict[str, Any] = {"cmd": "status"}
        if job_id is not None:
            payload["job"] = job_id
        return self.request(payload)

    def metrics(self) -> dict[str, Any]:
        """The service's live metrics: ``{"metrics": snapshot, "prometheus": text}``."""
        return self.request({"cmd": "metrics"})

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self.request({"cmd": "cancel", "job": job_id})

    def report(self, job_id: str) -> dict[str, Any]:
        return self.request({"cmd": "report", "job": job_id})["report"]

    def shutdown_server(self) -> None:
        self.request({"cmd": "shutdown"})

    def wait(self, job_id: str, timeout: float = 600.0, poll: float = 0.05) -> dict[str, Any]:
        """Poll until the job is terminal; returns its final status payload."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["status"] in _TERMINAL:
                return status
            if time.monotonic() > deadline:
                raise ServiceError(f"timed out waiting for {job_id}")
            time.sleep(poll)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
