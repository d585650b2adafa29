"""The campaign service over TCP: line-delimited JSON for many clients.

The dispatcher itself -- :class:`CampaignService`, with asynchronous
submission, cross-campaign in-flight dedup, streaming rollups, cancellation
and worker-death handling -- lives in :mod:`repro.campaign.executor`, where
:func:`~repro.campaign.executor.run_campaign` is its one-shot in-process
client; this module re-exports it.  :class:`CampaignServiceServer` and
:class:`ServiceClient` expose it over a socket for the ``python -m
repro.campaign serve|submit|status|cancel|metrics`` CLI verbs: one JSON
object per line each way, every response carrying ``ok``.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from typing import Any

from repro.campaign.backends import StoreError
from repro.campaign.builtin import BUILTIN_CAMPAIGNS, builtin_spec
from repro.campaign.executor import (
    _TERMINAL,
    JOB_STATES,
    SERVICE_SHARD,
    CampaignService,
    Job,
    ServiceError,
    _log,
)
from repro.campaign.spec import CampaignSpec
from repro.obs import metrics as _metrics
from repro.obs.export import prometheus_text

__all__ = [
    "JOB_STATES",
    "SERVICE_SHARD",
    "CampaignService",
    "CampaignServiceServer",
    "Job",
    "ServiceClient",
    "ServiceError",
    "handle_request",
]


# --------------------------------------------------------------------------- #
# The socket protocol (line-delimited JSON over TCP)
# --------------------------------------------------------------------------- #


def _job_field(request: dict[str, Any]) -> str:
    if "job" not in request:
        raise ServiceError(f"bad request: {request.get('cmd')!r} needs a 'job' field")
    return request["job"]


def handle_request(service: CampaignService, request: Any) -> dict[str, Any]:
    """Execute one protocol request (a decoded JSON line) against the service.

    Commands: ``ping``, ``submit`` (spec dict or builtin name), ``status``,
    ``metrics``, ``cancel``, ``report``, ``shutdown``.  Every response
    carries ``ok``; failures -- a request that is not a JSON object
    included -- carry ``error`` instead of raising across the wire.
    """
    if not isinstance(request, dict):
        return {"ok": False, "error": "bad request: expected a JSON object"}
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
            job_id = _job_field(request)
            cancelled = service.cancel(job_id)
            return {"ok": True, "cancelled": cancelled, **service.status(job_id)}
        if command == "report":
            result = service.result(_job_field(request))
            return {"ok": True, "report": result.to_dict()}
        if command == "shutdown":
            return {"ok": True, "stopping": True}
        raise ServiceError(f"unknown command {command!r}")
    except (ServiceError, StoreError, KeyError, TypeError, ValueError) as error:
        detail = error.args[0] if error.args else str(error)
        return {"ok": False, "error": str(detail)}


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        try:
            self._serve_lines()
        except ConnectionError as error:
            # A client that resets mid-request ends only its own connection:
            # count it and log one line instead of socketserver's traceback.
            if _metrics.enabled():
                _metrics.counter("service.client.disconnects").inc()
            _log.warning(
                "client %s dropped the connection mid-request: %s",
                self.client_address, error,
            )

    def _serve_lines(self) -> None:
        for line in self.rfile:
            if not line.strip():
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as error:
                response: dict[str, Any] = {"ok": False, "error": f"bad request: {error}"}
            else:
                response = handle_request(self.server.service, request)
            self.wfile.write(json.dumps(response).encode("utf-8") + b"\n")
            self.wfile.flush()
            if response.get("stopping"):
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
