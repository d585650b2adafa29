"""The formal storage-backend contract of the campaign result store.

A backend persists three things:

* **records** -- one JSON document per scenario content hash, immutable once
  present (``put`` on an existing hash is a no-op), which is what makes
  campaigns resumable and concurrent writers safe;
* **record digests** -- a SHA-256 per record over its canonical JSON minus
  volatile fields (wall-clock timings), the unit the manifest digest is built
  from;
* **manifests** -- one canonical-JSON document per campaign name, whose
  *bytes* are the cross-backend contract: the same spec run through any
  backend, any worker count, and any execution path must store byte-identical
  manifest text (and therefore the same manifest digest).

Concrete backends (``json``, ``sqlite``) implement the primitive storage
operations; everything digest- and manifest-shaped lives here so it cannot
drift between layouts.
"""

from __future__ import annotations

import json
import time
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Any

from repro.campaign.spec import CampaignSpec, Scenario, canonical_json, content_digest
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span

#: Record fields excluded from the record digest (timing noise, not results).
#: ``elapsed_apportioned`` qualifies how ``elapsed_s`` was measured, so it is
#: volatile for the same reason the timing itself is.
VOLATILE_FIELDS = ("elapsed_s", "elapsed_apportioned")


class StoreError(RuntimeError):
    """A stored object exists but cannot be served (corrupt / unreadable).

    Distinct from :class:`KeyError` (absent record): callers that can
    re-evaluate treat both as "missing", callers that cannot (``get`` on a
    hash the manifest promises) surface the path so the operator can prune
    or migrate the damaged store.
    """


def record_digest(record: dict[str, Any]) -> str:
    """Digest of a record's deterministic content."""
    stable = {key: value for key, value in record.items() if key not in VOLATILE_FIELDS}
    return content_digest(stable)


def decode_record(text: str, origin: str) -> dict[str, Any]:
    """Parse stored record text, raising :class:`StoreError` naming the origin."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as error:
        if _metrics.enabled():
            _metrics.counter("store.corrupt_objects").inc()
        raise StoreError(f"corrupt record object at {origin}: {error}") from None
    if not isinstance(record, dict) or "hash" not in record:
        if _metrics.enabled():
            _metrics.counter("store.corrupt_objects").inc()
        raise StoreError(f"corrupt record object at {origin}: not a record document")
    return record


def observe_put_many(scheme: str, batch: int, written: int, seconds: float) -> None:
    """Publish one backend's ``put_many`` batch to the metrics registry."""
    if not _metrics.enabled():
        return
    _metrics.counter(f"store.{scheme}.records_written").inc(written)
    _metrics.histogram(
        "store.put_many.batch_size", buckets=_metrics.DEFAULT_SIZE_BUCKETS
    ).observe(batch)
    _metrics.histogram(f"store.{scheme}.put_many_seconds").observe(seconds)


class StoreBackend(ABC):
    """Abstract storage backend for campaign records and manifests.

    Subclasses set :attr:`scheme` (the URI prefix that selects them) and
    implement the primitive record/manifest operations.  Batch operations
    have straightforward per-item defaults that backends override where the
    layout offers something better (one SQL query instead of N file stats).
    """

    #: URI scheme selecting this backend, e.g. ``"json"`` in ``json:path``.
    scheme: str = ""

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #

    root: Path  # filesystem anchor (directory for json, db file for sqlite)

    @property
    def uri(self) -> str:
        """The store URI that reopens this backend."""
        return f"{self.scheme}:{self.root}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.uri}>"

    # ------------------------------------------------------------------ #
    # Records (primitive)
    # ------------------------------------------------------------------ #

    @abstractmethod
    def has(self, scenario_hash: str) -> bool:
        """Whether a *servable* record is stored under the hash.

        A corrupt stored object counts as missing here: resume paths key off
        ``has``, and re-evaluating a damaged record is strictly better than
        crashing mid-campaign on it.
        """

    @abstractmethod
    def get(self, scenario_hash: str) -> dict[str, Any]:
        """The stored record; :class:`KeyError` if absent, :class:`StoreError`
        if present but unreadable."""

    @abstractmethod
    def put(self, record: dict[str, Any], overwrite: bool = False) -> bool:
        """Store a record under its scenario hash.

        Returns ``True`` when the record was written, ``False`` when the hash
        was already present and kept (existing records win, so concurrent
        shards and resumed runs are idempotent).  ``overwrite`` replaces an
        existing record -- the forced re-evaluation path.
        """

    @abstractmethod
    def record_digest_of(self, scenario_hash: str) -> str:
        """The record digest for a stored scenario."""

    @abstractmethod
    def iter_records(self) -> Iterator[dict[str, Any]]:
        """All stored records, in ascending hash order (deterministic)."""

    @abstractmethod
    def count_records(self) -> int:
        """How many records the store holds."""

    # ------------------------------------------------------------------ #
    # Records (batch -- backends override with set-at-a-time queries)
    # ------------------------------------------------------------------ #

    def put_many(self, records: Iterable[dict[str, Any]], overwrite: bool = False) -> int:
        """Store a batch of records, flushing any index/transaction once.

        Returns the number of records actually written.  A batch that wrote
        nothing (an all-hit resume) must not rewrite any on-disk state.
        """
        batch = list(records)
        with _span("store.put_many", backend=self.scheme, batch=len(batch)) as sp:
            started = time.perf_counter()
            written = 0
            for record in batch:
                if self.put(record, overwrite=overwrite):
                    written += 1
            if written:
                self.save_index()
            observe_put_many(
                self.scheme, len(batch), written, time.perf_counter() - started
            )
            sp.set(written=written)
        return written

    def has_many(self, scenario_hashes: Iterable[str]) -> set[str]:
        """The subset of the given hashes with servable stored records."""
        return {h for h in scenario_hashes if self.has(h)}

    def get_many(self, scenario_hashes: Iterable[str]) -> Iterator[dict[str, Any]]:
        """Stored records in request order (the streaming report path)."""
        for scenario_hash in scenario_hashes:
            yield self.get(scenario_hash)

    def record_digests_of(self, scenario_hashes: Iterable[str]) -> list[str]:
        """Record digests in request order (the manifest-write path)."""
        return [self.record_digest_of(h) for h in scenario_hashes]

    def save_index(self) -> None:
        """Flush any acceleration structure (json's ``index.json``).

        Transactional backends have nothing to flush; the default is a no-op
        so callers can keep one flush cadence across backends.
        """

    # ------------------------------------------------------------------ #
    # Manifests
    # ------------------------------------------------------------------ #

    @abstractmethod
    def _write_manifest_text(self, name: str, text: str) -> Path | str:
        """Persist manifest text under the campaign name; return its location."""

    @abstractmethod
    def read_manifest_text(self, name: str) -> str:
        """The stored manifest bytes (the cross-backend digest contract)."""

    @abstractmethod
    def list_campaigns(self) -> list[str]:
        """Stored campaign names, sorted."""

    def write_manifest(
        self, spec: CampaignSpec, scenarios: list[Scenario]
    ) -> tuple[Path | str, str]:
        """Write the campaign manifest and return ``(location, digest)``.

        The manifest lists every scenario in expansion order with its content
        hash and record digest.  Its digest covers exactly the spec and that
        list, so any two runs of the same spec that produced the same records
        -- serial, sharded, service-queued, json or sqlite -- emit
        byte-identical manifests.
        """
        hashes = [scenario.content_hash() for scenario in scenarios]
        digests = self.record_digests_of(hashes)
        entries = [
            {"hash": scenario_hash, "record_digest": digest}
            for scenario_hash, digest in zip(hashes, digests)
        ]
        stable = {"spec": spec.to_dict(), "scenarios": entries}
        digest = content_digest(stable)
        manifest = {"manifest_digest": digest, **stable}
        location = self._write_manifest_text(spec.name, canonical_json(manifest))
        return location, digest

    def read_manifest(self, name: str) -> dict[str, Any]:
        text = self.read_manifest_text(name)
        try:
            return json.loads(text)
        except json.JSONDecodeError as error:
            raise StoreError(
                f"corrupt manifest for campaign {name!r} in {self.uri}: {error}"
            ) from None
