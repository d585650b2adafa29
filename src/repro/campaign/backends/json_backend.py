"""The ``json`` backend: one loose JSON object file per record.

Layout under the store root::

    objects/<hh>/<hash>.json    one JSON record per scenario content hash
    index.json                  hash -> record digest (fast resume/manifest path)
    campaigns/<name>.json       one manifest per campaign name

Records are written atomically (temp file + ``os.replace``); the index is a
pure acceleration structure -- the object files alone carry a resume, and a
lost index self-heals from them.  This is the original ``ResultStore``
layout, preserved byte-for-byte so existing stores keep working.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Any

from repro.campaign.backends.base import (
    StoreBackend,
    StoreError,
    decode_record,
    observe_put_many,
    record_digest,
)
from repro.obs.trace import span as _span


class JsonBackend(StoreBackend):
    """A content-addressed on-disk store of loose JSON records."""

    scheme = "json"

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.campaigns = self.root / "campaigns"
        self.index_path = self.root / "index.json"
        # No eager mkdir: read-only consumers (list/report) must not create
        # store directories as a side effect; _atomic_write mkdirs on demand.
        self._index: dict[str, str] | None = None

    # ------------------------------------------------------------------ #
    # Records
    # ------------------------------------------------------------------ #

    def _object_path(self, scenario_hash: str) -> Path:
        return self.objects / scenario_hash[:2] / f"{scenario_hash}.json"

    @staticmethod
    def _servable(path: Path) -> bool:
        """Cheap validity probe: present, non-empty, and not truncated.

        A record file is complete JSON ending in ``}``; a write that died
        mid-copy (or a truncated restore) fails the tail-byte check.  Full
        parsing stays in :meth:`get` -- the probe is what lets ``has`` stay
        cheap on warm resumes while still treating a truncated object as
        missing (re-evaluate) instead of crashing mid-campaign on it.
        """
        try:
            with open(path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) == b"}"
        except (OSError, ValueError):
            return False

    def has(self, scenario_hash: str) -> bool:
        # The object file is the source of truth, not the index: a stale
        # index entry whose record was pruned must not make resume skip the
        # scenario (it would leave the manifest pointing at missing records).
        return self._servable(self._object_path(scenario_hash))

    def get(self, scenario_hash: str) -> dict[str, Any]:
        path = self._object_path(scenario_hash)
        try:
            with open(path) as handle:
                text = handle.read()
        except FileNotFoundError:
            raise KeyError(f"no record for scenario hash {scenario_hash}") from None
        except OSError as error:
            raise StoreError(f"corrupt record object at {path}: {error}") from None
        return decode_record(text, str(path))

    def put(self, record: dict[str, Any], overwrite: bool = False) -> bool:
        scenario_hash = record["hash"]
        path = self._object_path(scenario_hash)
        if not overwrite and self._servable(path):
            # The index must describe the record actually served, never the
            # discarded newcomer; self-heal from disk if the entry is missing.
            # (A present-but-corrupt object falls through and is replaced.)
            self.record_digest_of(scenario_hash)
            return False
        self._atomic_write(path, json.dumps(record, indent=2, sort_keys=True))
        self.index[scenario_hash] = record_digest(record)
        return True

    def put_many(self, records: Iterable[dict[str, Any]], overwrite: bool = False) -> int:
        """Store a batch of records, flushing the index once at the end.

        This is the per-shard persistence path of the campaign executor.
        ``put`` never flushes, so the flush cadence is entirely the caller's:
        one ``save_index`` per batch keeps the index durable shard by shard
        (a run that dies between shards resumes with a warm index) without
        rewriting it per record or per chunk.  An all-hit batch (a warm
        resume) writes nothing and therefore flushes nothing -- rewriting
        ``index.json`` for zero new records is pure churn.  Returns the
        number of records actually written.
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

    def iter_records(self) -> Iterator[dict[str, Any]]:
        for path in sorted(self.objects.glob("*/*.json")):
            with open(path) as handle:
                yield decode_record(handle.read(), str(path))

    def count_records(self) -> int:
        return sum(1 for _ in self.objects.glob("*/*.json"))

    # ------------------------------------------------------------------ #
    # Index (hash -> record digest)
    # ------------------------------------------------------------------ #

    @property
    def index(self) -> dict[str, str]:
        if self._index is None:
            try:
                with open(self.index_path) as handle:
                    self._index = json.load(handle)
            except (FileNotFoundError, json.JSONDecodeError):
                self._index = {}
        return self._index

    def save_index(self) -> None:
        self._atomic_write(self.index_path, json.dumps(self.index, indent=0, sort_keys=True))

    def record_digest_of(self, scenario_hash: str) -> str:
        """The record digest for a stored scenario, via the index when warm.

        Self-healing: a hash present on disk but missing from the index (e.g.
        an interrupted earlier run) is re-read and re-indexed.
        """
        digest = self.index.get(scenario_hash)
        if digest is None:
            digest = record_digest(self.get(scenario_hash))
            self.index[scenario_hash] = digest
        return digest

    # ------------------------------------------------------------------ #
    # Manifests
    # ------------------------------------------------------------------ #

    def manifest_path(self, name: str) -> Path:
        return self.campaigns / f"{name}.json"

    def _write_manifest_text(self, name: str, text: str) -> Path:
        path = self.manifest_path(name)
        self._atomic_write(path, text)
        return path

    def read_manifest_text(self, name: str) -> str:
        path = self.manifest_path(name)
        try:
            return path.read_text()
        except FileNotFoundError:
            known = ", ".join(self.list_campaigns()) or "(none)"
            raise KeyError(
                f"no manifest for campaign {name!r} in {self.root}; stored campaigns: {known}"
            ) from None

    def list_campaigns(self) -> list[str]:
        return sorted(path.stem for path in self.campaigns.glob("*.json"))

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    def _atomic_write(self, path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "w", dir=path.parent, prefix=f".{path.name}.", delete=False
        )
        try:
            with handle:
                handle.write(text)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except FileNotFoundError:
                pass
            raise
