"""The campaign result store and the verified migration to and from json.

The store is one WAL-mode sqlite file
(:class:`~repro.campaign.backends.sqlite_backend.SqliteBackend`, public as
:data:`ResultStore`).  Its location is a path, bare or as a URI::

    campaigns.db                 the store (created on first write)
    sqlite:campaigns.db          the same store
    json:campaign-store          the loose-file layout; only migrate_store opens it

:func:`open_backend` resolves a location to the store (an open store passes
through); :func:`migrate_store` copies records and manifests between the
store and the json layout, in either direction, and verifies the
manifest-digest contract held (byte-identical manifests, matching record
digests).
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.campaign.backends.sqlite_backend import (
    VOLATILE_FIELDS,
    SqliteBackend,
    StoreError,
    parse_store_uri,
    record_digest,
)
from repro.campaign.spec import content_digest

#: The public name of the one store: ``ResultStore(path)`` opens it.
ResultStore = SqliteBackend

#: Records copied per transaction/index-flush during migration.
MIGRATE_BATCH = 1_000


def open_backend(location: str | os.PathLike[str] | SqliteBackend) -> SqliteBackend:
    """The store at a location, or an open store passed through."""
    if isinstance(location, SqliteBackend):
        return location
    return SqliteBackend(location)


def _open_either(location: Any) -> Any:
    """The store, or the json layout for a ``json:`` location (migration only)."""
    from repro.campaign.backends.json_backend import JsonBackend

    if isinstance(location, (SqliteBackend, JsonBackend)):
        return location
    scheme, path = parse_store_uri(location)
    return JsonBackend(path) if scheme == JsonBackend.scheme else SqliteBackend(location)


def migrate_store(source: Any, destination: Any, batch: int = MIGRATE_BATCH) -> dict[str, Any]:
    """Copy every record and manifest from ``source`` into ``destination``.

    Either side is a store location (a path or ``sqlite:path``) or a
    ``json:path`` layout.  Existing destination records win (the
    content-addressed contract), so a migration is resumable and can merge
    stores.  After copying, every migrated manifest is verified against the
    destination: the stored bytes must match the source exactly and the
    recomputed digest chain (record digests -> manifest digest) must agree
    -- a failed verification raises :class:`StoreError` before the migration
    is reported as done.
    """
    src = _open_either(source)
    dst = _open_either(destination)
    if src.uri == dst.uri:
        raise ValueError(f"source and destination are the same store: {src.uri}")

    copied = 0
    skipped = 0
    pending: list[dict[str, Any]] = []

    def flush() -> None:
        nonlocal copied, skipped
        if pending:
            written = dst.put_many(pending)
            copied += written
            skipped += len(pending) - written
            pending.clear()

    for record in src.iter_records():
        pending.append(record)
        if len(pending) >= batch:
            flush()
    flush()

    campaigns = src.list_campaigns()
    for name in campaigns:
        dst._write_manifest_text(name, src.read_manifest_text(name))

    verified = []
    for name in campaigns:
        text = dst.read_manifest_text(name)
        if text != src.read_manifest_text(name):
            raise StoreError(f"manifest {name!r} bytes differ after migration to {dst.uri}")
        manifest = json.loads(text)
        stable = {"spec": manifest["spec"], "scenarios": manifest["scenarios"]}
        recomputed = content_digest(stable)
        if recomputed != manifest["manifest_digest"]:
            raise StoreError(
                f"manifest {name!r} digest mismatch after migration: "
                f"stored {manifest['manifest_digest'][:12]}, recomputed {recomputed[:12]}"
            )
        hashes = [entry["hash"] for entry in manifest["scenarios"]]
        try:
            digests = dst.record_digests_of(hashes)
        except KeyError as error:
            raise StoreError(
                f"manifest {name!r} references a record missing from {dst.uri}: {error}"
            ) from None
        for entry, digest in zip(manifest["scenarios"], digests):
            if entry["record_digest"] != digest:
                raise StoreError(
                    f"record {entry['hash'][:12]} of campaign {name!r} has digest "
                    f"{digest[:12]} in {dst.uri}, manifest expects "
                    f"{entry['record_digest'][:12]}"
                )
        verified.append({"campaign": name, "manifest_digest": manifest["manifest_digest"]})

    return {
        "source": src.uri,
        "destination": dst.uri,
        "records_copied": copied,
        "records_already_present": skipped,
        "campaigns": verified,
    }


__all__ = [
    "ResultStore",
    "SqliteBackend",
    "StoreError",
    "VOLATILE_FIELDS",
    "migrate_store",
    "open_backend",
    "parse_store_uri",
    "record_digest",
]
