"""Pluggable campaign storage backends, selected by store URI.

A store location is either a bare path (backend auto-detected: an existing
regular file is a sqlite database, anything else the original json-directory
layout) or an explicit ``scheme:path`` URI::

    json:campaign-store          loose JSON objects + index.json (the default)
    sqlite:campaigns.db          one WAL-mode database file

:func:`open_backend` resolves a location to a live backend;
:func:`migrate_store` converts a store between backends and verifies the
manifest-digest contract held (byte-identical manifests, matching record
digests) -- the property that makes backends interchangeable.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from pathlib import Path
from typing import Any

from repro.campaign.backends.base import (
    VOLATILE_FIELDS,
    StoreBackend,
    StoreError,
    record_digest,
)
from repro.campaign.backends.json_backend import JsonBackend
from repro.campaign.backends.sqlite_backend import SqliteBackend
from repro.campaign.spec import content_digest

#: scheme -> backend constructor.
BACKENDS: dict[str, Callable[[str | os.PathLike[str]], StoreBackend]] = {
    JsonBackend.scheme: JsonBackend,
    SqliteBackend.scheme: SqliteBackend,
}

#: Records copied per transaction/index-flush during migration.
MIGRATE_BATCH = 1_000


def parse_store_uri(location: str | os.PathLike[str]) -> tuple[str, str]:
    """Split a store location into ``(scheme, path)``.

    Bare paths auto-detect: a path that exists as a regular file (or ends in
    ``.db``/``.sqlite``/``.sqlite3``) is a sqlite database; everything else
    is the json directory layout, preserving the historical meaning of every
    pre-URI call site.
    """
    if isinstance(location, os.PathLike):
        location = str(location)
    for scheme in BACKENDS:
        prefix = f"{scheme}:"
        if location.startswith(prefix):
            path = location[len(prefix) :]
            if not path:
                raise ValueError(f"store URI {location!r} has an empty path")
            return scheme, path
    head = location.split(":", 1)[0]
    if ":" in location and head.isalpha() and len(head) > 1:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown store backend {head!r} in {location!r}; known: {known}")
    path = Path(location)
    if path.is_file() or path.suffix in (".db", ".sqlite", ".sqlite3"):
        return SqliteBackend.scheme, location
    return JsonBackend.scheme, location


def open_backend(location: str | os.PathLike[str] | StoreBackend) -> StoreBackend:
    """Resolve a store location (or pass through a live backend)."""
    if isinstance(location, StoreBackend):
        return location
    scheme, path = parse_store_uri(location)
    return BACKENDS[scheme](path)


def migrate_store(
    source: str | os.PathLike[str] | StoreBackend,
    destination: str | os.PathLike[str] | StoreBackend,
    batch: int = MIGRATE_BATCH,
) -> dict[str, Any]:
    """Copy every record and manifest from ``source`` into ``destination``.

    Existing destination records win (the content-addressed contract), so a
    migration is resumable and can merge stores.  After copying, every
    migrated manifest is verified against the destination: the stored bytes
    must match the source exactly and the recomputed digest chain (record
    digests -> manifest digest) must agree -- a failed verification raises
    :class:`StoreError` before the migration is reported as done.
    """
    src = open_backend(source)
    dst = open_backend(destination)
    if getattr(src, "root", None) == getattr(dst, "root", None) and src.scheme == dst.scheme:
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
        manifest = dst.read_manifest(name)
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
    "BACKENDS",
    "JsonBackend",
    "SqliteBackend",
    "StoreBackend",
    "StoreError",
    "VOLATILE_FIELDS",
    "migrate_store",
    "open_backend",
    "parse_store_uri",
    "record_digest",
]
