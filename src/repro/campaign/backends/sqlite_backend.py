"""The campaign result store: one WAL-mode sqlite database file.

Schema::

    objects(hash PRIMARY KEY, digest, record)     one row per scenario record
    manifests(name PRIMARY KEY, digest, manifest) one row per campaign

The store persists three things:

* **records** -- one JSON document per scenario content hash, kept once
  present (``put`` on a stored hash is a no-op), which is what makes
  campaigns resumable and concurrent writers safe;
* **record digests** -- a SHA-256 per record over its canonical JSON minus
  volatile fields (wall-clock timings), the unit the manifest digest is built
  from;
* **manifests** -- one canonical-JSON document per campaign name, whose
  *bytes* are the digest contract: the same spec run with any worker count
  and through any execution path stores byte-identical manifest text, and
  ``migrate`` carries those bytes to the json export layout and back
  unchanged.

Why one sqlite file:

* ``put_many`` is one ``BEGIN IMMEDIATE`` transaction per unit instead of
  one atomic file rename per record -- and a writer killed mid-transaction
  rolls back cleanly on the next open (WAL recovery), so an interrupted
  campaign resumes from the last committed unit;
* ``has_many`` / ``get_many`` / ``record_digests_of`` are set-at-a-time
  indexed queries instead of per-record ``stat``/``open`` syscalls;
* WAL mode plus a busy timeout makes concurrent multi-process writers safe:
  readers never block the writer, writers queue on the database lock, and
  a stored record wins over a newcomer with the same hash.

Connections are opened lazily, per process *and* per thread (sqlite
connections are not fork- or thread-portable), and dropped on pickling so a
store can travel to worker processes like a path would.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
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

#: The schemes a store location may carry: ``sqlite:path`` (or a bare path)
#: opens the store, ``json:path`` names the layout only ``migrate`` reads and
#: writes.
SCHEMES = ("sqlite", "json")

#: Hashes per ``WHERE hash IN (...)`` chunk; comfortably under sqlite's
#: default 999-variable limit.
_IN_CHUNK = 500

_SCHEMA = """
CREATE TABLE IF NOT EXISTS objects (
    hash   TEXT PRIMARY KEY,
    digest TEXT NOT NULL,
    record TEXT NOT NULL
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS manifests (
    name     TEXT PRIMARY KEY,
    digest   TEXT NOT NULL,
    manifest TEXT NOT NULL
) WITHOUT ROWID;
"""


class StoreError(RuntimeError):
    """A stored object exists but cannot be served (corrupt / unreadable).

    Distinct from :class:`KeyError` (absent record): callers that can
    re-evaluate treat both as "missing", callers that cannot (``get`` on a
    hash the manifest promises) surface the location so the operator can
    prune the damaged record or re-run its campaign.
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
        problem = str(error)
    else:
        if isinstance(record, dict) and "hash" in record:
            return record
        problem = "not a record document"
    if _metrics.enabled():
        _metrics.counter("store.corrupt_objects").inc()
    raise StoreError(f"corrupt record object at {origin}: {problem}")


def parse_store_uri(location: str | os.PathLike[str]) -> tuple[str, str]:
    """Split a store location into ``(scheme, path)``; a bare path is sqlite."""
    location = os.fspath(location)
    head, colon, path = location.partition(":")
    if not colon or len(head) < 2 or not head.isalpha():
        return "sqlite", location  # a bare path (a drive letter is not a scheme)
    if head not in SCHEMES:
        raise ValueError(
            f"unknown store scheme {head!r} in {location!r}; known: {', '.join(SCHEMES)}"
        )
    if not path:
        raise ValueError(f"store URI {location!r} has an empty path")
    return head, path


def _chunks(items: list, size: int = _IN_CHUNK) -> Iterator[list]:
    for start in range(0, len(items), size):
        yield items[start : start + size]


def _row(record: dict[str, Any]) -> tuple[str, str, str]:
    # Strict JSON only, so that sqlite's json_valid() tells exactly which
    # rows decode.
    try:
        text = json.dumps(record, sort_keys=True, allow_nan=False)
    except ValueError:
        raise StoreError(
            f"record {record['hash'][:12]} holds a NaN or infinite float, "
            "which a store record cannot hold"
        ) from None
    return record["hash"], record_digest(record), text


class SqliteBackend:
    """A content-addressed store of scenario records and campaign manifests.

    ``location`` is the path of the database file, bare or as ``sqlite:path``;
    nothing is created until the first write.  A ``json:`` location and an
    existing directory are refused: the json layout is ``migrate``'s export
    format, and the message names the ``migrate`` command that converts it.
    """

    scheme = "sqlite"

    def __init__(self, location: str | os.PathLike[str]) -> None:
        scheme, path = parse_store_uri(location)
        if scheme != self.scheme:
            raise ValueError(
                f"{location} names the json layout, which only migrate reads and "
                f"writes; convert it with `python -m repro.campaign migrate "
                f"{location} <store file>`"
            )
        self.root = Path(path)
        if self.root.is_dir():
            if (self.root / "index.json").exists() or (self.root / "objects").is_dir():
                raise ValueError(
                    f"{self.root} holds a json store, which only migrate reads; "
                    f"convert it with `python -m repro.campaign migrate "
                    f"json:{self.root} {self.root}.db` and open {self.root}.db"
                )
            raise ValueError(f"{self.root} is a directory; a store is one sqlite file")
        self._local = threading.local()

    @property
    def uri(self) -> str:
        """The store URI that reopens this store."""
        return f"{self.scheme}:{self.root}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.uri}>"

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #

    def _connect(self, create: bool) -> sqlite3.Connection | None:
        """A per-process, per-thread connection; ``None`` for reads on a
        store that does not exist yet (read-only consumers must not create
        database files as a side effect)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None and getattr(self._local, "pid", None) == os.getpid():
            return conn
        if conn is not None:
            # Forked child: the parent's connection must not be reused (or
            # closed -- that would checkpoint under the parent's feet).
            self._local.conn = None
        if not create and not self.root.exists():
            return None
        self.root.parent.mkdir(parents=True, exist_ok=True)
        # Autocommit mode: transactions are explicit (BEGIN IMMEDIATE in
        # put_many), everything else is a single implicit transaction.
        conn = sqlite3.connect(str(self.root), timeout=30.0, isolation_level=None)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=30000")
        conn.executescript(_SCHEMA)
        self._local.conn = conn
        self._local.pid = os.getpid()
        return conn

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None and getattr(self._local, "pid", None) == os.getpid():
            conn.close()
        self._local.conn = None

    def __getstate__(self) -> dict[str, Any]:
        # Connections are process-local; a pickled store travels as a path.
        return {"root": self.root}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.root = state["root"]
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # Records
    # ------------------------------------------------------------------ #

    def has(self, scenario_hash: str) -> bool:
        """Whether a *servable* record is stored under the hash."""
        return bool(self.has_many([scenario_hash]))

    def has_many(self, scenario_hashes: Iterable[str]) -> set[str]:
        """The subset of the given hashes with servable stored records.

        A row that is not valid JSON (a damaged file) counts as missing:
        resume keys off this, and re-evaluating a damaged record beats
        crashing on it.  ``put_many`` then replaces the row.
        """
        conn = self._connect(create=False)
        if conn is None:
            return set()
        present: set[str] = set()
        for chunk in _chunks(list(scenario_hashes)):
            marks = ",".join("?" * len(chunk))
            rows = conn.execute(
                f"SELECT hash FROM objects WHERE hash IN ({marks}) AND json_valid(record)",
                chunk,
            ).fetchall()
            present.update(row[0] for row in rows)
        return present

    def get(self, scenario_hash: str) -> dict[str, Any]:
        """The stored record; :class:`KeyError` if absent, :class:`StoreError`
        if present but unreadable."""
        return next(self.get_many([scenario_hash]))

    def get_many(self, scenario_hashes: Iterable[str]) -> Iterator[dict[str, Any]]:
        """Stored records in request order (the streaming report path)."""
        requested = list(scenario_hashes)
        conn = self._connect(create=False)
        if conn is None:
            if requested:
                raise KeyError(f"no record for scenario hash {requested[0]}")
            return
        for chunk in _chunks(requested):
            marks = ",".join("?" * len(chunk))
            rows = conn.execute(
                f"SELECT hash, record FROM objects WHERE hash IN ({marks})", chunk
            ).fetchall()
            by_hash = {row[0]: row[1] for row in rows}
            for scenario_hash in chunk:
                text = by_hash.get(scenario_hash)
                if text is None:
                    raise KeyError(f"no record for scenario hash {scenario_hash}")
                yield decode_record(text, f"{self.uri}#objects/{scenario_hash}")

    def put(self, record: dict[str, Any], overwrite: bool = False) -> bool:
        """Store one record; see :meth:`put_many`."""
        return self.put_many([record], overwrite=overwrite) == 1

    def put_many(self, records: Iterable[dict[str, Any]], overwrite: bool = False) -> int:
        """Store a batch of records in one transaction; returns how many were written.

        A stored record is kept (idempotent resumes and concurrent writers)
        unless it is unreadable, which the newcomer replaces; ``overwrite``
        replaces every stored record (the forced re-evaluation path).  A
        writer killed mid-batch leaves no partial batch -- WAL recovery rolls
        the transaction back on the next open.
        """
        rows = [_row(record) for record in records]
        if not rows:
            return 0
        with _span("store.put_many", backend=self.scheme, batch=len(rows)) as sp:
            started = time.perf_counter()
            conn = self._connect(create=True)
            keep = "" if overwrite else " WHERE NOT json_valid(objects.record)"
            before = conn.total_changes
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.executemany(
                    "INSERT INTO objects (hash, digest, record) VALUES (?, ?, ?) "
                    "ON CONFLICT(hash) DO UPDATE SET digest = excluded.digest, "
                    f"record = excluded.record{keep}",
                    rows,
                )
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            conn.execute("COMMIT")
            written = conn.total_changes - before
            if _metrics.enabled():
                _metrics.counter("store.sqlite.records_written").inc(written)
                _metrics.histogram(
                    "store.put_many.batch_size", buckets=_metrics.DEFAULT_SIZE_BUCKETS
                ).observe(len(rows))
                _metrics.histogram("store.sqlite.put_many_seconds").observe(
                    time.perf_counter() - started
                )
            sp.set(written=written)
        return written

    def record_digests_of(self, scenario_hashes: Iterable[str]) -> list[str]:
        """Record digests in request order (the manifest-write path)."""
        requested = list(scenario_hashes)
        conn = self._connect(create=False)
        digests: dict[str, str] = {}
        if conn is not None:
            for chunk in _chunks(requested):
                marks = ",".join("?" * len(chunk))
                rows = conn.execute(
                    f"SELECT hash, digest FROM objects WHERE hash IN ({marks})", chunk
                ).fetchall()
                digests.update(rows)
        missing = [h for h in requested if h not in digests]
        if missing:
            raise KeyError(f"no record for scenario hash {missing[0]}")
        return [digests[h] for h in requested]

    def iter_records(self) -> Iterator[dict[str, Any]]:
        """All stored records, in ascending hash order (deterministic)."""
        conn = self._connect(create=False)
        if conn is None:
            return
        # A dedicated cursor so long migrations stream without buffering the
        # whole table, and interleaved reads don't clobber the scan.
        cursor = conn.cursor()
        cursor.execute("SELECT hash, record FROM objects ORDER BY hash")
        for scenario_hash, text in cursor:
            yield decode_record(text, f"{self.uri}#objects/{scenario_hash}")

    def count_records(self) -> int:
        conn = self._connect(create=False)
        if conn is None:
            return 0
        return conn.execute("SELECT COUNT(*) FROM objects").fetchone()[0]

    # ------------------------------------------------------------------ #
    # Manifests
    # ------------------------------------------------------------------ #

    def write_manifest(self, spec: CampaignSpec, scenarios: list[Scenario]) -> tuple[str, str]:
        """Write the campaign manifest and return ``(location, digest)``.

        The manifest lists every scenario in expansion order with its content
        hash and record digest.  Its digest covers exactly the spec and that
        list, so any two runs of the same spec that produced the same records
        -- serial, sharded or service-queued -- emit byte-identical manifests.
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

    def _write_manifest_text(self, name: str, text: str) -> str:
        try:
            digest = json.loads(text)["manifest_digest"]
        except (json.JSONDecodeError, KeyError, TypeError) as error:
            raise StoreError(f"not a campaign manifest for {name!r}: {error}") from None
        conn = self._connect(create=True)
        conn.execute(
            "INSERT OR REPLACE INTO manifests (name, digest, manifest) VALUES (?, ?, ?)",
            (name, digest, text),
        )
        return f"{self.uri}#campaigns/{name}"

    def read_manifest_text(self, name: str) -> str:
        """The stored manifest bytes (the digest contract)."""
        conn = self._connect(create=False)
        row = (
            conn.execute(
                "SELECT manifest FROM manifests WHERE name = ?", (name,)
            ).fetchone()
            if conn is not None
            else None
        )
        if row is None:
            known = ", ".join(self.list_campaigns()) or "(none)"
            raise KeyError(
                f"no manifest for campaign {name!r} in {self.uri}; stored campaigns: {known}"
            ) from None
        return row[0]

    def list_campaigns(self) -> list[str]:
        """Stored campaign names, sorted."""
        conn = self._connect(create=False)
        if conn is None:
            return []
        rows = conn.execute("SELECT name FROM manifests ORDER BY name").fetchall()
        return [row[0] for row in rows]
