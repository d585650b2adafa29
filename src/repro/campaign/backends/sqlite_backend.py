"""The ``sqlite`` backend: one WAL-mode database file per store.

Schema::

    objects(hash PRIMARY KEY, digest, record)     one row per scenario record
    manifests(name PRIMARY KEY, digest, manifest) one row per campaign

Why sqlite for millions of records where loose JSON files stop scaling:

* ``put_many`` is one ``BEGIN IMMEDIATE`` transaction per shard instead of
  one atomic file rename per record -- and a writer killed mid-transaction
  rolls back cleanly on the next open (WAL recovery), so an interrupted
  campaign resumes from the last committed shard;
* ``has_many`` / ``get_many`` / ``record_digests_of`` are set-at-a-time
  indexed queries instead of per-record ``stat``/``open`` syscalls, which is
  what makes warm resume and report scale past 10^5 records;
* WAL mode plus a busy timeout makes concurrent multi-process writers safe:
  readers never block the writer, writers queue on the database lock, and
  ``INSERT OR IGNORE`` keeps the existing-record-wins idempotence of the
  content-addressed contract.

Connections are opened lazily, per process *and* per thread (sqlite
connections are not fork- or thread-portable), and dropped on pickling so a
backend instance can travel to multiprocessing workers like a path would.
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

from repro.campaign.backends.base import (
    StoreBackend,
    StoreError,
    decode_record,
    observe_put_many,
    record_digest,
)
from repro.obs.trace import span as _span

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


def _chunks(items: list, size: int = _IN_CHUNK) -> Iterator[list]:
    for start in range(0, len(items), size):
        yield items[start : start + size]


class SqliteBackend(StoreBackend):
    """A content-addressed store in a single WAL-mode sqlite database."""

    scheme = "sqlite"

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self._local = threading.local()

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
        # Connections are process-local; a pickled backend travels as a path.
        return {"root": self.root}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.root = state["root"]
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # Records
    # ------------------------------------------------------------------ #

    def has(self, scenario_hash: str) -> bool:
        conn = self._connect(create=False)
        if conn is None:
            return False
        row = conn.execute(
            "SELECT 1 FROM objects WHERE hash = ?", (scenario_hash,)
        ).fetchone()
        return row is not None

    def has_many(self, scenario_hashes: Iterable[str]) -> set[str]:
        conn = self._connect(create=False)
        if conn is None:
            return set()
        present: set[str] = set()
        for chunk in _chunks(list(scenario_hashes)):
            marks = ",".join("?" * len(chunk))
            rows = conn.execute(
                f"SELECT hash FROM objects WHERE hash IN ({marks})", chunk
            ).fetchall()
            present.update(row[0] for row in rows)
        return present

    def get(self, scenario_hash: str) -> dict[str, Any]:
        conn = self._connect(create=False)
        row = (
            conn.execute(
                "SELECT record FROM objects WHERE hash = ?", (scenario_hash,)
            ).fetchone()
            if conn is not None
            else None
        )
        if row is None:
            raise KeyError(f"no record for scenario hash {scenario_hash}")
        return decode_record(row[0], f"{self.uri}#objects/{scenario_hash}")

    def get_many(self, scenario_hashes: Iterable[str]) -> Iterator[dict[str, Any]]:
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
        return self.put_many([record], overwrite=overwrite) == 1

    def put_many(self, records: Iterable[dict[str, Any]], overwrite: bool = False) -> int:
        """One transaction per batch: all-or-nothing shard persistence.

        ``INSERT OR IGNORE`` keeps existing records (idempotent resumes and
        concurrent writers); ``overwrite`` replaces them (the forced
        re-evaluation path).  A writer killed mid-batch leaves no partial
        shard -- WAL recovery rolls the transaction back on the next open.
        """
        rows = [
            (record["hash"], record_digest(record), json.dumps(record, sort_keys=True))
            for record in records
        ]
        if not rows:
            return 0
        with _span("store.put_many", backend=self.scheme, batch=len(rows)) as sp:
            started = time.perf_counter()
            conn = self._connect(create=True)
            verb = "INSERT OR REPLACE" if overwrite else "INSERT OR IGNORE"
            before = conn.total_changes
            conn.execute("BEGIN IMMEDIATE")
            try:
                conn.executemany(
                    f"{verb} INTO objects (hash, digest, record) VALUES (?, ?, ?)", rows
                )
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            conn.execute("COMMIT")
            written = conn.total_changes - before
            observe_put_many(
                self.scheme, len(rows), written, time.perf_counter() - started
            )
            sp.set(written=written)
        return written

    def record_digest_of(self, scenario_hash: str) -> str:
        conn = self._connect(create=False)
        row = (
            conn.execute(
                "SELECT digest FROM objects WHERE hash = ?", (scenario_hash,)
            ).fetchone()
            if conn is not None
            else None
        )
        if row is None:
            raise KeyError(f"no record for scenario hash {scenario_hash}")
        return row[0]

    def record_digests_of(self, scenario_hashes: Iterable[str]) -> list[str]:
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
        conn = self._connect(create=False)
        if conn is None:
            return []
        rows = conn.execute("SELECT name FROM manifests ORDER BY name").fetchall()
        return [row[0] for row in rows]
