"""The json layout: the loose-file format ``migrate`` imports and exports.

Layout under the root directory::

    objects/<hh>/<hash>.json    one JSON record per scenario content hash
    index.json                  hash -> record digest
    campaigns/<name>.json       one manifest per campaign name

``python -m repro.campaign migrate json:<dir> <file>`` converts a directory
in this layout into a store, and ``migrate <file> json:<dir>`` exports a
store to it (diff-able, rsync-able).  Files are written atomically (temp
file + ``os.replace``).  Nothing else opens it.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Any

from repro.campaign.backends.sqlite_backend import decode_record, record_digest


class JsonBackend:
    """Records and manifests in the json layout under one directory."""

    scheme = "json"

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.campaigns = self.root / "campaigns"
        self._index: dict[str, str] | None = None

    @property
    def uri(self) -> str:
        return f"{self.scheme}:{self.root}"

    def _object_path(self, scenario_hash: str) -> Path:
        return self.objects / scenario_hash[:2] / f"{scenario_hash}.json"

    def iter_records(self) -> Iterator[dict[str, Any]]:
        """All records, in ascending hash order."""
        for path in sorted(self.objects.glob("*/*.json")):
            yield decode_record(path.read_text(), str(path))

    def put_many(self, records: Iterable[dict[str, Any]]) -> int:
        """Write the records not yet present and flush the index once.

        A present object file wins (so an export can resume or merge), and
        is indexed if an earlier export died before its index flush; returns
        how many records were written.
        """
        index_path = self.root / "index.json"
        if self._index is None:
            try:
                self._index = json.loads(index_path.read_text())
            except (FileNotFoundError, json.JSONDecodeError):
                self._index = {}
        written = 0
        healed = False
        for record in records:
            path = self._object_path(record["hash"])
            if path.exists():
                if record["hash"] not in self._index:
                    text = path.read_text()
                    self._index[record["hash"]] = record_digest(decode_record(text, str(path)))
                    healed = True
                continue
            _atomic_write(path, json.dumps(record, indent=2, sort_keys=True))
            self._index[record["hash"]] = record_digest(record)
            written += 1
        if written or healed:
            _atomic_write(index_path, json.dumps(self._index, indent=0, sort_keys=True))
        return written

    def record_digests_of(self, scenario_hashes: Iterable[str]) -> list[str]:
        """Digests recomputed from the object files, in request order.

        Never read from the index: verification checks the bytes on disk.
        """
        digests = []
        for scenario_hash in scenario_hashes:
            path = self._object_path(scenario_hash)
            try:
                text = path.read_text()
            except FileNotFoundError:
                raise KeyError(f"no record for scenario hash {scenario_hash}") from None
            digests.append(record_digest(decode_record(text, str(path))))
        return digests

    def _write_manifest_text(self, name: str, text: str) -> Path:
        path = self.campaigns / f"{name}.json"
        _atomic_write(path, text)
        return path

    def read_manifest_text(self, name: str) -> str:
        try:
            return (self.campaigns / f"{name}.json").read_text()
        except FileNotFoundError:
            raise KeyError(f"no manifest for campaign {name!r} in {self.uri}") from None

    def list_campaigns(self) -> list[str]:
        return sorted(path.stem for path in self.campaigns.glob("*.json"))


def _atomic_write(path: Path, text: str) -> None:
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
