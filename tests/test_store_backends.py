"""Tests for the pluggable storage backends: URIs, parity, migration, crashes.

The backend contract is digest interchangeability: the same records and spec
must produce byte-identical manifests whichever backend holds them.  The
parity tests run every store operation against both backends; the migration
tests verify the digest chain survives a backend conversion; the concurrency
tests check that two processes writing one store (either backend) lose
nothing, and that a sqlite writer killed mid-transaction leaves a store that
resumes cleanly.
"""

from __future__ import annotations

import multiprocessing
import os
import sqlite3
import subprocess
import sys

import pytest

from repro.campaign import (
    CampaignSpec,
    GraphGrid,
    JsonBackend,
    ResultStore,
    SqliteBackend,
    StoreBackend,
    StoreError,
    migrate_store,
    open_backend,
    parse_store_uri,
    report_campaign,
    run_campaign,
)
from repro.campaign.store import record_digest

BACKEND_URIS = {
    "json": lambda tmp: f"json:{tmp / 'store'}",
    "sqlite": lambda tmp: f"sqlite:{tmp / 'store.db'}",
}


def small_spec(name: str = "bk") -> CampaignSpec:
    return CampaignSpec(
        name=name,
        kind="execution",
        graphs=[GraphGrid.of("cycle", {"n": [4, 5, 6]})],
        port_strategies=["consistent"],
        model_classes=["SB"],
        seeds=[0],
    )


def fake_record(tag: int) -> dict:
    scenario = {
        "kind": "execution",
        "family": "cycle",
        "graph_params": [["n", 4 + tag]],
        "seed": 0,
        "port_strategy": "consistent",
        "model_class": "SB",
        "algorithm": "leader-detect",
        "formula_set": None,
        "machine": None,
        "engine": "sweep",
        "max_rounds": 64,
    }
    return {
        "hash": f"{tag:064x}",
        "scenario": scenario,
        "kind": "execution",
        "result": {"output_digest": f"d{tag}", "halted": True, "rounds": tag},
        "elapsed_s": 0.5,
    }


@pytest.fixture(params=sorted(BACKEND_URIS))
def backend(request, tmp_path):
    return ResultStore(BACKEND_URIS[request.param](tmp_path))


class TestStoreUris:
    def test_explicit_schemes(self, tmp_path):
        assert parse_store_uri("json:some/dir") == ("json", "some/dir")
        assert parse_store_uri("sqlite:camp.db") == ("sqlite", "camp.db")

    def test_bare_directory_is_json(self, tmp_path):
        assert parse_store_uri(str(tmp_path / "store"))[0] == "json"

    def test_bare_db_suffix_is_sqlite(self, tmp_path):
        for suffix in (".db", ".sqlite", ".sqlite3"):
            assert parse_store_uri(str(tmp_path / f"s{suffix}"))[0] == "sqlite"

    def test_existing_regular_file_is_sqlite(self, tmp_path):
        path = tmp_path / "store"  # no telling suffix
        SqliteBackend(path).put(fake_record(1))
        assert parse_store_uri(str(path))[0] == "sqlite"

    def test_unknown_scheme_is_an_error(self):
        with pytest.raises(ValueError, match="unknown store backend"):
            parse_store_uri("postgres:somewhere")

    def test_empty_path_is_an_error(self):
        with pytest.raises(ValueError, match="empty path"):
            parse_store_uri("sqlite:")

    def test_open_backend_dispatch(self, tmp_path):
        assert isinstance(open_backend(f"json:{tmp_path / 'a'}"), JsonBackend)
        assert isinstance(open_backend(f"sqlite:{tmp_path / 'a.db'}"), SqliteBackend)
        backend = open_backend(f"sqlite:{tmp_path / 'b.db'}")
        assert open_backend(backend) is backend

    def test_resultstore_dispatches_on_uri(self, tmp_path):
        json_store = ResultStore(tmp_path / "plain")
        sqlite_store = ResultStore(f"sqlite:{tmp_path / 'c.db'}")
        assert isinstance(json_store, ResultStore)  # the json compat class
        assert isinstance(sqlite_store, SqliteBackend)
        assert not isinstance(sqlite_store, ResultStore)
        assert ResultStore(sqlite_store) is sqlite_store
        for store in (json_store, sqlite_store):
            assert isinstance(store, StoreBackend)
            assert store.uri.startswith(f"{store.scheme}:")


class TestBackendParity:
    """Every operation behaves identically on both backends."""

    def test_put_get_roundtrip(self, backend):
        record = fake_record(1)
        assert not backend.has(record["hash"])
        assert backend.put(record)
        assert backend.has(record["hash"])
        assert backend.get(record["hash"]) == record
        assert backend.record_digest_of(record["hash"]) == record_digest(record)

    def test_put_is_idempotent_and_existing_wins(self, backend):
        record = fake_record(1)
        assert backend.put(record)
        changed = dict(record, result=dict(record["result"], rounds=99))
        assert not backend.put(changed)
        assert backend.get(record["hash"])["result"]["rounds"] == record["result"]["rounds"]
        assert backend.put(changed, overwrite=True) or backend.scheme == "sqlite"
        assert backend.get(record["hash"])["result"]["rounds"] == 99

    def test_volatile_fields_do_not_change_the_digest(self, backend):
        record = fake_record(1)
        slower = dict(record, elapsed_s=99.0)
        assert record_digest(record) == record_digest(slower)

    def test_put_many_counts_only_new_records(self, backend):
        first = [fake_record(i) for i in range(4)]
        assert backend.put_many(first) == 4
        assert backend.put_many(first + [fake_record(9)]) == 1
        assert backend.count_records() == 5

    def test_batch_reads(self, backend):
        records = [fake_record(i) for i in range(7)]
        backend.put_many(records)
        hashes = [r["hash"] for r in records]
        assert backend.has_many(hashes + ["f" * 64]) == set(hashes)
        assert list(backend.get_many(reversed(hashes))) == list(reversed(records))
        assert backend.record_digests_of(hashes) == [record_digest(r) for r in records]

    def test_missing_records_raise_keyerror(self, backend):
        backend.put(fake_record(1))
        with pytest.raises(KeyError):
            backend.get("f" * 64)
        with pytest.raises(KeyError):
            list(backend.get_many([fake_record(1)["hash"], "f" * 64]))
        with pytest.raises(KeyError):
            backend.record_digests_of(["f" * 64])

    def test_iter_records_streams_everything(self, backend):
        records = [fake_record(i) for i in range(5)]
        backend.put_many(records)
        streamed = {r["hash"]: r for r in backend.iter_records()}
        assert streamed == {r["hash"]: r for r in records}

    def test_manifest_roundtrip_and_digest_identity(self, tmp_path):
        """The same spec + records produce byte-identical manifests on both."""
        spec = small_spec()
        scenarios = spec.expand()
        from repro.campaign.executor import evaluate_scenarios

        records = evaluate_scenarios(scenarios)
        manifests = {}
        for scheme, make in BACKEND_URIS.items():
            store = ResultStore(make(tmp_path / scheme))
            store.put_many(records)
            _, digest = store.write_manifest(spec, scenarios)
            manifests[scheme] = (digest, store.read_manifest_text(spec.name))
            assert store.list_campaigns() == [spec.name]
        assert manifests["json"] == manifests["sqlite"]

    def test_missing_manifest_names_known_campaigns(self, backend):
        with pytest.raises(KeyError, match="no manifest"):
            backend.read_manifest("ghost")

    def test_read_only_construction_creates_nothing(self, tmp_path):
        for scheme, make in BACKEND_URIS.items():
            store = ResultStore(make(tmp_path / scheme))
            assert not store.has("a" * 64)
            assert store.has_many(["a" * 64]) == set()
            assert store.count_records() == 0
            assert store.list_campaigns() == []
            assert list(store.iter_records()) == []
            assert list((tmp_path / scheme).glob("**/*") if (tmp_path / scheme).exists() else []) == []

    def test_backends_survive_pickling(self, backend):
        import pickle

        backend.put(fake_record(1))
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.has(fake_record(1)["hash"])
        assert clone.uri == backend.uri


class TestCorruption:
    def test_truncated_json_object_reads_as_missing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        record = fake_record(1)
        store.put(record)
        path = store._object_path(record["hash"])
        path.write_text(path.read_text()[:-10])  # truncate the tail
        assert not store.has(record["hash"])  # treated as missing...
        with pytest.raises(StoreError, match=str(path)):
            store.get(record["hash"])  # ...but a direct read names the file

    def test_put_replaces_a_corrupt_object(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        record = fake_record(1)
        store.put(record)
        store._object_path(record["hash"]).write_text("{broken")
        assert store.put(record)
        assert store.get(record["hash"]) == record

    def test_resume_reevaluates_corrupt_records(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path / "store")
        run_campaign(spec, store, log=None)
        victim = spec.expand()[0].content_hash()
        store._object_path(victim).write_text("{broken")
        rerun = run_campaign(spec, ResultStore(tmp_path / "store"), log=None)
        assert rerun.executed == 1  # only the corrupt record re-ran
        assert ResultStore(tmp_path / "store").get(victim)["hash"] == victim

    def test_corrupt_sqlite_row_raises_storeerror_naming_the_store(self, tmp_path):
        store = ResultStore(f"sqlite:{tmp_path / 's.db'}")
        record = fake_record(1)
        store.put(record)
        store.close()
        with sqlite3.connect(tmp_path / "s.db") as conn:
            conn.execute("UPDATE objects SET record = '{broken'")
        with pytest.raises(StoreError, match="s.db"):
            ResultStore(f"sqlite:{tmp_path / 's.db'}").get(record["hash"])

    def test_empty_put_many_writes_nothing(self, backend, monkeypatch):
        flushes = []
        monkeypatch.setattr(
            type(backend), "save_index", lambda self: flushes.append(1), raising=False
        )
        assert backend.put_many([]) == 0
        assert flushes == []

    def test_all_hit_put_many_skips_the_index_flush(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        records = [fake_record(i) for i in range(3)]
        store.put_many(records)
        flushes = []
        monkeypatch.setattr(ResultStore, "save_index", lambda self: flushes.append(1))
        assert store.put_many(records) == 0  # every record already present
        assert flushes == []


class TestMigration:
    def _seeded_store(self, uri: str):
        spec = small_spec()
        store = ResultStore(uri)
        run_campaign(spec, store, log=None)
        return spec, store

    @pytest.mark.parametrize(
        "src_scheme, dst_scheme", [("json", "sqlite"), ("sqlite", "json")]
    )
    def test_migrate_preserves_the_digest_chain(self, tmp_path, src_scheme, dst_scheme):
        spec, src = self._seeded_store(BACKEND_URIS[src_scheme](tmp_path))
        dst_uri = BACKEND_URIS[dst_scheme](tmp_path / "dst")
        report = migrate_store(src, dst_uri)
        assert report["records_copied"] == src.count_records()
        assert report["records_already_present"] == 0
        assert report["campaigns"] == [
            {
                "campaign": spec.name,
                "manifest_digest": src.read_manifest(spec.name)["manifest_digest"],
            }
        ]
        dst = ResultStore(dst_uri)
        assert dst.read_manifest_text(spec.name) == src.read_manifest_text(spec.name)
        # The migrated store is a drop-in: resuming against it runs nothing.
        rerun = run_campaign(spec, dst, log=None)
        assert rerun.executed == 0
        assert rerun.manifest_digest == report["campaigns"][0]["manifest_digest"]

    def test_migrate_is_resumable_and_merges(self, tmp_path):
        _, src = self._seeded_store(BACKEND_URIS["json"](tmp_path))
        dst_uri = BACKEND_URIS["sqlite"](tmp_path / "dst")
        migrate_store(src, dst_uri)
        again = migrate_store(src, dst_uri)
        assert again["records_copied"] == 0
        assert again["records_already_present"] == src.count_records()

    def test_migrate_rejects_the_same_store(self, tmp_path):
        _, src = self._seeded_store(BACKEND_URIS["json"](tmp_path))
        with pytest.raises(ValueError, match="same store"):
            migrate_store(src, src.uri)

    def test_migrate_detects_tampered_records(self, tmp_path):
        spec, src = self._seeded_store(BACKEND_URIS["json"](tmp_path))
        dst_uri = f"sqlite:{tmp_path / 'dst.db'}"
        dst = ResultStore(dst_uri)
        # Pre-seed the destination with a record whose digest disagrees.
        victim = spec.expand()[0].content_hash()
        tampered = src.get(victim)
        tampered["result"]["rounds"] += 1
        dst.put(tampered)
        with pytest.raises(StoreError, match="digest"):
            migrate_store(src, dst)


class TestStoresFromOlderVersions:
    """Older versions cached kernel plans beside the records: an ``artifacts``
    table in sqlite stores, an ``artifacts/plan/`` tree in json stores.  No
    code reads those leftovers any more; stores holding them must keep working,
    and new or migrated stores hold nothing but records and manifests."""

    @pytest.mark.parametrize("scheme", sorted(BACKEND_URIS))
    def test_plan_cache_leftovers_are_never_read(self, tmp_path, scheme):
        spec = small_spec("older")
        uri = BACKEND_URIS[scheme](tmp_path)
        first = run_campaign(spec, uri, log=None)
        expected_report = report_campaign(ResultStore(uri), spec.name).to_dict()

        key = "ab" + "0" * 62
        if scheme == "sqlite":
            conn = sqlite3.connect(tmp_path / "store.db")
            with conn:
                conn.execute(
                    "CREATE TABLE artifacts (kind TEXT NOT NULL, key TEXT NOT NULL, "
                    "blob BLOB NOT NULL, PRIMARY KEY (kind, key)) WITHOUT ROWID"
                )
                conn.execute(
                    "INSERT INTO artifacts VALUES (?, ?, ?)", ("plan", key, b"not a plan")
                )
            conn.close()
        else:
            leftover = tmp_path / "store" / "artifacts" / "plan" / key[:2] / f"{key}.bin"
            leftover.parent.mkdir(parents=True)
            leftover.write_bytes(b"not a plan")

        rerun = run_campaign(spec, uri, log=None)
        assert rerun.executed == 0
        assert rerun.manifest_digest == first.manifest_digest
        assert report_campaign(ResultStore(uri), spec.name).to_dict() == expected_report

        other = "json" if scheme == "sqlite" else "sqlite"
        report = migrate_store(uri, BACKEND_URIS[other](tmp_path / "dst"))
        assert report["records_copied"] == len(spec.expand())
        assert report["campaigns"] == [
            {"campaign": spec.name, "manifest_digest": first.manifest_digest}
        ]

    @pytest.mark.parametrize("scheme", sorted(BACKEND_URIS))
    def test_new_stores_hold_only_records_and_manifests(self, tmp_path, scheme):
        def layout(scheme: str, root) -> list[str]:
            if scheme == "json":
                return sorted(os.listdir(root / "store"))
            conn = sqlite3.connect(root / "store.db")
            try:
                rows = conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
                return sorted(name for (name,) in rows)
            finally:
                conn.close()

        expected = {
            "json": ["campaigns", "index.json", "objects"],
            "sqlite": ["manifests", "objects"],
        }
        spec = small_spec("fresh")
        run_campaign(spec, BACKEND_URIS[scheme](tmp_path), log=None)
        other = "json" if scheme == "sqlite" else "sqlite"
        report = migrate_store(
            BACKEND_URIS[scheme](tmp_path), BACKEND_URIS[other](tmp_path / "dst")
        )
        assert sorted(report) == [
            "campaigns",
            "destination",
            "records_already_present",
            "records_copied",
            "source",
        ]
        assert layout(scheme, tmp_path) == expected[scheme]
        assert layout(other, tmp_path / "dst") == expected[other]


class TestCli:
    def _run(self, tmp_path, spec_name: str, uri: str) -> None:
        from repro.campaign.__main__ import main as campaign_main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(small_spec(spec_name).to_json())
        assert campaign_main(["--store", uri, "run", str(spec_path), "--json"]) == 0

    def test_list_shows_record_counts_and_backend(self, tmp_path, capsys):
        from repro.campaign.__main__ import main as campaign_main

        uri = f"sqlite:{tmp_path / 'store.db'}"
        self._run(tmp_path, "listed", uri)
        capsys.readouterr()
        assert campaign_main(["--store", uri, "list"]) == 0
        out = capsys.readouterr().out
        total = len(small_spec().expand())
        assert "sqlite backend" in out
        assert f"{total} records" in out
        assert f"{total:5d}/{total} records" in out

    def test_migrate_verb_converts_and_verifies(self, tmp_path, capsys):
        from repro.campaign.__main__ import main as campaign_main

        src = f"json:{tmp_path / 'src'}"
        dst = f"sqlite:{tmp_path / 'dst.db'}"
        self._run(tmp_path, "mig", src)
        capsys.readouterr()
        assert campaign_main(["--store", src, "migrate", src, dst]) == 0
        out = capsys.readouterr().out
        assert "verified" in out
        assert campaign_main(["--store", dst, "report", "mig", "--json"]) == 0

    def test_migrate_verb_rejects_bad_uris(self, tmp_path):
        from repro.campaign.__main__ import main as campaign_main

        with pytest.raises(SystemExit, match="unknown store backend"):
            campaign_main(["migrate", f"json:{tmp_path}", "postgres:x"])


def _writer(uri: str, tags: list[int]) -> None:
    store = ResultStore(uri)
    store.put_many([fake_record(tag) for tag in tags])


class TestConcurrentWriters:
    @pytest.mark.parametrize("scheme", sorted(BACKEND_URIS))
    def test_two_processes_lose_nothing(self, tmp_path, scheme):
        uri = BACKEND_URIS[scheme](tmp_path)
        # Overlapping tag ranges: the overlap exercises the existing-record-
        # wins path under contention, the disjoint parts must all land.
        first, second = list(range(0, 40)), list(range(20, 60))
        procs = [
            multiprocessing.Process(target=_writer, args=(uri, tags))
            for tags in (first, second)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        store = ResultStore(uri)
        expected = [fake_record(tag) for tag in sorted(set(first + second))]
        assert store.count_records() == len(expected)
        assert store.record_digests_of([r["hash"] for r in expected]) == [
            record_digest(r) for r in expected
        ]

    def test_sqlite_killed_mid_transaction_resumes_cleanly(self, tmp_path):
        uri = f"sqlite:{tmp_path / 'store.db'}"
        store = ResultStore(uri)
        store.put_many([fake_record(i) for i in range(5)])
        store.close()
        # A writer that dies inside an open transaction: rows inserted but
        # never committed.  WAL recovery must roll them back on the next open.
        script = f"""
import sqlite3, os
conn = sqlite3.connect({str(tmp_path / 'store.db')!r}, isolation_level=None)
conn.execute("BEGIN IMMEDIATE")
conn.execute("INSERT INTO objects (hash, digest, record) VALUES ('x'*64, 'd', '{{}}')")
os._exit(1)
"""
        result = subprocess.run([sys.executable, "-c", script], env=os.environ)
        assert result.returncode == 1
        fresh = ResultStore(uri)
        assert fresh.count_records() == 5  # the uncommitted row rolled back
        assert not fresh.has("x" * 64)
        assert fresh.put_many([fake_record(9)]) == 1  # the store still writes
