"""Tests for the result store: locations, records, corruption, migration, crashes.

The store is one sqlite file; json is the loose-file layout that ``migrate``
exports to and imports from.  The location tests pin which paths open the
store and which are refused (``json:`` URIs and directories, with the
``migrate`` command to run); the record tests run every store operation;
the corruption tests check that a damaged row reads as missing and is
re-evaluated; the migration tests verify the digest chain survives a round
trip through the json layout; the concurrency tests check that two processes
writing one store lose nothing, and that a writer killed mid-transaction
leaves a store that resumes cleanly.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignService,
    CampaignSpec,
    GraphGrid,
    ResultStore,
    SqliteBackend,
    StoreError,
    migrate_store,
    open_backend,
    parse_store_uri,
    report_campaign,
    run_campaign,
)
from repro.campaign.__main__ import main as campaign_main
from repro.campaign.backends import record_digest
from repro.campaign.backends.json_backend import JsonBackend


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


def damage(path: Path, scenario_hash: str, sql_value: str) -> None:
    """Overwrite one stored row's record text with ``sql_value`` (an SQL expression)."""
    with sqlite3.connect(path) as conn:
        conn.execute(f"UPDATE objects SET record = {sql_value} WHERE hash = ?", (scenario_hash,))
    conn.close()


def json_export(tmp_path: Path, spec: CampaignSpec) -> tuple[Path, str]:
    """A json layout holding ``spec``'s campaign, exported from a fresh store."""
    digest = run_campaign(spec, tmp_path / "seed.db", log=None).manifest_digest
    migrate_store(tmp_path / "seed.db", f"json:{tmp_path / 'export'}")
    return tmp_path / "export", digest


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestStoreUris:
    def test_explicit_schemes(self):
        assert parse_store_uri("json:some/dir") == ("json", "some/dir")
        assert parse_store_uri("sqlite:camp.db") == ("sqlite", "camp.db")

    def test_bare_paths_are_sqlite(self, tmp_path):
        for path in (tmp_path / "store", str(tmp_path / "store"), "C:store"):
            assert parse_store_uri(path) == ("sqlite", str(path))

    def test_bare_db_suffix_is_sqlite(self, tmp_path):
        for suffix in (".db", ".sqlite", ".sqlite3"):
            assert parse_store_uri(str(tmp_path / f"s{suffix}"))[0] == "sqlite"

    def test_existing_regular_file_is_sqlite(self, tmp_path):
        path = tmp_path / "store"  # no telling suffix
        SqliteBackend(path).put(fake_record(1))
        assert parse_store_uri(str(path))[0] == "sqlite"

    def test_unknown_scheme_is_an_error(self):
        with pytest.raises(ValueError, match="unknown store scheme"):
            parse_store_uri("postgres:somewhere")

    def test_empty_path_is_an_error(self):
        with pytest.raises(ValueError, match="empty path"):
            parse_store_uri("sqlite:")

    def test_open_backend_dispatch(self, tmp_path):
        opened = open_backend(tmp_path / "a.db")
        assert isinstance(opened, SqliteBackend)
        assert isinstance(open_backend(f"sqlite:{tmp_path / 'b.db'}"), SqliteBackend)
        assert open_backend(opened) is opened

    def test_resultstore_dispatches_on_uri(self, tmp_path):
        assert ResultStore is SqliteBackend
        bare = ResultStore(tmp_path / "plain")
        uri = ResultStore(f"sqlite:{tmp_path / 'plain'}")
        assert bare.uri == uri.uri == f"sqlite:{tmp_path / 'plain'}"
        assert bare.root == uri.root == tmp_path / "plain"

    def test_a_bare_path_creates_one_sqlite_file(self, tmp_path):
        run_campaign(small_spec(), tmp_path / "store", log=None)
        assert (tmp_path / "store").is_file()
        assert (tmp_path / "store").read_bytes()[:16] == b"SQLite format 3\x00"

    def test_json_uris_are_refused_naming_migrate(self, tmp_path):
        uri = f"json:{tmp_path / 'j'}"
        expected = re.escape(f"migrate {uri} <store file>")
        with pytest.raises(ValueError, match=expected):
            ResultStore(uri)
        with pytest.raises(ValueError, match=expected):
            open_backend(uri)
        with pytest.raises(ValueError, match=expected):
            run_campaign(small_spec(), uri, log=None)
        with pytest.raises(ValueError, match=expected):
            CampaignService(uri)
        with pytest.raises(ValueError, match=expected):
            report_campaign(uri, "bk")
        assert not (tmp_path / "j").exists()

    def test_a_json_store_directory_is_refused_with_the_migrate_command(self, tmp_path):
        root, _ = json_export(tmp_path, small_spec())
        expected = re.escape(f"migrate json:{root} {root}.db")
        with pytest.raises(ValueError, match=expected):
            ResultStore(root)
        with pytest.raises(ValueError, match=expected):
            run_campaign(small_spec(), root, log=None)

    def test_other_directories_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="is a directory"):
            ResultStore(tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestRecords:
    def test_put_get_roundtrip(self, store):
        record = fake_record(1)
        assert not store.has(record["hash"])
        assert store.put(record)
        assert store.has(record["hash"])
        assert store.get(record["hash"]) == record
        assert store.record_digests_of([record["hash"]]) == [record_digest(record)]

    def test_put_is_idempotent_and_existing_wins(self, store):
        record = fake_record(1)
        assert store.put(record)
        changed = dict(record, result=dict(record["result"], rounds=99))
        assert not store.put(changed)
        assert store.get(record["hash"])["result"]["rounds"] == record["result"]["rounds"]
        assert store.put(changed, overwrite=True)
        assert store.get(record["hash"])["result"]["rounds"] == 99
        assert store.record_digests_of([record["hash"]]) == [record_digest(changed)]

    def test_volatile_fields_do_not_change_the_digest(self):
        record = fake_record(1)
        slower = dict(record, elapsed_s=99.0, elapsed_apportioned=True)
        assert record_digest(record) == record_digest(slower)

    def test_put_many_counts_only_new_records(self, store):
        first = [fake_record(i) for i in range(4)]
        assert store.put_many(first) == 4
        assert store.put_many(first + [fake_record(9)]) == 1
        assert store.count_records() == 5

    def test_batch_reads(self, store):
        records = [fake_record(i) for i in range(7)]
        store.put_many(records)
        hashes = [r["hash"] for r in records]
        assert store.has_many(hashes + ["f" * 64]) == set(hashes)
        assert list(store.get_many(reversed(hashes))) == list(reversed(records))
        assert store.record_digests_of(hashes) == [record_digest(r) for r in records]

    def test_missing_records_raise_keyerror(self, store):
        store.put(fake_record(1))
        with pytest.raises(KeyError):
            store.get("f" * 64)
        with pytest.raises(KeyError):
            list(store.get_many([fake_record(1)["hash"], "f" * 64]))
        with pytest.raises(KeyError):
            store.record_digests_of(["f" * 64])

    def test_iter_records_streams_everything_in_hash_order(self, store):
        records = [fake_record(i) for i in (3, 0, 4, 1, 2)]
        store.put_many(records)
        assert list(store.iter_records()) == sorted(records, key=lambda r: r["hash"])

    def test_manifest_roundtrip_and_digest(self, store, tmp_path):
        """The manifest is canonical JSON whose digest covers spec and records,
        and the json export holds the same bytes."""
        spec = small_spec()
        scenarios = spec.expand()
        from repro.campaign.executor import evaluate_scenarios

        store.put_many(evaluate_scenarios(scenarios))
        _, digest = store.write_manifest(spec, scenarios)
        text = store.read_manifest_text(spec.name)
        manifest = store.read_manifest(spec.name)
        assert manifest["manifest_digest"] == digest
        assert [entry["hash"] for entry in manifest["scenarios"]] == [
            scenario.content_hash() for scenario in scenarios
        ]
        assert store.list_campaigns() == [spec.name]
        migrate_store(store, f"json:{tmp_path / 'export'}")
        assert JsonBackend(tmp_path / "export").read_manifest_text(spec.name) == text

    def test_missing_manifest_names_known_campaigns(self, store):
        with pytest.raises(KeyError, match="no manifest"):
            store.read_manifest("ghost")

    def test_read_only_construction_creates_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert not store.has("a" * 64)
        assert store.has_many(["a" * 64]) == set()
        assert store.count_records() == 0
        assert store.list_campaigns() == []
        assert list(store.iter_records()) == []
        assert list(tmp_path.iterdir()) == []

    def test_backends_survive_pickling(self, store):
        import pickle

        store.put(fake_record(1))
        clone = pickle.loads(pickle.dumps(store))
        assert clone.has(fake_record(1)["hash"])
        assert clone.uri == store.uri

    def test_non_finite_floats_are_refused(self, store):
        record = dict(fake_record(1), result={"ratio": float("nan")})
        with pytest.raises(StoreError, match="NaN or infinite"):
            store.put(record)
        assert store.count_records() == 0


class TestCorruption:
    def test_truncated_json_object_reads_as_missing(self, store):
        record = fake_record(1)
        store.put(record)
        damage(store.root, record["hash"], "substr(record, 1, length(record) - 10)")
        assert not store.has(record["hash"])  # treated as missing...
        assert store.has_many([record["hash"]]) == set()
        with pytest.raises(StoreError, match=re.escape(str(store.root))):
            store.get(record["hash"])  # ...but a direct read names the store

    def test_put_replaces_a_corrupt_object(self, store):
        record = fake_record(1)
        store.put(record)
        damage(store.root, record["hash"], "'{broken'")
        assert store.put_many([record, fake_record(2)]) == 2
        assert store.get(record["hash"]) == record
        assert not store.put(record)  # a readable row wins again

    def test_resume_reevaluates_corrupt_records(self, tmp_path):
        spec = small_spec()
        first = run_campaign(spec, tmp_path / "store", log=None)
        victim = spec.expand()[0].content_hash()
        damage(tmp_path / "store", victim, "'{broken'")
        rerun = run_campaign(spec, tmp_path / "store", log=None)
        assert rerun.executed == 1  # only the corrupt record re-ran
        assert rerun.manifest_digest == first.manifest_digest
        assert ResultStore(tmp_path / "store").get(victim)["hash"] == victim
        assert report_campaign(tmp_path / "store", spec.name).all_match

    def test_corrupt_sqlite_row_raises_storeerror_naming_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "s.db")
        record = fake_record(1)
        store.put(record)
        store.close()
        damage(tmp_path / "s.db", record["hash"], "'{broken'")
        with pytest.raises(StoreError, match="s.db"):
            ResultStore(tmp_path / "s.db").get(record["hash"])

    def test_empty_put_many_writes_nothing(self, store):
        assert store.put_many([]) == 0
        assert not store.root.exists()


class TestMigration:
    @pytest.mark.parametrize("direction", ["export", "import"])
    def test_migrate_preserves_the_digest_chain(self, tmp_path, direction):
        spec = small_spec()
        cold = run_campaign(spec, tmp_path / "store", log=None)
        src, dst = tmp_path / "store", f"json:{tmp_path / 'export'}"
        if direction == "import":
            migrate_store(src, dst)
            src, dst = dst, tmp_path / "imported"
        report = migrate_store(src, dst)
        assert report["records_copied"] == len(spec.expand())
        assert report["records_already_present"] == 0
        assert report["campaigns"] == [
            {"campaign": spec.name, "manifest_digest": cold.manifest_digest}
        ]
        text = ResultStore(tmp_path / "store").read_manifest_text(spec.name)
        if direction == "export":
            assert JsonBackend(tmp_path / "export").read_manifest_text(spec.name) == text
            return
        imported = ResultStore(tmp_path / "imported")
        assert imported.read_manifest_text(spec.name) == text
        # The imported store is a drop-in: resuming against it runs nothing.
        rerun = run_campaign(spec, imported, log=None)
        assert rerun.executed == 0
        assert rerun.manifest_digest == cold.manifest_digest

    def test_migrate_is_resumable_and_merges(self, tmp_path):
        root, _ = json_export(tmp_path, small_spec())
        migrate_store(f"json:{root}", tmp_path / "dst")
        again = migrate_store(f"json:{root}", tmp_path / "dst")
        assert again["records_copied"] == 0
        assert again["records_already_present"] == len(small_spec().expand())

    def test_a_repeated_export_writes_nothing(self, tmp_path):
        root, _ = json_export(tmp_path, small_spec())
        index = root / "index.json"
        before = (index.read_text(), index.stat().st_mtime_ns)
        again = migrate_store(tmp_path / "seed.db", f"json:{root}")
        assert again["records_copied"] == 0
        assert (index.read_text(), index.stat().st_mtime_ns) == before
        assert json.loads(index.read_text()) == {
            record["hash"]: record_digest(record)
            for record in JsonBackend(root).iter_records()
        }

    def test_migrate_rejects_the_same_store(self, tmp_path):
        run_campaign(small_spec(), tmp_path / "store", log=None)
        with pytest.raises(ValueError, match="same store"):
            migrate_store(tmp_path / "store", f"sqlite:{tmp_path / 'store'}")

    def test_migrate_detects_tampered_records(self, tmp_path):
        spec = small_spec()
        root, _ = json_export(tmp_path, spec)
        dst = ResultStore(tmp_path / "dst.db")
        # Pre-seed the destination with a record whose digest disagrees.
        victim = spec.expand()[0].content_hash()
        tampered = ResultStore(tmp_path / "seed.db").get(victim)
        tampered["result"]["rounds"] += 1
        dst.put(tampered)
        with pytest.raises(StoreError, match="digest"):
            migrate_store(f"json:{root}", dst)

    def test_export_detects_a_damaged_object_file(self, tmp_path):
        spec = small_spec()
        root, _ = json_export(tmp_path, spec)
        victim = spec.expand()[0].content_hash()
        path = root / "objects" / victim[:2] / f"{victim}.json"
        path.write_text(path.read_text()[:-10])
        with pytest.raises(StoreError, match=re.escape(str(path))):
            migrate_store(tmp_path / "seed.db", f"json:{root}")


class TestJsonLayout:
    """The json layout ``migrate`` writes and reads: one object file per
    record, whose bytes verification reads, and ``index.json``, flushed once
    per batch and healed when an export is resumed."""

    @pytest.fixture
    def layout(self, tmp_path):
        return JsonBackend(tmp_path / "export")

    @pytest.fixture
    def index_flushes(self, monkeypatch):
        """The indexes ``put_many`` writes, in order."""
        from repro.campaign.backends import json_backend

        flushes = []
        real = json_backend._atomic_write

        def recording(path, text):
            if path.name == "index.json":
                flushes.append(json.loads(text))
            real(path, text)

        monkeypatch.setattr(json_backend, "_atomic_write", recording)
        return flushes

    def test_put_many_counts_only_new_records(self, layout):
        first = [fake_record(i) for i in range(4)]
        assert layout.put_many(first) == 4
        changed = dict(first[0], result={"output_digest": "changed"})
        assert layout.put_many([changed, fake_record(9)]) == 1
        assert next(layout.iter_records()) == first[0]  # the present file wins

    def test_iter_records_streams_everything_in_hash_order(self, layout):
        records = [fake_record(i) for i in (3, 0, 4, 1, 2)]
        layout.put_many(records)
        assert list(layout.iter_records()) == sorted(records, key=lambda r: r["hash"])

    def test_record_digests_are_read_from_the_object_files(self, layout):
        records = [fake_record(i) for i in range(3)]
        layout.put_many(records)
        hashes = [r["hash"] for r in reversed(records)]
        assert layout.record_digests_of(hashes) == [record_digest(r) for r in reversed(records)]
        # A file edited behind the index's back: its digest follows the file.
        edited = dict(records[1], result={"output_digest": "edited"})
        layout._object_path(edited["hash"]).write_text(json.dumps(edited))
        assert layout.record_digests_of([edited["hash"]]) == [record_digest(edited)]

    def test_missing_records_raise_keyerror(self, layout):
        layout.put_many([fake_record(1)])
        with pytest.raises(KeyError, match="f" * 64):
            layout.record_digests_of([fake_record(1)["hash"], "f" * 64])

    def test_missing_manifest_names_the_layout(self, layout):
        with pytest.raises(KeyError, match=re.escape(f"'ghost' in {layout.uri}")):
            layout.read_manifest_text("ghost")
        assert layout.list_campaigns() == []

    def test_put_many_flushes_the_index_once(self, layout, index_flushes):
        records = [fake_record(i) for i in range(4)]
        assert layout.put_many(records) == 4
        assert index_flushes == [{r["hash"]: record_digest(r) for r in records}]

    def test_all_hit_put_many_skips_the_index_flush(self, layout, index_flushes):
        records = [fake_record(i) for i in range(3)]
        layout.put_many(records)
        assert JsonBackend(layout.root).put_many(records) == 0
        assert len(index_flushes) == 1

    def test_empty_put_many_writes_nothing(self, layout, index_flushes):
        assert layout.put_many([]) == 0
        assert index_flushes == []
        assert not layout.root.exists()

    def test_an_import_reads_the_object_files_alone(self, tmp_path):
        spec = small_spec()
        root, digest = json_export(tmp_path, spec)
        (root / "index.json").unlink()
        report = migrate_store(f"json:{root}", tmp_path / "imported")
        assert report["records_copied"] == len(spec.expand())
        assert report["campaigns"] == [{"campaign": spec.name, "manifest_digest": digest}]

    def test_a_killed_export_resumes_and_heals_the_index(self, tmp_path):
        """An export killed mid-batch leaves object files but neither their
        index entries nor the manifests; exporting again writes only what is
        missing and indexes every object file."""
        spec = small_spec()
        root, digest = json_export(tmp_path, spec)
        index = json.loads((root / "index.json").read_text())
        victim = spec.expand()[0].content_hash()
        (root / "index.json").unlink()
        (root / "objects" / victim[:2] / f"{victim}.json").unlink()
        (root / "campaigns" / f"{spec.name}.json").unlink()
        report = migrate_store(tmp_path / "seed.db", f"json:{root}")
        assert report["records_copied"] == 1
        assert report["records_already_present"] == len(spec.expand()) - 1
        assert report["campaigns"] == [{"campaign": spec.name, "manifest_digest": digest}]
        assert json.loads((root / "index.json").read_text()) == index


class TestStoresFromOlderVersions:
    """Older versions cached kernel plans beside the records: an ``artifacts``
    table in sqlite stores, an ``artifacts/plan/`` tree in json stores.  No
    code reads those leftovers any more; stores holding them must keep working,
    and new or migrated stores hold nothing but records and manifests."""

    @pytest.mark.parametrize("scheme", ["json", "sqlite"])
    def test_plan_cache_leftovers_are_never_read(self, tmp_path, scheme):
        spec = small_spec("older")
        key = "ab" + "0" * 62
        if scheme == "json":
            root, digest = json_export(tmp_path, spec)
            leftover = root / "artifacts" / "plan" / key[:2] / f"{key}.bin"
            leftover.parent.mkdir(parents=True)
            leftover.write_bytes(b"not a plan")
            report = migrate_store(f"json:{root}", tmp_path / "imported")
            assert report["records_copied"] == len(spec.expand())
            assert report["campaigns"] == [{"campaign": spec.name, "manifest_digest": digest}]
            assert run_campaign(spec, tmp_path / "imported", log=None).executed == 0
            return

        first = run_campaign(spec, tmp_path / "store", log=None)
        expected_report = report_campaign(tmp_path / "store", spec.name).to_dict()
        with sqlite3.connect(tmp_path / "store") as conn:
            conn.execute(
                "CREATE TABLE artifacts (kind TEXT NOT NULL, key TEXT NOT NULL, "
                "blob BLOB NOT NULL, PRIMARY KEY (kind, key)) WITHOUT ROWID"
            )
            conn.execute("INSERT INTO artifacts VALUES (?, ?, ?)", ("plan", key, b"x"))
        conn.close()

        rerun = run_campaign(spec, tmp_path / "store", log=None)
        assert rerun.executed == 0
        assert rerun.manifest_digest == first.manifest_digest
        assert report_campaign(tmp_path / "store", spec.name).to_dict() == expected_report
        report = migrate_store(tmp_path / "store", f"json:{tmp_path / 'dst'}")
        assert report["records_copied"] == len(spec.expand())
        assert report["campaigns"] == [
            {"campaign": spec.name, "manifest_digest": first.manifest_digest}
        ]

    @pytest.mark.parametrize("scheme", ["json", "sqlite"])
    def test_new_stores_hold_only_records_and_manifests(self, tmp_path, scheme):
        root, _ = json_export(tmp_path, small_spec("fresh"))
        if scheme == "json":
            assert sorted(os.listdir(root)) == ["campaigns", "index.json", "objects"]
            return
        report = migrate_store(f"json:{root}", tmp_path / "imported")
        assert sorted(report) == [
            "campaigns",
            "destination",
            "records_already_present",
            "records_copied",
            "source",
        ]
        for path in (tmp_path / "seed.db", tmp_path / "imported"):
            conn = sqlite3.connect(path)
            try:
                rows = conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
                assert sorted(name for (name,) in rows) == ["manifests", "objects"]
            finally:
                conn.close()


class TestCli:
    def _run(self, tmp_path, spec_name: str, store: str) -> None:
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(small_spec(spec_name).to_json())
        assert campaign_main(["--store", store, "run", str(spec_path), "--json"]) == 0

    def test_list_shows_record_counts_and_backend(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self._run(tmp_path, "listed", store)
        capsys.readouterr()
        assert campaign_main(["--store", store, "list"]) == 0
        out = capsys.readouterr().out
        total = len(small_spec().expand())
        assert "sqlite backend" in out
        assert f"{total} records" in out
        assert f"{total:5d}/{total} records" in out

    def test_migrate_verb_converts_and_verifies(self, tmp_path, capsys):
        src = str(tmp_path / "src")
        exported = f"json:{tmp_path / 'export'}"
        self._run(tmp_path, "mig", src)
        capsys.readouterr()
        assert campaign_main(["migrate", src, exported]) == 0
        assert campaign_main(["migrate", exported, str(tmp_path / "dst")]) == 0
        out = capsys.readouterr().out
        assert out.count("verified") == 2
        assert campaign_main(["--store", str(tmp_path / "dst"), "report", "mig", "--json"]) == 0

    def test_migrate_verb_rejects_bad_uris(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown store scheme"):
            campaign_main(["migrate", f"json:{tmp_path}", "postgres:x"])

    @pytest.mark.parametrize("verb", [["list"], ["run", "smoke"], ["report", "smoke"]])
    def test_json_locations_are_refused_outside_migrate(self, tmp_path, verb):
        root, _ = json_export(tmp_path, small_spec())
        uri = f"json:{tmp_path / 'j'}"
        with pytest.raises(SystemExit, match=re.escape(f"migrate {uri} <store file>")):
            campaign_main(["--store", uri, *verb])
        with pytest.raises(SystemExit, match=re.escape(f"migrate json:{root} {root}.db")):
            campaign_main(["--store", str(root), *verb])
        assert not (tmp_path / "j").exists()


def _writer(path: str, tags: list[int]) -> None:
    ResultStore(path).put_many([fake_record(tag) for tag in tags])


class TestConcurrentWriters:
    def test_two_processes_lose_nothing(self, tmp_path):
        path = str(tmp_path / "store")
        # Overlapping tag ranges: the overlap exercises the existing-record-
        # wins path under contention, the disjoint parts must all land.
        first, second = list(range(0, 40)), list(range(20, 60))
        procs = [
            multiprocessing.Process(target=_writer, args=(path, tags))
            for tags in (first, second)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        store = ResultStore(path)
        expected = [fake_record(tag) for tag in sorted(set(first + second))]
        assert store.count_records() == len(expected)
        assert store.record_digests_of([r["hash"] for r in expected]) == [
            record_digest(r) for r in expected
        ]

    def test_sqlite_killed_mid_transaction_resumes_cleanly(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put_many([fake_record(i) for i in range(5)])
        store.close()
        # A writer that dies inside an open transaction: rows inserted but
        # never committed.  WAL recovery must roll them back on the next open.
        script = f"""
import sqlite3, os
conn = sqlite3.connect({str(tmp_path / 'store')!r}, isolation_level=None)
conn.execute("BEGIN IMMEDIATE")
conn.execute("INSERT INTO objects (hash, digest, record) VALUES ('x'*64, 'd', '{{}}')")
os._exit(1)
"""
        result = subprocess.run([sys.executable, "-c", script], env=os.environ)
        assert result.returncode == 1
        fresh = ResultStore(tmp_path / "store")
        assert fresh.count_records() == 5  # the uncommitted row rolled back
        assert not fresh.has("x" * 64)
        assert fresh.put_many([fake_record(9)]) == 1  # the store still writes
