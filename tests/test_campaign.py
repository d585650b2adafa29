"""Tests for the campaign subsystem: specs, store, executor, aggregation, CLI.

The determinism tests are the load-bearing ones: a campaign's manifest digest
must depend only on the spec and the result payloads -- never on shard order,
worker count, process hash seed, or wall-clock timings -- because that is
what makes the content-addressed store resumable and the sharded executor
trustworthy.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    ALGORITHMS,
    BUILTIN_CAMPAIGNS,
    GRAPH_FAMILIES,
    MODEL_DEFAULT_ALGORITHMS,
    CampaignService,
    CampaignSpec,
    GraphGrid,
    ResultStore,
    Scenario,
    builtin_spec,
    campaign_result,
    load_records,
    run_campaign,
)
from repro.campaign.__main__ import main as campaign_main
from repro.campaign.executor import canonical_value, evaluate_scenarios
from repro.campaign.registry import build_graph, build_numbering, derived_seed
from repro.campaign.store import record_digest


def tiny_spec(name: str = "tiny") -> CampaignSpec:
    return CampaignSpec(
        name=name,
        kind="execution",
        graphs=[GraphGrid.of("cycle", {"n": [4, 5]}), GraphGrid.of("star", {"leaves": 3})],
        port_strategies=["consistent", "random"],
        model_classes=["SB", "MB"],
        seeds=[0, 1],
    )


#: Manifest digests of built-in campaigns.  A digest covers the spec and every
#: record's result payload, so these move only when a record changes.
PINNED_DIGESTS = {
    "smoke": "32aae15efaf7ad7d7110cedf39fb8b5dbbbf9312565c86bea0b892227753ffb9",
    "e3-hierarchy": "80b6e8f8f3d87b6d467c9f08a10d50c3369e6304fd9bc920647e11ceb96f7ab5",
}


def tiny_logic_spec(name: str = "tiny-logic") -> CampaignSpec:
    return CampaignSpec(
        name=name,
        kind="logic",
        graphs=[GraphGrid.of("random-bounded-degree", {"n": 6, "max_degree": 3})],
        model_classes=["SB"],
        formula_sets=["ml-basic", "gml-basic"],
        seeds=[0, 1],
    )


class TestSpecRoundTrip:
    def test_dict_json_dict_is_lossless(self):
        spec = builtin_spec("e3-hierarchy")
        rebuilt = CampaignSpec.from_json(spec.to_json())
        assert rebuilt.to_dict() == spec.to_dict()
        assert rebuilt.digest() == spec.digest()

    @pytest.mark.parametrize("name", sorted(BUILTIN_CAMPAIGNS))
    def test_every_builtin_round_trips(self, name):
        spec = builtin_spec(name)
        rebuilt = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.to_dict() == spec.to_dict()
        assert [s.content_hash() for s in rebuilt.expand()] == [
            s.content_hash() for s in spec.expand()
        ]

    def test_scalar_params_promote_to_sweeps(self):
        grid = GraphGrid.of("grid", {"rows": 2, "cols": [2, 3]})
        assert grid.points() == [
            (("cols", 2), ("rows", 2)),
            (("cols", 3), ("rows", 2)),
        ]

    def test_nested_list_params_survive(self):
        grid = GraphGrid.of("circulant", {"n": 8, "jumps": [[1, 2], [1, 3]]})
        points = grid.points()
        assert len(points) == 2
        assert GraphGrid.of(**{
            "family": grid.to_dict()["family"],
            "params": grid.to_dict()["params"],
        }) == grid

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(name="x", kind="nope", graphs=[])

    def test_scenario_round_trip(self):
        scenario = tiny_spec().expand()[0]
        assert Scenario.from_dict(scenario.to_dict()) == scenario
        assert Scenario.from_dict(scenario.to_dict()).content_hash() == scenario.content_hash()


class TestExpansion:
    def test_expansion_is_deterministic_and_order_stable(self):
        first = tiny_spec().expand()
        second = tiny_spec().expand()
        assert first == second
        # 3 deterministic graph points x 2 classes x (consistent: 1 seed
        # [collapsed] + random: 2 seeds) -- every scenario a distinct hash.
        assert len(first) == 18
        assert len({s.content_hash() for s in first}) == 18

    def test_seed_axis_collapses_where_it_cannot_reach_the_result(self):
        scenarios = tiny_spec().expand()
        consistent_seeds = {s.seed for s in scenarios if s.port_strategy == "consistent"}
        random_seeds = {s.seed for s in scenarios if s.port_strategy == "random"}
        assert consistent_seeds == {0}  # deterministic family + unseeded strategy
        assert random_seeds == {0, 1}
        # A seeded family keeps the full seed axis under every strategy.
        seeded = CampaignSpec(
            name="s",
            kind="execution",
            graphs=[GraphGrid.of("random-tree", {"n": 6})],
            port_strategies=["consistent"],
            model_classes=["SB"],
            seeds=[0, 1, 2],
        )
        assert {s.seed for s in seeded.expand()} == {0, 1, 2}

    def test_kind_mismatched_axes_are_rejected(self):
        with pytest.raises(ValueError, match="formula_sets"):
            CampaignSpec(
                name="x",
                kind="execution",
                graphs=[],
                model_classes=["SB"],
                formula_sets=["ml-basic"],
            )
        with pytest.raises(ValueError, match="algorithms"):
            CampaignSpec(
                name="x", kind="logic", graphs=[], algorithms=["degree"]
            )

    def test_content_hash_ignores_campaign_name(self):
        a = tiny_spec("one").expand()
        b = tiny_spec("two").expand()
        assert [s.content_hash() for s in a] == [s.content_hash() for s in b]

    def test_model_class_sweep_resolves_registry_defaults(self):
        for scenario in tiny_spec().expand():
            assert scenario.algorithm == MODEL_DEFAULT_ALGORITHMS[scenario.model_class]

    def test_execution_spec_requires_a_workload_axis(self):
        spec = CampaignSpec(name="x", kind="execution", graphs=[GraphGrid.of("cycle", {"n": 4})])
        with pytest.raises(ValueError):
            spec.expand()

    def test_unknown_axis_values_fail_fast_at_expand_time(self):
        base = dict(name="x", kind="execution", graphs=[GraphGrid.of("cycle", {"n": 4})])
        for field_name, value, message in (
            ("model_classes", ["sb"], "unknown model class 'sb'"),
            ("port_strategies", ["sorted"], "unknown port strategy"),
            ("engines", ["turbo"], "unknown engine"),
            ("algorithms", ["quicksort"], "unknown algorithm"),
        ):
            spec = CampaignSpec(**base, **{field_name: value})
            if field_name in ("port_strategies", "engines"):
                spec.model_classes = ["SB"]
            with pytest.raises(ValueError, match=message):
                spec.expand()
        bad_family = CampaignSpec(
            name="x", kind="execution", graphs=[GraphGrid.of("moebius", {})], model_classes=["SB"]
        )
        with pytest.raises(ValueError, match="unknown graph family"):
            bad_family.expand()
        bad_param = CampaignSpec(
            name="x",
            kind="execution",
            graphs=[GraphGrid.of("torus", {"row": 3, "cols": 3})],  # typo: 'row'
            model_classes=["SB"],
        )
        with pytest.raises(ValueError, match="unknown parameter 'row'"):
            bad_param.expand()
        # base_* params of derived families are legitimate.
        derived = CampaignSpec(
            name="x",
            kind="execution",
            graphs=[GraphGrid.of("lift", {"base": "cycle", "base_n": 5, "k": 2})],
            model_classes=["SB"],
        )
        assert derived.expand()

    def test_seed_collapse_is_canonical_across_seed_axes(self):
        base = dict(
            kind="execution",
            graphs=[GraphGrid.of("cycle", {"n": 4})],
            port_strategies=["consistent"],
            model_classes=["SB"],
        )
        a = CampaignSpec(name="a", seeds=[0], **base).expand()
        b = CampaignSpec(name="b", seeds=[7, 8], **base).expand()
        assert [s.content_hash() for s in a] == [s.content_hash() for s in b]


class TestRegistry:
    def test_every_family_registered_and_buildable(self):
        samples = {
            "path": {"n": 4},
            "cycle": {"n": 5},
            "star": {"leaves": 3},
            "complete": {"n": 4},
            "complete-bipartite": {"m": 2, "n": 3},
            "grid": {"rows": 2, "cols": 3},
            "torus": {"rows": 3, "cols": 3},
            "hypercube": {"dimension": 3},
            "circulant": {"n": 8, "jumps": [1, 2]},
            "figure9": {},
            "random-regular": {"degree": 3, "n": 8},
            "random": {"n": 8, "probability": 0.4},
            "random-bounded-degree": {"n": 8, "max_degree": 3},
            "random-tree": {"n": 8},
            "double-cover": {"base": "cycle", "base_n": 5},
            "lift": {"base": "cycle", "base_n": 5, "k": 2},
        }
        assert set(samples) == set(GRAPH_FAMILIES)
        for family, params in samples.items():
            graph = build_graph(family, params, seed=1)
            assert graph.number_of_nodes > 0
            # seed-determinism of the registry path
            assert build_graph(family, params, seed=1) == graph

    def test_unknown_names_raise_with_suggestions(self):
        with pytest.raises(KeyError, match="known families"):
            build_graph("moebius", {}, seed=0)
        with pytest.raises(KeyError, match="known"):
            build_numbering("sorted", build_graph("cycle", {"n": 4}), 0)

    def test_model_defaults_cover_all_classes(self):
        assert set(MODEL_DEFAULT_ALGORITHMS) == {"SB", "MB", "VB", "SV", "MV", "VV", "VVc"}
        assert set(MODEL_DEFAULT_ALGORITHMS.values()) <= set(ALGORITHMS)

    def test_derived_seed_is_process_independent(self):
        # Known value: must never change (records in existing stores depend on it).
        assert derived_seed("ports", 0) == derived_seed("ports", 0)
        assert derived_seed("ports", 0) != derived_seed("ports", 1)

    def test_port_strategies_deterministic(self):
        graph = build_graph("star", {"leaves": 4}, seed=0)
        a = build_numbering("random", graph, 7)
        b = build_numbering("random", graph, 7)
        assert a.outgoing_assignment() == b.outgoing_assignment()
        assert a.incoming_assignment() == b.incoming_assignment()


class TestCanonicalValue:
    def test_scalars_pass_through(self):
        assert canonical_value(3) == 3
        assert canonical_value("x") == "x"
        assert canonical_value(None) is None

    def test_unordered_collections_are_sorted(self):
        assert canonical_value(frozenset({3, 1, 2})) == [1, 2, 3]
        assert canonical_value((1, frozenset({"b", "a"}))) == [1, ["a", "b"]]


class TestStore:
    def test_put_get_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = tiny_spec().expand()[0]
        [record] = evaluate_scenarios([scenario])
        assert store.put(record) is True
        assert store.put(record) is False
        assert store.get(record["hash"])["result"] == record["result"]
        assert store.has(record["hash"])
        with pytest.raises(KeyError):
            store.get("0" * 64)

    def test_record_digest_ignores_timing(self):
        scenario = tiny_spec().expand()[0]
        [record] = evaluate_scenarios([scenario])
        slower = dict(record, elapsed_s=record["elapsed_s"] + 100)
        assert record_digest(slower) == record_digest(record)

    def test_index_self_heals(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = tiny_spec().expand()[0]
        [record] = evaluate_scenarios([scenario])
        store.put(record)
        store.save_index()
        # Simulate an interrupted earlier run: record on disk, index lost.
        fresh = ResultStore(tmp_path / "store")
        fresh.index_path.unlink()
        assert fresh.record_digest_of(record["hash"]) == record_digest(record)

    def test_lost_index_is_healed_and_persisted_by_a_warm_resume(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "store")
        (tmp_path / "store" / "index.json").unlink()
        warm = run_campaign(spec, tmp_path / "store")
        assert warm.executed == 0
        healed = json.loads((tmp_path / "store" / "index.json").read_text())
        assert len(healed) == warm.total

    def test_missing_manifest_raises_keyerror(self, tmp_path):
        with pytest.raises(KeyError, match="no manifest"):
            ResultStore(tmp_path / "store").read_manifest("ghost")

    def test_read_only_construction_creates_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.list_campaigns() == []
        assert not (tmp_path / "store").exists()

    def test_stale_index_entry_does_not_fake_a_store_hit(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = tiny_spec().expand()[0]
        [record] = evaluate_scenarios([scenario])
        store.put(record)
        store.save_index()
        # Prune the object but keep the index, as a partial copy would.
        store._object_path(record["hash"]).unlink()
        fresh = ResultStore(tmp_path / "store")
        assert not fresh.has(record["hash"])
        # A resumed run re-executes the scenario instead of skipping it.
        resumed = run_campaign(tiny_spec(), fresh)
        assert resumed.executed >= 1
        assert fresh.has(record["hash"])


class TestDeterminism:
    """The acceptance criteria: serial == sharded, resume hits the store."""

    def test_serial_and_sharded_manifests_byte_identical(self, tmp_path):
        spec = tiny_spec()
        serial = run_campaign(spec, tmp_path / "serial")
        sharded = run_campaign(spec, tmp_path / "sharded", workers=3)
        assert serial.manifest_digest == sharded.manifest_digest
        serial_bytes = (tmp_path / "serial" / "campaigns" / "tiny.json").read_bytes()
        sharded_bytes = (tmp_path / "sharded" / "campaigns" / "tiny.json").read_bytes()
        assert serial_bytes == sharded_bytes

    def test_logic_campaign_serial_vs_sharded(self, tmp_path):
        spec = tiny_logic_spec()
        serial = run_campaign(spec, tmp_path / "serial")
        sharded = run_campaign(spec, tmp_path / "sharded", workers=2)
        assert serial.manifest_digest == sharded.manifest_digest

    def test_resume_skips_completed_scenarios(self, tmp_path):
        spec = tiny_spec()
        cold = run_campaign(spec, tmp_path / "store")
        warm = run_campaign(spec, tmp_path / "store")
        assert cold.executed == cold.total and cold.skipped == 0
        assert warm.executed == 0 and warm.skipped == warm.total
        assert warm.store_hit_rate >= 0.95
        assert warm.manifest_digest == cold.manifest_digest

    def test_partial_store_resumes_only_the_rest(self, tmp_path):
        spec = tiny_spec()
        scenarios = spec.expand()
        store = ResultStore(tmp_path / "store")
        # Pre-populate half the scenarios, as an interrupted run would.
        for record in evaluate_scenarios(scenarios[: len(scenarios) // 2]):
            store.put(record)
        store.save_index()
        resumed = run_campaign(spec, store)
        assert resumed.skipped == len(scenarios) // 2
        assert resumed.executed == len(scenarios) - len(scenarios) // 2
        # And the result is indistinguishable from a cold one-shot run.
        cold = run_campaign(spec, tmp_path / "cold")
        assert resumed.manifest_digest == cold.manifest_digest

    def test_warm_e3_resume_hits_store_and_is_5x_faster(self, tmp_path):
        """The acceptance criterion on the built-in E3 hierarchy survey.

        A re-run against a warm store must answer >= 95% of scenarios from
        the store and finish >= 5x faster than the cold run (observed margin
        is >= 13x, so the bar tolerates noisy CI neighbours).
        """
        import time

        spec = builtin_spec("e3-hierarchy")
        store = ResultStore(tmp_path / "store")
        started = time.perf_counter()
        cold = run_campaign(spec, store)
        cold_wall = time.perf_counter() - started

        started = time.perf_counter()
        warm = run_campaign(spec, store)
        warm_wall = time.perf_counter() - started

        assert warm.store_hit_rate >= 0.95
        assert warm.manifest_digest == cold.manifest_digest
        assert cold_wall / warm_wall >= 5.0, (
            f"warm resume only {cold_wall / warm_wall:.1f}x faster "
            f"(cold {cold_wall:.3f}s, warm {warm_wall:.3f}s)"
        )

    @pytest.mark.parametrize("path", ["serial", "sharded", "service", "rerun"])
    @pytest.mark.parametrize("scheme", ["json", "sqlite"])
    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_builtin_manifest_digests_are_pinned(self, tmp_path, name, scheme, path):
        """The built-in campaigns' records are fixed: any execution path over
        either backend reproduces the same manifest digest, byte for byte.
        ``rerun`` re-evaluates a populated store (``resume=False``) on the
        warm in-process tables the first run left behind."""
        uri = f"{scheme}:{tmp_path / 'store'}"
        if path == "service":
            service = CampaignService(uri, workers=2)
            try:
                job = service.submit(builtin_spec(name))
                assert service.wait(job, timeout=300)
                digest = service.status(job)["manifest_digest"]
            finally:
                service.shutdown(wait=False)
        else:
            workers = 2 if path == "sharded" else None
            digest = run_campaign(
                builtin_spec(name), uri, workers=workers, log=None
            ).manifest_digest
            if path == "rerun":
                assert digest == PINNED_DIGESTS[name]
                rerun = run_campaign(builtin_spec(name), uri, resume=False, log=None)
                assert rerun.executed == rerun.total
                digest = rerun.manifest_digest
        assert digest == PINNED_DIGESTS[name]

    def test_engine_knob_does_not_change_results(self, tmp_path):
        compiled = CampaignSpec(
            name="knob",
            kind="execution",
            graphs=[GraphGrid.of("cycle", {"n": 5})],
            model_classes=["MB"],
            engines=["compiled"],
        )
        reference = CampaignSpec.from_dict(dict(compiled.to_dict(), engines=["reference"]))
        run_campaign(compiled, tmp_path / "store")
        run_campaign(reference, tmp_path / "store")
        store = ResultStore(tmp_path / "store")
        _, compiled_records = load_records(store, "knob")
        for record in compiled_records:
            twin = dict(record["scenario"], engine="reference")
            twin_record = store.get(Scenario.from_dict(twin).content_hash())
            assert twin_record["result"]["outputs"] == record["result"]["outputs"]


class TestAggregation:
    def test_execution_rollups_respect_expectations(self, tmp_path):
        spec = builtin_spec("smoke")
        run_campaign(spec, tmp_path / "store")
        stored_spec, records = load_records(ResultStore(tmp_path / "store"), "smoke")
        result = campaign_result(stored_spec, records)
        assert result.all_match
        assert {row.metric.split(" ")[0] for row in result.rows} == {
            "some-odd-neighbour",
            "neighbour-degree-sum",
        }

    def test_logic_expectations_are_honoured(self, tmp_path):
        spec = tiny_logic_spec()
        # Fact 1 genuinely holds here; expecting the opposite must fail rows.
        spec.expectations = {"ml-basic": False}
        run_campaign(spec, tmp_path / "store")
        stored_spec, records = load_records(ResultStore(tmp_path / "store"), spec.name)
        result = campaign_result(stored_spec, records)
        failing = {row.metric.split(" ")[0] for row in result.rows if not row.matches}
        assert failing == {"ml-basic"}

    def test_logic_rollups_report_fact1(self, tmp_path):
        spec = tiny_logic_spec()
        run_campaign(spec, tmp_path / "store")
        stored_spec, records = load_records(ResultStore(tmp_path / "store"), spec.name)
        result = campaign_result(stored_spec, records)
        assert result.all_match
        assert all("Fact 1" in row.paper for row in result.rows)

    def test_numbering_variation_across_seeds_is_compared(self, tmp_path):
        """Regression: on a deterministic family, scenarios that differ only
        in seed run the *same graph* under different random numberings, so
        they must share an invariance bucket -- port-echo varies there."""
        spec = CampaignSpec(
            name="seed-bucket",
            kind="execution",
            graphs=[GraphGrid.of("cycle", {"n": 4})],
            port_strategies=["random"],
            model_classes=["VV"],
            seeds=[0, 1],
            expectations={"port-echo": False},
        )
        run_campaign(spec, tmp_path / "store")
        stored_spec, records = load_records(ResultStore(tmp_path / "store"), spec.name)
        result = campaign_result(stored_spec, records)
        assert result.all_match, [row.measured for row in result.rows]

    def test_double_cover_of_deterministic_base_collapses_seeds(self):
        spec = CampaignSpec(
            name="dc",
            kind="execution",
            graphs=[GraphGrid.of("double-cover", {"base": "cycle", "base_n": 5})],
            port_strategies=["consistent"],
            model_classes=["SB"],
            seeds=[0, 1, 2],
        )
        assert len(spec.expand()) == 1  # deterministic lift of a deterministic base
        seeded = CampaignSpec.from_dict(
            dict(spec.to_dict(), graphs=[{"family": "lift", "params": {"base": "cycle", "base_n": 5, "k": 2}}])
        )
        assert len(seeded.expand()) == 3  # lift permutations genuinely consume the seed

    def test_pinned_seed_param_makes_a_family_deterministic(self, tmp_path):
        """Regression: {'seed': 5} pins the generator (build_graph ignores
        the scenario seed), so seed-axis collapse and invariance bucketing
        must treat the family as unseeded."""
        spec = CampaignSpec(
            name="pinned",
            kind="execution",
            graphs=[GraphGrid.of("random-tree", {"n": 7, "seed": 5})],
            port_strategies=["consistent", "random"],
            model_classes=["VV"],
            seeds=[0, 1],
            expectations={"port-echo": False},
        )
        scenarios = spec.expand()
        # consistent collapses to one seed; random keeps both -- and all
        # three scenarios share one graph point (the pinned tree).
        assert len(scenarios) == 3
        assert len({s.graph_point() for s in scenarios}) == 1
        run_campaign(spec, tmp_path / "store")
        stored_spec, records = load_records(ResultStore(tmp_path / "store"), spec.name)
        result = campaign_result(stored_spec, records)
        assert result.all_match, [row.measured for row in result.rows]

    def test_no_resume_replaces_stored_records(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(tmp_path / "store")
        run_campaign(spec, store)
        scenario_hash = spec.expand()[0].content_hash()
        # Tamper with a stored record, as a changed algorithm would.
        stale = store.get(scenario_hash)
        stale["result"]["rounds"] = 999
        store.put(stale, overwrite=True)
        refreshed = run_campaign(spec, store, resume=False)
        assert refreshed.executed == refreshed.total
        assert store.get(scenario_hash)["result"]["rounds"] != 999

    def test_violated_expectation_fails_the_row(self, tmp_path):
        spec = tiny_spec()
        # some-odd-neighbour genuinely is numbering-invariant; expect the opposite.
        spec.expectations = {"some-odd-neighbour": False}
        run_campaign(spec, tmp_path / "store")
        stored_spec, records = load_records(ResultStore(tmp_path / "store"), spec.name)
        result = campaign_result(stored_spec, records)
        failing = [row for row in result.rows if not row.matches]
        assert [row.metric.split(" ")[0] for row in failing] == ["some-odd-neighbour"]


class TestCli:
    def test_run_resume_report_pipeline(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert campaign_main(["--store", store, "run", "smoke", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 already stored" in out and "ALL EXPERIMENTS MATCH" in out
        assert campaign_main(["--store", store, "resume", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "12 already stored" in out
        assert campaign_main(["--store", store, "report", "smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_match"] is True
        assert payload["experiment_id"] == "campaign:smoke"

    def test_run_from_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "custom.json"
        spec_path.write_text(tiny_spec("custom").to_json())
        store = str(tmp_path / "store")
        assert campaign_main(["--store", store, "run", str(spec_path)]) == 0
        assert "custom" in ResultStore(store).list_campaigns()

    def test_list_shows_builtins_and_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        campaign_main(["--store", store, "run", "smoke", "--json"])
        capsys.readouterr()
        assert campaign_main(["--store", store, "list"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_CAMPAIGNS:
            assert name in out
        assert "digest" in out

    def test_resume_prefers_the_stored_manifest_over_a_builtin(self, tmp_path, capsys):
        # Run a customized spec that reuses a built-in name...
        custom = tiny_spec("smoke")
        store = str(tmp_path / "store")
        run_campaign(custom, store)
        capsys.readouterr()
        # ...then resume by name: the stored campaign must win, not the built-in.
        assert campaign_main(["--store", store, "resume", "smoke"]) == 0
        out = capsys.readouterr().out
        assert f"{custom.expand().__len__()} scenarios" in out
        assert "already stored" in out and "0 to run" in out

    def test_interrupted_serial_run_keeps_completed_chunks(self, tmp_path, monkeypatch):
        from repro.campaign import executor

        spec = tiny_spec()
        scenarios = spec.expand()
        monkeypatch.setattr(executor, "SERVICE_SHARD", 4)
        calls = {"n": 0}
        real = executor.evaluate_scenarios

        def failing_second_chunk(batch):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return real(batch)

        monkeypatch.setattr(executor, "evaluate_scenarios", failing_second_chunk)
        store = ResultStore(tmp_path / "store")
        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, store)
        # The first chunk's records survived the interrupt...
        assert sum(store.has(s.content_hash()) for s in scenarios) == 4
        # ...and a resumed run only executes the remainder.
        monkeypatch.setattr(executor, "evaluate_scenarios", real)
        resumed = run_campaign(spec, store)
        assert resumed.skipped == 4
        assert resumed.executed == len(scenarios) - 4

    def test_unknown_campaign_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown campaign"):
            campaign_main(["--store", str(tmp_path), "run", "nope"])
        with pytest.raises(SystemExit, match="no manifest"):
            campaign_main(["--store", str(tmp_path), "report", "nope"])


class TestCorrespondenceCampaigns:
    """The Theorem 2 round-trip scenario kind."""

    @staticmethod
    def tiny_correspondence_spec(name: str = "tiny-corr") -> CampaignSpec:
        return CampaignSpec(
            name=name,
            kind="correspondence",
            graphs=[GraphGrid.of("cycle", {"n": 4}), GraphGrid.of("star", {"leaves": 3})],
            port_strategies=["consistent", "random"],
            model_classes=["SB", "MV"],
            machines=["parity"],
            seeds=[0, 1],
        )

    def test_spec_round_trips_with_the_machines_axis(self):
        spec = self.tiny_correspondence_spec()
        clone = CampaignSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.machines == ["parity"]

    def test_scenarios_carry_the_machine_workload(self):
        scenarios = self.tiny_correspondence_spec().expand()
        assert scenarios
        assert all(s.kind == "correspondence" for s in scenarios)
        assert all(s.machine == "parity" for s in scenarios)
        assert all(s.algorithm is None and s.formula_set is None for s in scenarios)
        # Scenario round trip keeps the machine field.
        for scenario in scenarios[:3]:
            assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_non_correspondence_hashes_are_unchanged(self):
        """Execution/logic records must keep their store addresses: the
        ``machine`` key is only serialized when set."""
        scenario = tiny_spec().expand()[0]
        assert "machine" not in scenario.to_dict()

    def test_machines_axis_rejected_for_other_kinds(self):
        with pytest.raises(ValueError, match="machines"):
            CampaignSpec(
                name="bad",
                kind="execution",
                graphs=[GraphGrid.of("cycle", {"n": 4})],
                model_classes=["SB"],
                machines=["parity"],
            )

    def test_unknown_machine_fails_at_expansion(self):
        spec = self.tiny_correspondence_spec()
        spec.machines = ["no-such-machine"]
        with pytest.raises(ValueError, match="unknown machine"):
            spec.expand()

    def test_default_machine_fills_an_empty_axis(self):
        spec = self.tiny_correspondence_spec()
        spec.machines = []
        assert all(s.machine == "parity" for s in spec.expand())

    def test_campaign_runs_and_rolls_up_all_agree(self, tmp_path):
        spec = self.tiny_correspondence_spec()
        run = run_campaign(spec, tmp_path / "store")
        assert run.executed == run.total
        stored_spec, records = load_records(ResultStore(tmp_path / "store"), spec.name)
        assert all(record["result"]["agree"] for record in records)
        assert all(record["result"]["oracle_checked"] for record in records)
        assert all(
            record["result"]["dag_size"] <= record["result"]["tree_size"]
            for record in records
        )
        result = campaign_result(stored_spec, records)
        assert result.all_match
        assert {row.metric for row in result.rows} == {"parity on SB", "parity on MV"}
        assert all("Theorem 2" in row.paper for row in result.rows)

    def test_oracle_evaluates_each_distinct_transition_once_per_worker(self, monkeypatch):
        """The worker's round-trip triple carries the seed oracle's memo
        across the scenarios of one (machine, class, Delta) coordinate."""
        from repro.campaign import executor
        from repro.modal.formula_to_algorithm import FormulaAlgorithm

        transitions: list = []
        real = FormulaAlgorithm.transition

        def counting(self, state, received):
            transitions.append((id(self), state, received))
            return real(self, state, received)

        executor.clear_worker_memo()
        monkeypatch.setattr(FormulaAlgorithm, "transition", counting)
        try:
            scenarios = [
                s
                for s in self.tiny_correspondence_spec().expand()
                if s.family == "star" and s.model_class == "MV"
            ]
            assert len(scenarios) > 1
            records = executor.evaluate_scenarios(scenarios)
            assert all(record["result"]["agree"] for record in records)
            assert all(record["result"]["oracle_checked"] for record in records)
            assert transitions
            assert len(transitions) == len(set(transitions))
        finally:
            executor.clear_worker_memo()

    def test_sharded_manifest_matches_serial(self, tmp_path):
        spec = self.tiny_correspondence_spec()
        serial = run_campaign(spec, tmp_path / "serial")
        sharded = run_campaign(spec, tmp_path / "sharded", workers=2)
        assert serial.manifest_digest == sharded.manifest_digest

    def test_resume_skips_stored_roundtrips(self, tmp_path):
        spec = self.tiny_correspondence_spec()
        run_campaign(spec, tmp_path / "store")
        resumed = run_campaign(spec, tmp_path / "store")
        assert resumed.executed == 0
        assert resumed.store_hit_rate == 1.0

    def test_builtin_e2_correspondence_spec_expands(self):
        spec = builtin_spec("e2-correspondence")
        scenarios = spec.expand()
        assert len(scenarios) > 50
        # The non-trivial topologies of the satellite requirement are axes.
        families = {s.family for s in scenarios}
        assert {"circulant", "torus", "lift"} <= families
        assert {s.model_class for s in scenarios} == {"SB", "MB", "VB", "MV", "SV", "VV"}


class TestSweepEngineCampaigns:
    """The superposed sweep engine as a first-class campaign engine value."""

    def test_sweep_engine_matches_compiled_results(self, tmp_path):
        compiled = CampaignSpec(
            name="knob-sweep",
            kind="execution",
            graphs=[GraphGrid.of("cycle", {"n": 5}), GraphGrid.of("star", {"leaves": 3})],
            port_strategies=["consistent", "random"],
            model_classes=["MB", "MV"],
            engines=["compiled"],
        )
        sweep = CampaignSpec.from_dict(dict(compiled.to_dict(), engines=["sweep"]))
        run_campaign(compiled, tmp_path / "store")
        run_campaign(sweep, tmp_path / "store")
        store = ResultStore(tmp_path / "store")
        _, compiled_records = load_records(store, "knob-sweep")
        for record in compiled_records:
            twin = dict(record["scenario"], engine="sweep")
            twin_record = store.get(Scenario.from_dict(twin).content_hash())
            assert twin_record["result"]["outputs"] == record["result"]["outputs"]
            assert twin_record["result"]["rounds"] == record["result"]["rounds"]

    def test_sweep_engine_rejected_for_logic_campaigns(self):
        spec = CampaignSpec(
            name="bad",
            kind="logic",
            graphs=[GraphGrid.of("cycle", {"n": 4})],
            model_classes=["SB"],
            formula_sets=["ml-basic"],
            engines=["sweep"],
        )
        with pytest.raises(ValueError, match="unknown engine"):
            spec.expand()

    def test_builtin_execution_campaigns_run_superposed(self):
        for name in ("e3-hierarchy", "e2-correspondence", "smoke"):
            assert builtin_spec(name).engines == ["sweep"], name

    def test_sweep_sharded_manifest_matches_serial(self, tmp_path):
        spec = tiny_spec("tiny-sweep")
        spec.engines = ["sweep"]
        serial = run_campaign(spec, tmp_path / "serial")
        sharded = run_campaign(spec, tmp_path / "sharded", workers=3)
        assert serial.manifest_digest == sharded.manifest_digest


class TestIndexFlushAndRecovery:
    """index.json is acceleration only: the object files carry the resume."""

    def test_put_many_flushes_the_index_once(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        scenarios = tiny_spec().expand()[:4]
        records = evaluate_scenarios(scenarios)
        flushes = {"n": 0}
        real = ResultStore.save_index

        def counting_save(self):
            flushes["n"] += 1
            return real(self)

        monkeypatch.setattr(ResultStore, "save_index", counting_save)
        assert store.put_many(records) == len(records)
        assert flushes["n"] == 1
        assert json.loads(store.index_path.read_text()).keys() == {
            record["hash"] for record in records
        }

    def test_kill_mid_chunk_resumes_from_object_files_alone(self, tmp_path):
        """A run killed mid-chunk leaves object files but no flushed index;
        the objects alone must carry the resume and re-derive the index."""
        spec = tiny_spec("killed")
        scenarios = spec.expand()
        store = ResultStore(tmp_path / "store")
        for record in evaluate_scenarios(scenarios[:3]):
            store.put(record)  # no save_index(): the process died mid-chunk
        assert not store.index_path.exists()
        fresh = ResultStore(tmp_path / "store")
        resumed = run_campaign(spec, fresh)
        assert resumed.skipped == 3
        assert resumed.executed == len(scenarios) - 3
        cold = run_campaign(spec.__class__.from_dict(spec.to_dict()), tmp_path / "cold")
        assert resumed.manifest_digest == cold.manifest_digest
        healed = json.loads(fresh.index_path.read_text())
        assert len(healed) == len(scenarios)

    def test_sharded_run_flushes_index_per_shard(self, tmp_path):
        spec = tiny_spec("sharded-flush")
        run_campaign(spec, tmp_path / "store", workers=2)
        index = json.loads((tmp_path / "store" / "index.json").read_text())
        assert len(index) == len(spec.expand())


class TestWorkerMemo:
    def test_graph_memo_is_reused_across_chunks(self, monkeypatch):
        from repro.campaign import executor, registry

        executor.clear_worker_memo()
        builds = {"n": 0}
        real = registry.build_graph

        def counting_build(family, params, seed=None):
            builds["n"] += 1
            return real(family, params, seed=seed)

        monkeypatch.setattr(executor.registry, "build_graph", counting_build)
        try:
            scenarios = tiny_spec("memo").expand()
            distinct_points = {s.graph_point() for s in scenarios}
            # Two chunks over the same scenarios: the second builds nothing.
            executor.evaluate_scenarios(scenarios[: len(scenarios) // 2])
            executor.evaluate_scenarios(scenarios[len(scenarios) // 2 :])
            first = builds["n"]
            assert first <= len(distinct_points)
            executor.evaluate_scenarios(scenarios)
            assert builds["n"] == first
        finally:
            executor.clear_worker_memo()

    def test_algorithm_memo_keeps_warm_sweep_tables_across_chunks(self):
        from repro.campaign import executor

        executor.clear_worker_memo()
        try:
            spec = tiny_spec("warm-tables")
            spec.engines = ["sweep"]
            scenarios = spec.expand()
            executor.evaluate_scenarios(scenarios[: len(scenarios) // 2])
            wrapper = executor._worker_algorithm("some-odd-neighbour")
            assert wrapper.memoizes_transitions
            tables = wrapper.sweep_tables
            assert tables is not None and tables.configs
            executor.evaluate_scenarios(scenarios[len(scenarios) // 2 :])
            # Same wrapper, same (warm) tables on the later chunk.
            assert executor._worker_algorithm("some-odd-neighbour") is wrapper
            assert wrapper.sweep_tables is tables
        finally:
            executor.clear_worker_memo()

    def test_eviction_counter(self):
        from repro import obs
        from repro.campaign.executor import _memo_put

        obs.reset()
        obs.enable()
        try:
            memo: dict = {}
            for i in range(3):
                _memo_put(memo, f"k{i}", i, limit=2)
            # Third insert tripped the cap: the memo was cleared, then the
            # newcomer stored.
            assert memo == {"k2": 2}
            assert obs.snapshot()["counters"].get("campaign.memo.evictions", 0) == 1
        finally:
            obs.disable()
            obs.reset()

    def test_default_memo_bound_is_512(self):
        from repro.campaign.executor import _memo_put

        memo: dict = {}
        for i in range(512):
            _memo_put(memo, i, i)
        assert len(memo) == 512
        _memo_put(memo, "overflow", 0)
        assert memo == {"overflow": 0}

    def test_replacing_a_registration_invalidates_the_memo(self):
        from repro.campaign import executor, registry

        scenario = tiny_spec("memo-inval").expand()[0]
        graph, _ = executor._materialize(scenario)
        assert executor._WORKER_GRAPHS  # memoized
        # Re-registering any entry (even an unrelated family) must drop the
        # memo so the replacement is observed by the next scenario.
        registry.register_graph_family(registry.GRAPH_FAMILIES["cycle"])
        assert not executor._WORKER_GRAPHS
        rebuilt, _ = executor._materialize(scenario)
        assert rebuilt == graph


class TestShardEntryPoint:
    """``_run_shard`` is what a pool worker runs: records plus a metrics delta."""

    def test_records_match_serial_evaluation_and_no_delta_without_telemetry(self):
        from repro import obs
        from repro.campaign.executor import _run_shard

        obs.disable()
        scenarios = tiny_spec("shard").expand()
        records, delta = _run_shard(scenarios)
        assert delta is None
        assert [r["hash"] for r in records] == [s.content_hash() for s in scenarios]
        assert [record_digest(r) for r in records] == [
            record_digest(r) for r in evaluate_scenarios(scenarios)
        ]

    def test_delta_covers_only_its_own_shard(self):
        from repro import obs
        from repro.campaign.executor import _run_shard

        scenarios = tiny_spec("shard-delta").expand()
        first, second = scenarios[:5], scenarios[5:]
        obs.reset()
        obs.enable()
        try:
            _, first_delta = _run_shard(first)
            _, second_delta = _run_shard(second)
        finally:
            obs.disable()
            obs.reset()
        # A long-lived worker accumulates across shards; each delta must
        # carry just its own shard so the parent's merge counts it once.
        assert first_delta["counters"]["campaign.scenarios.execution"] == len(first)
        assert second_delta["counters"]["campaign.scenarios.execution"] == len(second)
        shard_sizes = second_delta["histograms"]["campaign.shard.scenarios"]
        assert shard_sizes["count"] == 1 and shard_sizes["sum"] == len(second)
