"""Tests for the unified telemetry layer (``repro.obs``).

The load-bearing properties:

* **exact merge accounting** -- workers accumulating into their own process
  registries and returning snapshot deltas must, after the parent merges
  them, equal a serial run of the same work exactly (no double counting, no
  drops);
* **disabled means near-free** -- with the registry disabled every mutator
  is a single module-global boolean check, cheap enough that instrumented
  hot paths cost well under 5% of a small sweep's wall time;
* **trace/metrics/manifest agreement** -- the span trace a sharded campaign
  writes and the counters it accumulates must reproduce the campaign's own
  manifest and store accounting (scenario counts, records written);
* **live introspection** -- the service's ``status``/``metrics`` protocol
  verbs expose a self-consistent snapshot over TCP
  (``executed + store_hits + inflight_hits == submitted``).
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import logging
import multiprocessing
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.campaign import (
    CampaignService,
    CampaignServiceServer,
    CampaignSpec,
    GraphGrid,
    ResultStore,
    ServiceClient,
    run_campaign,
)
from repro.algorithms.basic import (
    BroadcastMinimumDegreeAlgorithm,
    GatherDegreesAlgorithm,
    NeighbourDegreeSumAlgorithm,
)
from repro.algorithms.leaf_election import LeafElectionAlgorithm
from repro.algorithms.parity import SomeOddNeighbourAlgorithm
from repro.campaign.backends import record_digest
from repro.execution.engine import compile_instance
from repro.execution.sweep import SweepStats, run_sweep
from repro.graphs.generators import cycle_graph, random_regular_graph
from repro.graphs.ports import all_port_numberings, random_port_numbering
from repro.machines.library import reference_machine
from repro.machines.models import ProblemClass
from repro.machines.state_machine import algorithm_from_machine
from repro.modal.algorithm_to_formula import formula_for_machine
from repro.modal.formula_to_algorithm import algorithm_for_formula


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts and ends with telemetry off and the registry empty."""
    obs.disable()
    obs.REGISTRY.clear()
    obs.stop_tracing()
    obs.clear_ring()
    yield
    obs.disable()
    obs.REGISTRY.clear()
    obs.stop_tracing()
    obs.clear_ring()


def exec_spec(name: str = "obs-survey", sizes: list[int] | None = None) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        kind="execution",
        graphs=[GraphGrid.of("cycle", {"n": sizes or [4, 5, 6]})],
        port_strategies=["consistent"],
        model_classes=["SB", "MB"],
        engines=["sweep"],
        seeds=[0],
    )


# --------------------------------------------------------------------------- #
# Metrics registry basics
# --------------------------------------------------------------------------- #


class TestMetricsBasics:
    def test_disabled_mutations_are_noops(self):
        obs.counter("c").inc(5)
        obs.gauge("g").set(3)
        obs.histogram("h").observe(0.5)
        snap = obs.snapshot()
        assert snap["counters"]["c"] == 0
        assert snap["gauges"]["g"] == 0
        assert snap["histograms"]["h"]["count"] == 0

    def test_enabled_accumulation(self):
        obs.enable()
        obs.counter("c").inc()
        obs.counter("c").inc(2.5)
        obs.gauge("g").set(7)
        obs.gauge("g").add(-2)
        obs.histogram("h", buckets=(1.0, 10.0)).observe(0.5)
        obs.histogram("h").observe(50)
        snap = obs.snapshot()
        assert snap["counters"]["c"] == 3.5
        assert snap["gauges"]["g"] == 5
        hist = snap["histograms"]["h"]
        assert hist["count"] == 2
        assert hist["sum"] == 50.5
        # 0.5 lands in the <=1 cell, 50 overflows into the last cell.
        assert hist["counts"][0] == 1
        assert hist["counts"][-1] == 1

    def test_counter_accepts_negative_increments(self):
        # The service demotes a store hit to an in-flight hit after the fact;
        # the mirror decrement must be representable.
        obs.enable()
        obs.counter("c").inc(3)
        obs.counter("c").inc(-1)
        assert obs.snapshot()["counters"]["c"] == 2

    def test_kind_conflict_raises(self):
        obs.counter("same")
        with pytest.raises(ValueError, match="same"):
            obs.gauge("same")

    def test_thread_safety_exact_total(self):
        obs.enable()
        per_thread, threads = 2000, 8

        def work():
            for _ in range(per_thread):
                obs.counter("threaded").inc()
                obs.histogram("threaded.h", buckets=(1.0,)).observe(1)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        snap = obs.snapshot()
        assert snap["counters"]["threaded"] == per_thread * threads
        assert snap["histograms"]["threaded.h"]["count"] == per_thread * threads


# --------------------------------------------------------------------------- #
# Snapshot / delta / merge
# --------------------------------------------------------------------------- #


def _delta_work(values: list[int]) -> dict:
    """What a pool worker does: accumulate locally, return only the delta."""
    obs.set_enabled(True)
    before = obs.snapshot()
    for value in values:
        obs.counter("merge.items").inc()
        obs.histogram("merge.values", buckets=(2.0, 5.0, 10.0)).observe(value)
    return obs.snapshot_delta(before, obs.snapshot())


class TestSnapshotMerge:
    def test_delta_subtracts_preexisting_state(self):
        obs.enable()
        obs.counter("merge.items").inc(100)  # pre-existing noise
        delta = _delta_work([1, 3, 7])
        assert delta["counters"]["merge.items"] == 3
        assert delta["histograms"]["merge.values"]["count"] == 3

    def test_merge_applies_even_while_disabled(self):
        # The parent may keep its own registry disabled and still fold
        # worker deltas (the workers did the measuring).
        delta = _delta_work([1, 2])
        obs.reset()
        obs.disable()
        obs.merge_snapshot(delta)
        assert obs.snapshot()["counters"]["merge.items"] == 2

    def test_merged_shards_equal_serial_exactly(self):
        values = list(range(40))
        serial = _delta_work(values)
        # Simulate per-process worker registries: each shard measures from a
        # reset registry and only its *delta* travels back to the parent.
        deltas = []
        for shard in [values[i::4] for i in range(4)]:
            obs.reset()
            deltas.append(_delta_work(shard))
        obs.reset()
        obs.set_enabled(False)
        for delta in deltas:
            obs.merge_snapshot(delta)
        merged = obs.snapshot()
        assert merged["counters"] == serial["counters"]
        assert merged["histograms"]["merge.values"] == serial["histograms"]["merge.values"]

    def test_multiprocessing_merge_equals_serial(self):
        values = list(range(60))
        serial = _delta_work(values)
        obs.reset()
        obs.enable()
        shards = [values[i::3] for i in range(3)]
        with multiprocessing.Pool(
            3, initializer=obs.init_worker, initargs=(obs.worker_config(),)
        ) as pool:
            for delta in pool.map(_delta_work, shards):
                obs.merge_snapshot(delta)
        merged = obs.snapshot()
        assert merged["counters"]["merge.items"] == serial["counters"]["merge.items"]
        assert merged["histograms"]["merge.values"] == serial["histograms"]["merge.values"]


# --------------------------------------------------------------------------- #
# Span tracing
# --------------------------------------------------------------------------- #


class TestTracing:
    def test_spans_are_noops_when_inactive(self):
        with obs.span("quiet", x=1) as sp:
            sp.set(y=2)
        assert obs.ring_events() == []

    def test_disabled_spans_share_one_object(self):
        first = obs.span("quiet", x=1)
        assert obs.span("other") is first
        with first as sp:
            assert sp is first

    def test_a_raising_span_still_emits_and_unwinds(self):
        obs.configure_tracing()
        with obs.span("outer"):
            with pytest.raises(ValueError):
                with obs.span("failing", n=1):
                    raise ValueError("boom")
            assert obs.current_span_id() is not None
            with obs.span("after"):
                pass
        assert obs.current_span_id() is None
        events = {event["name"]: event for event in obs.ring_events()}
        assert [event["name"] for event in obs.ring_events()] == ["failing", "after", "outer"]
        assert events["failing"]["parent"] == events["outer"]["span"]
        assert events["after"]["parent"] == events["outer"]["span"]
        assert events["failing"]["attrs"] == {"n": 1}

    def test_nesting_and_attrs(self):
        obs.configure_tracing()
        with obs.span("outer", a=1):
            with obs.span("inner") as sp:
                sp.set(b=2)
        events = {event["name"]: event for event in obs.ring_events()}
        assert events["inner"]["parent"] == events["outer"]["span"]
        assert events["outer"]["parent"] is None
        assert events["inner"]["attrs"] == {"b": 2}
        assert events["inner"]["dur_s"] >= 0
        # Children close before parents, so the ring orders inner first.
        assert [event["name"] for event in obs.ring_events()] == ["inner", "outer"]

    def test_ring_is_bounded(self):
        obs.configure_tracing(ring=8)
        for index in range(20):
            with obs.span("tick", i=index):
                pass
        events = obs.ring_events()
        assert len(events) == 8
        assert events[-1]["attrs"] == {"i": 19}

    def test_file_sink_jsonl(self, tmp_path):
        path = tmp_path / "deep" / "trace.jsonl"
        obs.configure_tracing(path=str(path))
        with obs.span("a", n=1):
            pass
        with obs.span("b"):
            pass
        obs.stop_tracing()
        events = obs.load_trace(str(path))
        assert [event["name"] for event in events] == ["a", "b"]
        assert events[0]["attrs"] == {"n": 1}

    def test_load_trace_skips_garbage_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"name": "ok", "dur_s": 0.1}\nnot-json\n[1,2]\n')
        events = obs.load_trace(str(path))
        assert [event["name"] for event in events] == ["ok"]

    def test_aggregate_spans_sums_numeric_attrs(self):
        events = [
            {"name": "s", "dur_s": 0.25, "attrs": {"n": 2, "flag": True}},
            {"name": "s", "dur_s": 0.75, "attrs": {"n": 3, "flag": False, "skip": "x"}},
        ]
        agg = obs.aggregate_spans(events)
        assert agg["s"]["count"] == 2
        assert agg["s"]["total_s"] == 1.0
        assert agg["s"]["attrs"] == {"n": 5, "flag": 1}
        table = obs.format_span_table(agg)
        assert "n = 5" in table


# --------------------------------------------------------------------------- #
# Exporters and the report CLI
# --------------------------------------------------------------------------- #


class TestExport:
    def test_prometheus_text(self):
        obs.enable()
        obs.counter("store.corrupt_objects").inc(2)
        obs.gauge("engines.numpy_available").set(1)
        obs.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        obs.histogram("lat").observe(5.0)
        text = obs.prometheus_text(obs.snapshot())
        lines = text.splitlines()
        assert "# TYPE store_corrupt_objects counter" in lines
        assert "store_corrupt_objects 2" in lines
        assert "engines_numpy_available 1" in lines
        # Cumulative buckets: the +Inf bucket equals the observation count.
        assert 'lat_bucket{le="0.1"} 1' in lines
        assert 'lat_bucket{le="1"} 1' in lines
        assert 'lat_bucket{le="+Inf"} 2' in lines
        assert "lat_count 2" in lines
        assert "lat_sum 5.05" in lines

    def test_report_cli_renders_span_table(self, tmp_path):
        obs.configure_tracing(path=str(tmp_path / "t.jsonl"))
        with obs.span("engine.sweep.run", instances=6):
            pass
        obs.stop_tracing()
        env = dict(os.environ)
        repo = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(repo / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs", "report", str(tmp_path / "t.jsonl")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "engine.sweep.run" in proc.stdout
        assert "instances = 6" in proc.stdout
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.obs",
                "report",
                str(tmp_path / "t.jsonl"),
                "--json",
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["events"] == 1
        assert payload["spans"]["engine.sweep.run"]["count"] == 1

    @pytest.mark.parametrize(
        "verb, content, message",
        [
            ("report", None, "cannot read trace file"),
            ("report", b"\xff\xfe", "cannot read trace file"),
            ("prom", None, "cannot read snapshot file"),
            ("prom", b"{not json", "cannot read snapshot file"),
            ("prom", b"[1, 2]", "is not a metrics snapshot"),
        ],
    )
    def test_cli_reports_unreadable_input_without_a_traceback(
        self, tmp_path, verb, content, message
    ):
        path = tmp_path / "input"
        if content is not None:
            path.write_bytes(content)
        env = dict(os.environ)
        repo = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(repo / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs", verb, str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode != 0
        assert proc.stderr.startswith("error: ")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


# --------------------------------------------------------------------------- #
# Engine instrumentation
# --------------------------------------------------------------------------- #


def _exhaustive(graph, limit=None):
    return [
        compile_instance((graph, numbering))
        for numbering in itertools.islice(all_port_numberings(graph), limit)
    ]


def _sampled_regular_graph():
    graph = random_regular_graph(3, 10, seed=1)
    rng = random.Random(0)
    return [
        compile_instance((graph, random_port_numbering(graph, rng=rng))) for _ in range(600)
    ]


def _machine_algorithm(cls, delta, rounds):
    machine = reference_machine(ProblemClass(cls), delta, rounds=rounds)
    return algorithm_from_machine(machine.as_state_machine())


def _formula_algorithm():
    machine = reference_machine(ProblemClass.MV, 2, rounds=1)
    formula = formula_for_machine(machine, ProblemClass.MV, 1)
    return algorithm_for_formula(formula, ProblemClass.MV)


def _c4():
    return _exhaustive(cycle_graph(4))


def _c5():
    return _exhaustive(cycle_graph(5), 768)


#: name -> (algorithm factory, instance builder, pinned
#: ``(naive_occurrences, executed, evaluations)``).  E3-shaped: one algorithm
#: per class over all 256 numberings of C4.  E9-shaped: two-round reference
#: machines over 600 sampled numberings of a 3-regular graph.  Theorem 2
#: round trip: the MV machine and its formula algorithm over the first 768
#: numberings of C5 (the machine runs as a Vector-model algorithm, so no
#: instance collapses).
SWEEP_WORKLOADS = {
    "E3-MV": (GatherDegreesAlgorithm, _c4, (1_024, 16, 1)),
    "E3-SV": (LeafElectionAlgorithm, _c4, (1_024, 16, 3)),
    "E3-VB": (BroadcastMinimumDegreeAlgorithm, _c4, (1_024, 16, 1)),
    "E3-MB": (NeighbourDegreeSumAlgorithm, _c4, (1_024, 1, 1)),
    "E3-SB": (SomeOddNeighbourAlgorithm, _c4, (1_024, 1, 1)),
    "E9-VV": (lambda: _machine_algorithm("VV", 3, 2), _sampled_regular_graph, (12_000, 600, 24)),
    "E9-MV": (lambda: _machine_algorithm("MV", 3, 2), _sampled_regular_graph, (12_000, 600, 24)),
    "E9-SB": (lambda: _machine_algorithm("SB", 3, 2), _sampled_regular_graph, (12_000, 600, 2)),
    "C5-machine": (lambda: _machine_algorithm("MV", 2, 1), _c5, (3_840, 768, 4)),
    "C5-formula": (_formula_algorithm, _c5, (3_840, 24, 3)),
}


class TestSweepInstrumentation:
    @pytest.mark.parametrize("workload", list(SWEEP_WORKLOADS))
    def test_counters_match_sweep_stats(self, workload):
        """The ``sweep.*`` counters of a sweep equal its ``SweepStats``.

        The two runs use fresh algorithm objects (so fresh interning
        tables): one accumulates a caller-owned stats object with telemetry
        off, the other publishes counters with no stats object.  The pinned
        triple keeps the superposition's dedup from silently collapsing.
        """
        make_algorithm, make_instances, pinned = SWEEP_WORKLOADS[workload]
        instances = make_instances()
        stats = SweepStats()
        run_sweep(make_algorithm(), instances, require_halt=False, stats=stats)

        obs.enable()
        run_sweep(make_algorithm(), instances, require_halt=False)
        counters = obs.snapshot()["counters"]
        assert stats.instances == len(instances)
        for field in dataclasses.fields(SweepStats):
            assert counters.get(f"sweep.{field.name}", 0) == getattr(stats, field.name), field
        assert (stats.naive_occurrences, stats.executed, stats.evaluations) == pinned

    def test_disabled_overhead_guard(self):
        """The no-op telemetry path must be negligible on a small sweep.

        With the registry disabled the sweep engine touches telemetry O(1)
        times per ``run_sweep`` call (an ``enabled()`` guard, a tracing
        check, one no-op span) -- never per instance or per round.  Budget
        a generous 50 touchpoints per run at the measured per-call no-op
        cost and require that to stay under 5% of the sweep's own wall
        time, so the assertion only fires if the disabled path stops being
        a cheap boolean check or the hot loops grow per-item telemetry.
        """
        graph = cycle_graph(6)
        instances = [
            compile_instance((graph, numbering))
            for numbering in list(all_port_numberings(graph))[:64]
        ]
        algorithm = SomeOddNeighbourAlgorithm()
        run_sweep(algorithm, instances, require_halt=False)  # warm-up
        sweep_wall = min(
            _timed(lambda: run_sweep(algorithm, instances, require_halt=False))
            for _ in range(3)
        )

        assert not obs.enabled()
        calls = 100_000
        noop_counter = obs.counter("overhead.guard")
        started = time.perf_counter()
        for _ in range(calls):
            noop_counter.inc()
        per_call = (time.perf_counter() - started) / calls

        budget = 50 * per_call
        assert budget < 0.05 * sweep_wall, (
            f"disabled telemetry path too slow: {per_call * 1e9:.0f}ns/call, "
            f"budget {budget * 1e6:.1f}us vs sweep {sweep_wall * 1e6:.1f}us"
        )


def _timed(thunk) -> float:
    started = time.perf_counter()
    thunk()
    return time.perf_counter() - started


# --------------------------------------------------------------------------- #
# Campaign acceptance: trace + metrics vs manifest and store accounting
# --------------------------------------------------------------------------- #


class TestCampaignTelemetry:
    def test_sharded_run_trace_and_metrics_match_manifest(self, tmp_path):
        spec = exec_spec()
        store = ResultStore(tmp_path / "store")
        trace_file = tmp_path / "trace.jsonl"
        obs.enable()
        obs.configure_tracing(path=str(trace_file))
        summary = run_campaign(spec, store, workers=2)
        obs.stop_tracing()

        manifest = store.read_manifest(spec.name)
        snap = obs.snapshot()
        agg = obs.aggregate_spans(obs.load_trace(str(trace_file)))

        total = len(manifest["scenarios"])
        # Counters vs manifest: every scenario executed exactly once.
        assert snap["counters"]["campaign.scenarios.execution"] == total
        assert snap["counters"]["store.sqlite.records_written"] == total
        assert store.count_records() == total
        # Trace vs manifest: the run span and the shard spans account for
        # every scenario; store spans account for every record written.
        assert agg["campaign.run"]["attrs"]["total"] == total
        assert agg["campaign.run"]["attrs"]["executed"] == summary.executed == total
        assert agg["campaign.shard.evaluate"]["attrs"]["scenarios"] == total
        assert agg["store.put_many"]["attrs"]["written"] == total
        # Trace vs counters: the sweep spans carry the same dedup accounting
        # the counters accumulated (naive occurrences and evaluations), so
        # the dedup ratio derived from either source is identical.
        # Zero-valued counters are dropped from worker deltas, so absent
        # means zero: consistent single-numbering scenarios replicate
        # nothing, and sweep tables warmed earlier in the process (workers
        # inherit them via fork) can drive evaluations to zero.
        counters = snap["counters"]
        naive = counters.get("sweep.occurrences", 0) + counters.get(
            "sweep.replicated_occurrences", 0
        )
        assert naive > 0
        assert agg["engine.sweep.run"]["attrs"]["naive_occurrences"] == naive
        assert agg["engine.sweep.run"]["attrs"]["evaluations"] == (
            counters.get("sweep.evaluations", 0)
        )
        assert snap["histograms"]["campaign.record.elapsed_s"]["count"] == total

    def test_serial_and_sharded_partition_invariant_counters_agree(self, tmp_path):
        spec = exec_spec()
        obs.enable()
        run_campaign(spec, ResultStore(tmp_path / "serial"))
        serial = obs.snapshot()
        obs.reset()
        run_campaign(spec, ResultStore(tmp_path / "sharded"), workers=3)
        sharded = obs.snapshot()
        for name in (
            "campaign.scenarios.execution",
            "store.sqlite.records_written",
            "sweep.instances",
        ):
            assert serial["counters"][name] == sharded["counters"][name], name

    def test_records_carry_elapsed_apportioned_flag(self, tmp_path):
        spec = exec_spec()
        store = ResultStore(tmp_path / "store")
        run_campaign(spec, store)
        records = list(store.iter_records())
        assert records
        assert all("elapsed_apportioned" in record for record in records)
        assert all(record["elapsed_s"] >= 0 for record in records)

    def test_elapsed_apportioned_is_volatile_for_digests(self, tmp_path):
        spec = exec_spec()
        store = ResultStore(tmp_path / "store")
        run_campaign(spec, store)
        record = next(store.iter_records())
        flipped = dict(record, elapsed_apportioned=not record["elapsed_apportioned"])
        assert record_digest(flipped) == record_digest(record)


# --------------------------------------------------------------------------- #
# Service introspection over TCP
# --------------------------------------------------------------------------- #


class TestServiceTelemetry:
    def test_status_and_metrics_verbs_expose_consistent_snapshot(self, tmp_path):
        obs.enable()
        service = CampaignService(str(tmp_path / "store"))
        server = CampaignServiceServer(service, port=0)
        host, port = server.address
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServiceClient(host, port) as client:
                first = client.submit(exec_spec("first"))
                client.wait(first)
                # Overlapping second submission: answered from the store.
                second = client.submit(exec_spec("second"))
                client.wait(second)

                status = client.status()
                assert "metrics" in status
                counters = status["metrics"]["counters"]
                assert counters["service.scenarios.executed"] + counters[
                    "service.scenarios.store_hits"
                ] + counters["service.scenarios.inflight_hits"] == (
                    counters["service.scenarios.submitted"]
                )
                assert counters["service.scenarios.store_hits"] > 0
                assert counters["service.jobs.done"] == 2

                payload = client.metrics()
                assert payload["metrics"]["counters"] == counters
                assert "service_scenarios_submitted" in payload["prometheus"]
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown(wait=False)


# --------------------------------------------------------------------------- #
# Logging with span correlation
# --------------------------------------------------------------------------- #


class TestLogging:
    def test_span_id_injected_into_json_logs(self):
        stream = io.StringIO()
        obs.configure_logging("info", json=True, stream=stream)
        logger = obs.get_logger("repro.test")
        obs.configure_tracing()
        logger.info("outside")
        with obs.span("work"):
            logger.info("inside")
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert lines[0]["span"] == "-"
        assert lines[1]["span"] != "-"
        assert lines[1]["msg"] == "inside"
        assert lines[1]["level"] == "info"

    def test_reconfigure_does_not_stack_handlers(self):
        stream = io.StringIO()
        obs.configure_logging("info", stream=stream)
        obs.configure_logging("info", stream=stream)
        logging.getLogger("repro.test").info("once")
        assert stream.getvalue().count("once") == 1
