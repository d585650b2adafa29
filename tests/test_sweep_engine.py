"""Differential tests: the superposed sweep engine vs compiled vs seed.

``run_sweep`` must be node-for-node identical to the compiled active-set
engine (:mod:`repro.execution.engine`) and the seed reference runner
(:mod:`repro.execution.legacy`) on every model class, every topology and
every port numbering.  The property tests sweep all seven classes over
hash-deterministic random machines from :mod:`repro.machines.library`,
random graphs, and exhaustive plus sampled numberings -- including
non-halting round-budget cases, mixed-graph batches, per-instance local
inputs and the instance-level delivery-signature deduplication.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.execution.engine import (
    ExecutionError,
    compile_instance,
    run_iter,
    run_many,
)
from repro.execution.legacy import run_reference
from repro.execution.sweep import SweepStats, run_sweep, sweep_tables_for
from repro.graphs.generators import (
    cycle_graph,
    path_graph,
    random_bounded_degree_graph,
    random_regular_graph,
    star_graph,
)
from repro.graphs.ports import (
    all_port_numberings,
    consistent_port_numbering,
    random_port_numbering,
)
from repro.machines.algorithm import (
    BroadcastAlgorithm,
    MultisetAlgorithm,
    MultisetBroadcastAlgorithm,
    Output,
    SetAlgorithm,
    SetBroadcastAlgorithm,
    VectorAlgorithm,
)
from repro.machines.fastpath import fast_path
from repro.machines.library import random_machine, reference_machine
from repro.machines.models import ProblemClass
from repro.machines.state_machine import algorithm_from_machine

#: The seven problem classes: the six algorithm models under arbitrary
#: numberings, plus Vector under the consistent-numbering convention (VVc).
SEVEN_CLASSES = [
    ("VVc", ProblemClass.VVC),
    ("VV", ProblemClass.VV),
    ("MV", ProblemClass.MV),
    ("SV", ProblemClass.SV),
    ("VB", ProblemClass.VB),
    ("MB", ProblemClass.MB),
    ("SB", ProblemClass.SB),
]

MODEL_BASES = {
    "VV": VectorAlgorithm,
    "MV": MultisetAlgorithm,
    "SV": SetAlgorithm,
    "VB": BroadcastAlgorithm,
    "MB": MultisetBroadcastAlgorithm,
    "SB": SetBroadcastAlgorithm,
}


def make_probe(base, rounds=3):
    """A native-model probe accumulating every received view: any delivery
    or projection discrepancy between the engines changes the output."""

    class Probe(base):
        def initial_state(self, degree):
            return (0, degree, ())

        def send(self, state, port):
            return ("p", state[0], port, state[1])

        def broadcast(self, state):
            return ("b", state[0], state[1])

        def transition(self, state, received):
            t, degree, acc = state
            acc = acc + (received,)
            if t + 1 >= rounds:
                return Output((degree, acc))
            return (t + 1, degree, acc)

    Probe.__name__ = f"Probe{base.__name__}"
    return Probe()


def make_nonhalting(base):
    """A probe that never reaches a stopping state (round-budget cases),
    except on degree-0 nodes, which halt immediately."""

    class NonHalting(base):
        def initial_state(self, degree):
            if degree == 0:
                return Output("isolated")
            return (0, degree)

        def send(self, state, port):
            return (state[0] % 3, port)

        def broadcast(self, state):
            return (state[0] % 3,)

        def transition(self, state, received):
            return (state[0] + 1, state[1])

    NonHalting.__name__ = f"NonHalting{base.__name__}"
    return NonHalting()


def adversarial_numberings(graph, consistent_only=False, cap=80, samples=12, seed=5):
    """Exhaustive numberings when small, plus sampled ones (reproducible)."""
    numberings = []
    for numbering in all_port_numberings(graph, consistent_only=consistent_only):
        numberings.append(numbering)
        if len(numberings) >= cap:
            break
    rng = random.Random(seed)
    numberings.extend(
        random_port_numbering(graph, rng=rng, consistent=consistent_only)
        for _ in range(samples)
    )
    return numberings


def assert_identical(sweep_results, other_results):
    assert len(sweep_results) == len(other_results)
    for swept, other in zip(sweep_results, other_results):
        assert swept.outputs == other.outputs
        assert swept.rounds == other.rounds
        assert swept.halted == other.halted
        assert swept.states == other.states


GRAPHS = [
    ("cycle5", cycle_graph(5)),
    ("star3", star_graph(3)),
    ("path4", path_graph(4)),
    ("regular", random_regular_graph(3, 8, seed=4)),
    ("bounded", random_bounded_degree_graph(7, 3, seed=11)),
]


class TestRandomMachinesDifferential:
    """run_sweep == run_iter == seed runner on hash-deterministic machines."""

    @pytest.mark.parametrize("label,problem_class", SEVEN_CLASSES, ids=[c[0] for c in SEVEN_CLASSES])
    @pytest.mark.parametrize("graph_name,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
    def test_all_seven_classes_on_adversarial_sweeps(self, label, problem_class, graph_name, graph):
        delta = max(graph.max_degree(), 1)
        for seed in (0, 7):
            machine = random_machine(problem_class, delta, seed=seed)
            algorithm = algorithm_from_machine(machine.as_state_machine())
            numberings = adversarial_numberings(
                graph, consistent_only=problem_class.requires_consistency
            )
            instances = [(graph, numbering) for numbering in numberings]
            swept = run_sweep(algorithm, instances, require_halt=False)
            compiled = run_many(
                algorithm, instances, require_halt=False, memoize_transitions=True
            )
            assert_identical(swept, compiled)
            seed_results = [
                run_reference(algorithm, graph, numbering, require_halt=False)
                for numbering in numberings
            ]
            assert_identical(swept, seed_results)

    @pytest.mark.parametrize("label,problem_class", SEVEN_CLASSES, ids=[c[0] for c in SEVEN_CLASSES])
    def test_two_round_reference_machines(self, label, problem_class):
        graph = random_regular_graph(3, 8, seed=2)
        algorithm = algorithm_from_machine(
            reference_machine(problem_class, 3, rounds=2).as_state_machine()
        )
        numberings = adversarial_numberings(
            graph, consistent_only=problem_class.requires_consistency, cap=40
        )
        instances = [(graph, numbering) for numbering in numberings]
        swept = run_sweep(algorithm, instances)
        compiled = run_many(algorithm, instances, memoize_transitions=True)
        assert_identical(swept, compiled)


class TestNativeModelProbes:
    """Native-model probes exercise the per-mode canonicalization and the
    delivery-signature deduplication (machines always present as Vector)."""

    @pytest.mark.parametrize("model", sorted(MODEL_BASES), ids=sorted(MODEL_BASES))
    @pytest.mark.parametrize("graph_name,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
    def test_probe_differential(self, model, graph_name, graph):
        algorithm = make_probe(MODEL_BASES[model])
        numberings = adversarial_numberings(graph, cap=60, samples=8)
        instances = [(graph, numbering) for numbering in numberings]
        swept = run_sweep(algorithm, instances)
        compiled = run_many(algorithm, instances, memoize_transitions=True)
        assert_identical(swept, compiled)
        seed_results = [
            run_reference(algorithm, graph, numbering) for numbering in numberings
        ]
        assert_identical(swept, seed_results)

    @pytest.mark.parametrize("model", ["MV", "SV", "VB", "MB", "SB"])
    def test_signature_dedup_preserves_results(self, model):
        """Non-Vector receive (or broadcast send) lets whole instances
        collapse; the replicated results must still be correct per instance."""
        graph = cycle_graph(4)
        algorithm = make_probe(MODEL_BASES[model])
        numberings = list(all_port_numberings(graph))
        instances = [(graph, numbering) for numbering in numberings]
        stats = SweepStats()
        swept = run_sweep(algorithm, instances, stats=stats)
        assert stats.replicated > 0, "exhaustive sweep should collapse instances"
        assert stats.executed + stats.replicated == stats.instances == len(numberings)
        compiled = run_many(algorithm, instances, memoize_transitions=True)
        assert_identical(swept, compiled)

    def test_vector_receive_never_dedups_instances(self):
        graph = cycle_graph(4)
        stats = SweepStats()
        run_sweep(
            make_probe(MODEL_BASES["VV"]),
            [(graph, p) for p in all_port_numberings(graph)],
            stats=stats,
        )
        assert stats.replicated == 0


class TestRoundBudget:
    """Non-halting runs: partial outputs, final states, budget rounds."""

    @pytest.mark.parametrize("model", sorted(MODEL_BASES), ids=sorted(MODEL_BASES))
    def test_budget_exhaustion_matches_compiled(self, model):
        graph = star_graph(3)  # the centre halts never, leaves never; degree-0 none
        algorithm = make_nonhalting(MODEL_BASES[model])
        numberings = adversarial_numberings(graph, cap=20, samples=4)
        instances = [(graph, numbering) for numbering in numberings]
        swept = run_sweep(algorithm, instances, max_rounds=7, require_halt=False)
        compiled = run_many(
            algorithm, instances, max_rounds=7, require_halt=False,
            memoize_transitions=True,
        )
        assert_identical(swept, compiled)
        assert all(not result.halted and result.rounds == 7 for result in swept)

    def test_require_halt_raises_execution_error(self):
        graph = cycle_graph(4)
        algorithm = make_nonhalting(MODEL_BASES["VV"])
        instances = [(graph, p) for p in adversarial_numberings(graph, cap=4, samples=0)]
        with pytest.raises(ExecutionError, match="did not halt"):
            run_sweep(algorithm, instances, max_rounds=5)

    def test_zero_round_budget(self):
        graph = path_graph(3)
        algorithm = make_nonhalting(MODEL_BASES["MV"])
        [swept] = run_sweep(algorithm, [graph], max_rounds=0, require_halt=False)
        reference = run_reference(algorithm, graph, max_rounds=0, require_halt=False)
        assert swept.rounds == reference.rounds == 0
        assert swept.states == reference.states
        assert swept.outputs == reference.outputs == {}


class TestBatchShapes:
    def test_mixed_graph_batch_groups_by_topology(self):
        algorithm = make_probe(MODEL_BASES["MV"])
        instances = []
        for graph in (cycle_graph(4), star_graph(3), cycle_graph(5)):
            for numbering in adversarial_numberings(graph, cap=6, samples=3):
                instances.append((graph, numbering))
        random.Random(3).shuffle(instances)
        swept = run_sweep(algorithm, instances)
        compiled = run_many(algorithm, instances, memoize_transitions=True)
        assert_identical(swept, compiled)

    def test_a_collection_mid_batch_keeps_one_group_per_graph(self):
        """The compiled-topology cache keys by graph equality and belongs to
        whichever equal graph compiled first.  When that graph is collected
        between two compilations, the later numberings of an equal graph get
        a second topology object; the batch must still run as one group, so
        its work does not depend on when a collection happened."""
        import gc

        from repro.algorithms.basic import GatherDegreesAlgorithm
        from repro.graphs.graph import Graph

        def cycle():
            # Labels no other live graph uses, so ``first`` owns the entry.
            nodes = [("collected-mid-batch", i) for i in range(4)]
            return Graph(nodes, [(nodes[i], nodes[i - 1]) for i in range(4)])

        first = cycle()
        compile_instance(first)
        graph = cycle()
        instances = []
        for numbering in all_port_numberings(graph):
            instances.append(compile_instance((graph, numbering)))
            if first is not None:
                first = None
                gc.collect()
        assert len({id(instance.topology) for instance in instances}) == 2
        stats = SweepStats()
        run_sweep(GatherDegreesAlgorithm(), instances, require_halt=False, stats=stats)
        assert (stats.naive_occurrences, stats.executed, stats.evaluations) == (1_024, 16, 1)

    def test_mixed_degrees_with_degree_sensitive_send(self):
        """Regression: a send rule that indexes per-port state data must not
        be evaluated for states interned by nodes of a different degree --
        the lazy rebuild-row tables only touch states that actually send at
        their own shape (the old eager watermark crashed here)."""
        from repro.algorithms.basic import PortEchoAlgorithm
        from repro.core.simulations import simulate_vector_with_multiset

        star, cycle = star_graph(3), cycle_graph(4)
        instances = [
            (star, consistent_port_numbering(star)),
            (cycle, consistent_port_numbering(cycle)),
        ]
        algorithm = simulate_vector_with_multiset(PortEchoAlgorithm())
        swept = run_sweep(algorithm, instances)
        compiled = run_many(algorithm, instances, memoize_transitions=True)
        assert_identical(swept, compiled)
        # Warm tables across calls of one wrapper, switching degree shapes.
        fast = fast_path(simulate_vector_with_multiset(PortEchoAlgorithm()))
        assert_identical(run_sweep(fast, instances[:1]), swept[:1])
        assert_identical(run_sweep(fast, instances[1:]), swept[1:])

    def test_run_iter_sweep_engine_dispatch(self):
        graph = cycle_graph(5)
        algorithm = make_probe(MODEL_BASES["SB"])
        instances = [(graph, p) for p in adversarial_numberings(graph, cap=10, samples=5)]
        swept = list(run_iter(algorithm, instances, engine="sweep"))
        compiled = list(run_iter(algorithm, instances, engine="compiled"))
        assert_identical(swept, compiled)

    def test_record_trace_falls_back_to_compiled(self):
        graph = path_graph(3)
        algorithm = make_probe(MODEL_BASES["VV"])
        [result] = list(run_iter(algorithm, [graph], engine="sweep", record_trace=True))
        assert result.trace is not None
        assert len(result.trace.state_history) == result.rounds + 1

    def test_per_instance_inputs(self):
        class InputEcho(MODEL_BASES["VV"]):
            def initial_state(self, degree):
                return (0, degree, None)

            def initial_state_with_input(self, degree, local_input):
                return (0, degree, local_input)

            def send(self, state, port):
                return (state[2], port)

            def transition(self, state, received):
                return Output((state[2], received))

        graph = cycle_graph(4)
        nodes = graph.nodes
        numbering = consistent_port_numbering(graph)
        inputs = [
            {node: (tag, i) for i, node in enumerate(nodes)}
            for tag in ("a", "b", "a")
        ]
        instances = [(graph, numbering)] * len(inputs)
        swept = run_sweep(InputEcho(), instances, inputs=inputs)
        compiled = run_many(
            InputEcho(), instances, inputs=inputs, memoize_transitions=True
        )
        assert_identical(swept, compiled)
        assert swept[0].outputs != swept[1].outputs

    def test_inputs_length_mismatch_raises(self):
        graph = cycle_graph(4)
        with pytest.raises(ValueError, match="entries for"):
            run_sweep(make_probe(MODEL_BASES["VV"]), [graph], inputs=[None, None])

    def test_compiled_and_reference_oracles_via_engine_knob(self):
        graph = star_graph(3)
        algorithm = make_probe(MODEL_BASES["MB"])
        instances = [(graph, p) for p in adversarial_numberings(graph, cap=8, samples=4)]
        swept = run_sweep(algorithm, instances)
        via_compiled = run_many(
            algorithm, instances, engine="compiled", memoize_transitions=True
        )
        via_reference = run_many(
            algorithm, instances, engine="reference", memoize_transitions=True
        )
        assert_identical(swept, via_compiled)
        assert_identical(swept, via_reference)


class TestSweepTables:
    def test_tables_shared_across_sweeps_of_one_wrapper(self):
        graph = cycle_graph(5)
        fast = fast_path(make_probe(MODEL_BASES["MV"]))
        instances = [(graph, p) for p in adversarial_numberings(graph, cap=10, samples=5)]
        first = SweepStats()
        run_sweep(fast, instances, stats=first)
        tables = sweep_tables_for(fast)
        assert len(tables.configs) > 0
        second = SweepStats()
        run_sweep(fast, instances, stats=second)
        assert second.evaluations == 0, "warm tables answer the whole re-sweep"
        assert second.occurrences == first.occurrences

    @pytest.mark.parametrize("class_name, shape_key", [("MB", "b"), ("VV", 3)])
    def test_rebuild_rows_are_kept_per_shape(self, class_name, shape_key):
        """Broadcast sends (key "b") and port sends on a regular topology (key:
        the degree) go through one lazy row table per shape, which later
        sweeps over the same tables reuse."""
        fast = fast_path(make_probe(MODEL_BASES[class_name]))
        first_graph = random_regular_graph(3, 8, seed=4)
        run_sweep(
            fast,
            [(first_graph, p) for p in adversarial_numberings(first_graph, cap=4, samples=2)],
        )
        rows = sweep_tables_for(fast).rebuild_rows
        assert list(rows) == [shape_key]
        row_table = rows[shape_key]
        assert len(row_table) > 0
        second_graph = random_regular_graph(3, 10, seed=1)
        instances = [
            (second_graph, p) for p in adversarial_numberings(second_graph, cap=4, samples=2)
        ]
        swept = run_sweep(fast, instances)
        assert sweep_tables_for(fast).rebuild_rows[shape_key] is row_table
        assert_identical(
            swept,
            run_many(
                make_probe(MODEL_BASES[class_name]),
                instances,
                engine="compiled",
                memoize_transitions=True,
            ),
        )

    def test_fresh_interpreter_reproduces_results_and_stats(self):
        """Interned ids never reach a result: a sweep in a new interpreter,
        under another hash seed, gives identical results and dedup figures."""
        script = """
import json, random
from repro.campaign.registry import build_algorithm
from repro.execution.sweep import SweepStats, run_sweep
from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.graphs.ports import consistent_port_numbering, random_port_numbering
from repro.machines.fastpath import fast_path

instances = []
for graph in (cycle_graph(4), cycle_graph(6), path_graph(5), star_graph(4)):
    instances.append((graph, consistent_port_numbering(graph)))
    instances.append((graph, random_port_numbering(graph, rng=random.Random(7))))
fast = fast_path(build_algorithm("gather-degrees"), memoize_transitions=True)
stats = SweepStats()
results = run_sweep(fast, instances, max_rounds=50, stats=stats)
print(json.dumps({
    "results": [
        [
            sorted([repr(k), repr(v)] for k, v in r.outputs.items()),
            r.rounds,
            r.halted,
            sorted([repr(k), repr(v)] for k, v in r.states.items()),
        ]
        for r in results
    ],
    "stats": stats.to_dict(),
}))
"""
        env = dict(os.environ)
        repo = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = str(repo / "src") + os.pathsep + env.get("PYTHONPATH", "")
        payloads = []
        for hash_seed in ("1", "2"):
            env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            payloads.append(json.loads(proc.stdout))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(script, {})
        in_process = json.loads(out.getvalue())
        assert payloads[0] == payloads[1] == in_process
        assert in_process["stats"]["evaluations"] > 0

    def test_swept_wrapper_stays_picklable(self):
        """Regression: the lazy rebuild-row tables hold local builder
        closures; pickling a wrapper that has been through a sweep must drop
        the cache slots instead of failing on them."""
        import pickle

        from repro.algorithms.basic import NeighbourDegreeSumAlgorithm

        fast = fast_path(NeighbourDegreeSumAlgorithm(), memoize_transitions=True)
        graph = cycle_graph(4)
        [expected] = run_sweep(fast, [graph])
        clone = pickle.loads(pickle.dumps(fast))
        assert clone.sweep_tables is None
        assert clone.memoizes_transitions
        [rerun] = run_sweep(clone, [graph])
        assert rerun.outputs == expected.outputs

    def test_clear_cache_drops_sweep_tables(self):
        fast = fast_path(make_probe(MODEL_BASES["VV"]))
        run_sweep(fast, [cycle_graph(4)])
        assert sweep_tables_for(fast).state_values
        fast.clear_cache()
        assert not sweep_tables_for(fast).state_values

    def test_stats_account_for_dedup(self):
        graph = random_regular_graph(3, 8, seed=2)
        rng = random.Random(1)
        numberings = [random_port_numbering(graph, rng=rng) for _ in range(150)]
        algorithm = algorithm_from_machine(
            reference_machine(ProblemClass.MV, 3, rounds=2).as_state_machine()
        )
        stats = SweepStats()
        run_sweep(algorithm, [(graph, p) for p in numberings], stats=stats)
        assert stats.instances == 150
        assert stats.evaluations < stats.occurrences
        assert stats.dedup_ratio > 10

    def test_compiled_instances_accepted_directly(self):
        graph = cycle_graph(4)
        instances = [
            compile_instance((graph, p))
            for p in adversarial_numberings(graph, cap=6, samples=2)
        ]
        algorithm = make_probe(MODEL_BASES["SV"])
        assert_identical(
            run_sweep(algorithm, instances),
            run_many(algorithm, instances, memoize_transitions=True),
        )
