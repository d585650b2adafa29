"""Differential tests: the NumPy vector kernel vs sweep vs compiled vs seed.

``engine="vector"`` must be node-for-node identical to the superposed sweep
engine, the compiled active-set engine and the seed reference runner on every
model class, every topology and every port numbering.  The suite mirrors
``tests/test_sweep_engine.py`` -- all seven classes over hash-deterministic
random machines, exhaustive plus sampled numberings, round budgets,
mixed-graph batches, per-instance inputs, warm tables and pickling -- and is
skipped wholesale when NumPy is not installed (the registry probe and the
numpy-free CI job cover that path).
"""

from __future__ import annotations

import pickle
import random

import pytest

np = pytest.importorskip("numpy")

from test_sweep_engine import (  # noqa: E402
    GRAPHS,
    MODEL_BASES,
    SEVEN_CLASSES,
    adversarial_numberings,
    assert_identical,
    make_nonhalting,
    make_probe,
)

from repro.campaign.registry import build_algorithm  # noqa: E402
from repro.core import simulate_vector_with_multiset  # noqa: E402
from repro.execution.engine import ExecutionError, run_iter, run_many  # noqa: E402
from repro.execution.sweep import SweepStats, run_sweep, sweep_tables_for  # noqa: E402
from repro.execution.vector import run_vector  # noqa: E402
from repro.graphs.generators import (  # noqa: E402
    cycle_graph,
    path_graph,
    random_regular_graph,
    star_graph,
)
from repro.graphs.ports import consistent_port_numbering, random_port_numbering  # noqa: E402
from repro.machines.algorithm import Output  # noqa: E402
from repro.machines.fastpath import fast_path  # noqa: E402
from repro.machines.library import random_machine, reference_machine  # noqa: E402
from repro.machines.models import ProblemClass  # noqa: E402
from repro.machines.state_machine import algorithm_from_machine  # noqa: E402


class PortEchoAlgorithm(MODEL_BASES["VV"]):
    """Vector-mode probe whose output depends on per-port delivery order."""

    def initial_state(self, degree):
        return (0, degree)

    def send(self, state, port):
        return (state[0], port, state[1])

    def transition(self, state, received):
        t, degree = state
        if t >= 1:
            return Output((degree, received))
        return (t + 1, degree)


class TestRandomMachinesDifferential:
    """run_vector == run_sweep == run_many == seed on random machines."""

    @pytest.mark.parametrize(
        "label,problem_class", SEVEN_CLASSES, ids=[c[0] for c in SEVEN_CLASSES]
    )
    @pytest.mark.parametrize("graph_name,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
    def test_all_seven_classes_on_adversarial_sweeps(
        self, label, problem_class, graph_name, graph
    ):
        delta = max(graph.max_degree(), 1)
        for seed in (0, 7):
            machine = random_machine(problem_class, delta, seed=seed)
            algorithm = algorithm_from_machine(machine.as_state_machine())
            numberings = adversarial_numberings(
                graph, consistent_only=problem_class.requires_consistency
            )
            instances = [(graph, numbering) for numbering in numberings]
            vectored = run_vector(algorithm, instances, require_halt=False)
            swept = run_sweep(algorithm, instances, require_halt=False)
            assert_identical(vectored, swept)
            compiled = run_many(
                algorithm, instances, require_halt=False, memoize_transitions=True
            )
            assert_identical(vectored, compiled)

    @pytest.mark.parametrize(
        "label,problem_class", SEVEN_CLASSES, ids=[c[0] for c in SEVEN_CLASSES]
    )
    def test_two_round_reference_machines(self, label, problem_class):
        graph = random_regular_graph(3, 8, seed=2)
        algorithm = algorithm_from_machine(
            reference_machine(problem_class, 3, rounds=2).as_state_machine()
        )
        numberings = adversarial_numberings(
            graph, consistent_only=problem_class.requires_consistency, cap=40
        )
        instances = [(graph, numbering) for numbering in numberings]
        assert_identical(
            run_vector(algorithm, instances, require_halt=False),
            run_sweep(algorithm, instances, require_halt=False),
        )


class TestNativeProbes:
    @pytest.mark.parametrize("class_name", sorted(MODEL_BASES))
    @pytest.mark.parametrize(
        "graph_name,graph", GRAPHS[:3], ids=[g[0] for g in GRAPHS[:3]]
    )
    def test_probe_outputs_identical(self, class_name, graph_name, graph):
        algorithm = make_probe(MODEL_BASES[class_name])
        instances = [
            (graph, numbering)
            for numbering in adversarial_numberings(graph, cap=30, samples=8)
        ]
        stats = SweepStats()
        vectored = run_vector(algorithm, instances, stats=stats)
        assert_identical(vectored, run_sweep(algorithm, instances))
        assert stats.instances == len(instances)
        assert stats.evaluations <= stats.occurrences

    def test_mixed_graph_batch(self):
        algorithm = make_probe(MODEL_BASES["MB"])
        instances = []
        for _, graph in GRAPHS:
            for numbering in adversarial_numberings(graph, cap=6, samples=3):
                instances.append((graph, numbering))
        rng = random.Random(3)
        rng.shuffle(instances)
        assert_identical(
            run_vector(algorithm, instances), run_sweep(algorithm, instances)
        )

    def test_mixed_family_batch_matches_sweep(self):
        # One flat kernel call over mixed families, ports and broadcast
        # against the superposed sweep.
        instances = []
        for graph in (cycle_graph(4), cycle_graph(6), path_graph(5), star_graph(4)):
            instances.append((graph, consistent_port_numbering(graph)))
            instances.append((graph, random_port_numbering(graph, rng=random.Random(7))))
        for name in ("degree", "gather-degrees", "leaf-election"):
            swept = run_sweep(
                fast_path(build_algorithm(name), memoize_transitions=True),
                instances,
                max_rounds=50,
            )
            vectored = run_vector(
                fast_path(build_algorithm(name), memoize_transitions=True),
                instances,
                max_rounds=50,
            )
            assert_identical(vectored, swept)

    def test_round_budget_and_zero_rounds(self):
        graph = cycle_graph(5)
        algorithm = make_nonhalting(MODEL_BASES["MV"])
        instances = [
            (graph, numbering)
            for numbering in adversarial_numberings(graph, cap=8, samples=4)
        ]
        budgeted = run_vector(algorithm, instances, max_rounds=7, require_halt=False)
        assert all(not r.halted and r.rounds == 7 for r in budgeted)
        assert_identical(
            budgeted, run_sweep(algorithm, instances, max_rounds=7, require_halt=False)
        )
        zero = run_vector(algorithm, instances, max_rounds=0, require_halt=False)
        assert all(not r.halted and r.rounds == 0 for r in zero)

    def test_require_halt_raises(self):
        graph = cycle_graph(4)
        algorithm = make_nonhalting(MODEL_BASES["SB"])
        with pytest.raises(ExecutionError, match="did not halt"):
            run_vector(algorithm, [graph], max_rounds=5)

    def test_degree_sensitive_send_across_shapes(self):
        # Regression shape: a simulated vector algorithm whose send consults
        # the degree must never be probed beyond a state's observed degree.
        fast = fast_path(simulate_vector_with_multiset(PortEchoAlgorithm()))
        star, cycle = star_graph(3), cycle_graph(5)
        instances = [
            (star, consistent_port_numbering(star)),
            (cycle, consistent_port_numbering(cycle)),
        ]
        assert_identical(
            run_vector(fast, instances),
            run_many(fast, instances, memoize_transitions=True),
        )
        # Warm tables, switching degree shapes between calls.
        assert_identical(run_vector(fast, instances[1:]), run_vector(fast, instances[1:]))

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
            {node: (tag, i) for i, node in enumerate(nodes)} for tag in ("a", "b", "a")
        ]
        instances = [(graph, numbering)] * len(inputs)
        vectored = run_vector(InputEcho(), instances, inputs=inputs)
        assert_identical(vectored, run_sweep(InputEcho(), instances, inputs=inputs))
        assert vectored[0].outputs != vectored[1].outputs


class TestDispatch:
    def test_run_iter_and_run_many_vector_engine_knob(self):
        graph = cycle_graph(5)
        algorithm = make_probe(MODEL_BASES["SB"])
        instances = [
            (graph, p) for p in adversarial_numberings(graph, cap=10, samples=5)
        ]
        assert_identical(
            list(run_iter(algorithm, instances, engine="vector")),
            list(run_iter(algorithm, instances, engine="compiled")),
        )
        assert_identical(
            run_many(algorithm, instances, engine="vector"),
            run_many(algorithm, instances, engine="sweep"),
        )

    def test_record_trace_falls_back_to_compiled(self):
        graph = path_graph(3)
        algorithm = make_probe(MODEL_BASES["VV"])
        [result] = list(
            run_iter(algorithm, [graph], engine="vector", record_trace=True)
        )
        assert result.trace is not None
        assert len(result.trace.state_history) == result.rounds + 1


class TestVectorTables:
    def test_tables_warm_across_calls(self):
        graph = cycle_graph(5)
        fast = fast_path(make_probe(MODEL_BASES["MV"]))
        instances = [
            (graph, p) for p in adversarial_numberings(graph, cap=10, samples=5)
        ]
        first = SweepStats()
        run_vector(fast, instances, stats=first)
        assert len(sweep_tables_for(fast).configs) > 0
        second = SweepStats()
        run_vector(fast, instances, stats=second)
        assert second.evaluations == 0, "warm tables answer the whole re-sweep"
        assert second.occurrences == first.occurrences

    def test_vectored_wrapper_stays_picklable(self):
        from repro.algorithms.basic import NeighbourDegreeSumAlgorithm

        fast = fast_path(NeighbourDegreeSumAlgorithm(), memoize_transitions=True)
        graph = cycle_graph(4)
        [expected] = run_vector(fast, [graph])
        clone = pickle.loads(pickle.dumps(fast))
        assert clone.vector_tables is None
        [rerun] = run_vector(clone, [graph])
        assert rerun.outputs == expected.outputs

    def test_clear_cache_drops_vector_tables(self):
        fast = fast_path(make_probe(MODEL_BASES["VV"]))
        run_vector(fast, [cycle_graph(4)])
        assert len(sweep_tables_for(fast).configs) > 0
        fast.clear_cache()
        assert len(sweep_tables_for(fast).configs) == 0

    def test_stats_account_for_dedup(self):
        graph = random_regular_graph(3, 8, seed=2)
        rng = random.Random(1)
        numberings = [random_port_numbering(graph, rng=rng) for _ in range(150)]
        algorithm = algorithm_from_machine(
            reference_machine(ProblemClass.MV, 3, rounds=2).as_state_machine()
        )
        stats = SweepStats()
        run_vector(algorithm, [(graph, p) for p in numberings], stats=stats)
        assert stats.instances == 150
        assert stats.evaluations < stats.occurrences
