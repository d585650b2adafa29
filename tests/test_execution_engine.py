"""Differential tests: the compiled engine vs the seed reference runner.

The compiled active-set engine (:mod:`repro.execution.engine`) must be
node-for-node identical to the seed loop (:mod:`repro.execution.legacy`) on
every model class, every topology and every port numbering.  These tests
sweep all seven classes (vector/multiset/set receive x port-addressed/
broadcast send, plus the consistent-numbering convention of VVc) over random
graphs and numberings with state-accumulating probe algorithms whose outputs
fingerprint the entire communication history.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.basic import RoundCounterAlgorithm
from repro.execution.engine import (
    CompiledInstance,
    ExecutionError,
    compile_instance,
    run_iter,
    run_many,
)
from repro.execution.legacy import run_reference
from repro.execution.runner import run
from repro.graphs.generators import (
    cycle_graph,
    path_graph,
    random_bounded_degree_graph,
    random_regular_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.ports import consistent_port_numbering, random_port_numbering
from repro.machines.algorithm import (
    BroadcastAlgorithm,
    MultisetAlgorithm,
    MultisetBroadcastAlgorithm,
    Output,
    SetAlgorithm,
    SetBroadcastAlgorithm,
    VectorAlgorithm,
)
from repro.machines.fastpath import FastPathAlgorithm, fast_path

MODEL_BASES = {
    "VV": VectorAlgorithm,
    "MV": MultisetAlgorithm,
    "SV": SetAlgorithm,
    "VB": BroadcastAlgorithm,
    "MB": MultisetBroadcastAlgorithm,
    "SB": SetBroadcastAlgorithm,
}

#: The seven problem classes: the six algorithm models under arbitrary
#: numberings, plus Vector under the consistent-numbering convention (VVc).
SEVEN_CLASSES = [
    ("VVc", VectorAlgorithm, True),
    ("VV", VectorAlgorithm, False),
    ("MV", MultisetAlgorithm, False),
    ("SV", SetAlgorithm, False),
    ("VB", BroadcastAlgorithm, False),
    ("MB", MultisetBroadcastAlgorithm, False),
    ("SB", SetBroadcastAlgorithm, False),
]


def make_probe(base, rounds=3):
    """A probe of the given model: accumulates every received view for
    ``rounds`` rounds, then outputs (degree, full history).  Any delivery or
    projection discrepancy between the engines changes the output."""

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


def make_staggered_probe(base):
    """Nodes halt at different times (after ``degree`` rounds), exercising
    the active-set bookkeeping and the halted-nodes-send-m0 rule."""

    class Staggered(base):
        def initial_state(self, degree):
            if degree == 0:
                return Output((0, ()))
            return (0, degree, ())

        def send(self, state, port):
            return ("p", state[0], port)

        def broadcast(self, state):
            return ("b", state[0])

        def transition(self, state, received):
            t, degree, acc = state
            acc = acc + (received,)
            if t + 1 >= degree:
                return Output((degree, acc))
            return (t + 1, degree, acc)

    Staggered.__name__ = f"Staggered{base.__name__}"
    return Staggered()


def make_input_probe(base, rounds=2):
    """A probe whose history starts from the node's local input."""

    class InputProbe(type(make_probe(base, rounds))):
        def initial_state_with_input(self, degree, local_input):
            return (0, degree, (local_input,))

    InputProbe.__name__ = f"InputProbe{base.__name__}"
    return InputProbe()


def assert_identical(algorithm, graph, numbering, **kwargs):
    engine = run(algorithm, graph, numbering, **kwargs)
    reference = run_reference(algorithm, graph, numbering, **kwargs)
    assert engine.outputs == reference.outputs
    assert engine.rounds == reference.rounds
    assert engine.halted == reference.halted
    assert engine.states == reference.states


class TestEngineMatchesReferenceAcrossModels:
    @pytest.mark.parametrize("label,base,consistent", SEVEN_CLASSES, ids=[c[0] for c in SEVEN_CLASSES])
    def test_probe_on_random_graphs(self, label, base, consistent):
        rng = random.Random(2012)
        graphs = [
            random_bounded_degree_graph(12, 3, seed=7),
            random_regular_graph(3, 10, seed=3),
            random_bounded_degree_graph(9, 4, seed=11),
            star_graph(4),
            path_graph(5),
        ]
        algorithm = make_probe(base, rounds=3)
        for graph in graphs:
            numberings = [consistent_port_numbering(graph)]
            numberings.append(random_port_numbering(graph, rng=rng, consistent=True))
            if not consistent:
                numberings.append(random_port_numbering(graph, rng=rng))
            for numbering in numberings:
                assert_identical(algorithm, graph, numbering)

    @pytest.mark.parametrize("label,base,consistent", SEVEN_CLASSES, ids=[c[0] for c in SEVEN_CLASSES])
    def test_staggered_halting(self, label, base, consistent):
        rng = random.Random(42)
        graph = random_bounded_degree_graph(14, 4, seed=5)
        algorithm = make_staggered_probe(base)
        numbering = random_port_numbering(graph, rng=rng, consistent=consistent)
        assert_identical(algorithm, graph, numbering)

    def test_isolated_nodes_and_string_labels(self):
        graph = Graph(nodes=["a", "b", "lonely"], edges=[("a", "b")])
        for base in MODEL_BASES.values():
            assert_identical(make_staggered_probe(base), graph, None)

    def test_traces_identical(self):
        graph = cycle_graph(5)
        algorithm = make_probe(MultisetAlgorithm, rounds=4)
        numbering = random_port_numbering(graph, rng=random.Random(8))
        engine = run(algorithm, graph, numbering, record_trace=True)
        reference = run_reference(algorithm, graph, numbering, record_trace=True)
        assert engine.trace is not None and reference.trace is not None
        assert engine.trace.state_history == reference.trace.state_history
        assert engine.trace.received_messages == reference.trace.received_messages


class ForeverBroadcast(MultisetBroadcastAlgorithm):
    """Never halts: counts rounds forever."""

    def initial_state(self, degree):
        return 0

    def broadcast(self, state):
        return "m"

    def transition(self, state, received):
        return state + 1


class LeavesHaltCentreSpins(MultisetBroadcastAlgorithm):
    """Degree-1 nodes halt immediately; every other node runs forever."""

    def initial_state(self, degree):
        return Output("leaf") if degree == 1 else 0

    def broadcast(self, state):
        return "alive"

    def transition(self, state, received):
        return state + 1


class TestNonHaltingPath:
    def test_states_exposed_when_budget_exhausted(self):
        result = run(ForeverBroadcast(), cycle_graph(3), max_rounds=5, require_halt=False)
        assert not result.halted
        assert result.rounds == 5
        assert result.outputs == {}
        assert result.states == {0: 5, 1: 5, 2: 5}

    def test_partial_outputs_of_halted_nodes(self):
        result = run(
            LeavesHaltCentreSpins(), star_graph(3), max_rounds=4, require_halt=False
        )
        assert not result.halted
        assert result.outputs == {1: "leaf", 2: "leaf", 3: "leaf"}
        assert result.states[0] == 4
        assert result.states[1] == Output("leaf")

    def test_reference_runner_agrees_on_non_halting_results(self):
        for algorithm in (ForeverBroadcast(), LeavesHaltCentreSpins()):
            assert_identical(
                algorithm, star_graph(3), None, max_rounds=3, require_halt=False
            )

    def test_halting_result_keeps_full_outputs_and_states(self):
        result = run(RoundCounterAlgorithm(2), cycle_graph(3))
        assert result.halted
        assert set(result.outputs.values()) == {2}
        assert result.states == {node: Output(2) for node in cycle_graph(3).nodes}


class TestCompiledInstance:
    def test_rejects_foreign_numbering(self):
        with pytest.raises(ValueError):
            CompiledInstance(path_graph(3), consistent_port_numbering(path_graph(4)))

    def test_compile_instance_normalizes(self):
        graph = cycle_graph(4)
        numbering = consistent_port_numbering(graph)
        compiled = CompiledInstance(graph, numbering)
        assert compile_instance(compiled) is compiled
        # Graph is a value object: the default-instance cache may resolve an
        # equal graph built earlier, so assert equality rather than identity.
        assert compile_instance(graph).graph == graph
        assert compile_instance((graph, numbering)).numbering is numbering

    def test_topology_shared_across_numberings_of_one_graph(self):
        graph = random_regular_graph(3, 8, seed=1)
        first = CompiledInstance(graph, random_port_numbering(graph, rng=random.Random(1)))
        second = CompiledInstance(graph, random_port_numbering(graph, rng=random.Random(2)))
        assert first.topology is second.topology

    def test_reusing_a_compiled_instance_is_deterministic(self):
        graph = random_regular_graph(3, 8, seed=2)
        compiled = CompiledInstance(graph)
        algorithm = make_probe(SetAlgorithm, rounds=2)
        first = run_many(algorithm, [compiled])[0]
        second = run_many(algorithm, [compiled])[0]
        assert first.outputs == second.outputs


class TestRunMany:
    def _instances(self):
        rng = random.Random(99)
        instances = []
        for seed in (1, 2, 3):
            graph = random_bounded_degree_graph(10, 3, seed=seed)
            instances.append(graph)
            instances.append((graph, random_port_numbering(graph, rng=rng)))
        return instances

    def test_sequential_batch_matches_single_runs(self):
        algorithm = make_probe(MultisetBroadcastAlgorithm, rounds=3)
        instances = self._instances()
        batch = run_many(algorithm, instances)
        for instance, result in zip(instances, batch):
            compiled = compile_instance(instance)
            single = run(algorithm, compiled.graph, compiled.numbering)
            assert result.outputs == single.outputs
            assert result.rounds == single.rounds

    def test_reference_engine_matches_compiled_engine(self):
        algorithm = make_probe(VectorAlgorithm, rounds=2)
        instances = self._instances()
        compiled = run_many(algorithm, instances)
        reference = run_many(algorithm, instances, engine="reference")
        for a, b in zip(compiled, reference):
            assert a.outputs == b.outputs and a.rounds == b.rounds

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_memoized_batch_matches_unmemoized(self, engine):
        # Across all six algorithm models, transition/send/projection
        # memoization must be unobservable for deterministic algorithms.
        instances = self._instances()
        for base in MODEL_BASES.values():
            for algorithm in (make_probe(base, rounds=3), make_staggered_probe(base)):
                plain = run_many(algorithm, instances, engine=engine)
                memoized = run_many(
                    algorithm, instances, engine=engine, memoize_transitions=True
                )
                assert [r.outputs for r in memoized] == [r.outputs for r in plain]
                assert [r.rounds for r in memoized] == [r.rounds for r in plain]
                assert [r.states for r in memoized] == [r.states for r in plain]

    def test_memoized_reference_runs_with_inputs(self):
        instances = self._instances()
        inputs = [
            {node: i % 3 for i, node in enumerate(compile_instance(item).graph.nodes)}
            for item in instances
        ]
        for base in MODEL_BASES.values():
            algorithm = make_input_probe(base)
            plain = run_many(algorithm, instances, inputs=inputs, engine="reference")
            memoized = run_many(
                algorithm, instances, inputs=inputs, engine="reference",
                memoize_transitions=True,
            )
            compiled = run_many(algorithm, instances, inputs=inputs)
            for a, b, c in zip(memoized, plain, compiled):
                assert a.outputs == b.outputs == c.outputs
                assert a.states == b.states == c.states
                assert a.rounds == b.rounds

    def test_memoized_reference_traces_match(self):
        instances = self._instances()
        algorithm = make_probe(MultisetAlgorithm, rounds=3)
        plain = run_many(algorithm, instances, engine="reference", record_trace=True)
        memoized = run_many(
            algorithm, instances, engine="reference", record_trace=True,
            memoize_transitions=True,
        )
        for a, b in zip(memoized, plain):
            assert a.trace.state_history == b.trace.state_history
            assert a.trace.received_messages == b.trace.received_messages

    def test_memoized_reference_non_halting_runs_match(self):
        instances = [cycle_graph(3), star_graph(3)]
        for algorithm in (ForeverBroadcast(), LeavesHaltCentreSpins()):
            kwargs = dict(engine="reference", max_rounds=3, require_halt=False)
            plain = run_many(algorithm, instances, **kwargs)
            memoized = run_many(algorithm, instances, memoize_transitions=True, **kwargs)
            for a, b in zip(memoized, plain):
                assert not a.halted and not b.halted
                assert a.outputs == b.outputs
                assert a.states == b.states
                assert a.rounds == b.rounds

    def test_memoized_reference_non_halting_run_names_the_algorithm(self):
        with pytest.raises(ExecutionError, match="ForeverBroadcast did not halt"):
            run_many(
                ForeverBroadcast(), [cycle_graph(3)], max_rounds=4,
                engine="reference", memoize_transitions=True,
            )

    @pytest.mark.parametrize("memoize", [False, True])
    def test_reference_engine_gets_the_wrapper_only_when_memoizing(
        self, monkeypatch, memoize
    ):
        from repro.execution import legacy

        seen = []
        real = legacy.run_reference

        def spy(algorithm, *args, **kwargs):
            seen.append(algorithm)
            return real(algorithm, *args, **kwargs)

        monkeypatch.setattr(legacy, "run_reference", spy)
        algorithm = RoundCounterAlgorithm(2)
        run_many(algorithm, [cycle_graph(3)], engine="reference", memoize_transitions=memoize)
        [received] = seen
        if memoize:
            assert isinstance(received, FastPathAlgorithm)
            assert received.memoizes_transitions and received.inner is algorithm
        else:
            assert received is algorithm

    def test_require_halt_raises_like_sequential(self):
        with pytest.raises(ExecutionError):
            run_many(ForeverBroadcast(), [cycle_graph(3)], max_rounds=4)

    def test_require_halt_false_reports_per_instance(self):
        results = run_many(
            ForeverBroadcast(),
            [cycle_graph(3), cycle_graph(4)],
            max_rounds=2,
            require_halt=False,
        )
        assert [r.halted for r in results] == [False, False]
        assert all(r.states is not None for r in results)

    def test_run_iter_is_lazy(self):
        # Counterexample-style consumers stop at the first interesting
        # result; later instances must not execute at all.
        executed = []

        class Tracking(SetBroadcastAlgorithm):
            def initial_state(self, degree):
                executed.append(degree)
                return Output(degree)

            def broadcast(self, state):  # pragma: no cover - halts immediately
                raise AssertionError

            def transition(self, state, received):  # pragma: no cover
                raise AssertionError

        instances = [cycle_graph(3), cycle_graph(4), cycle_graph(5)]
        iterator = run_iter(Tracking(), instances)
        next(iterator)
        assert len(executed) == 3  # only the first 3-cycle's nodes
        assert run_many(Tracking(), instances)[2].halted

    def test_default_instance_cache_dies_with_the_graph(self):
        import gc
        import weakref

        graph = random_regular_graph(3, 8, seed=17)
        run_many(RoundCounterAlgorithm(1), [graph])
        ref = weakref.ref(graph)
        del graph
        gc.collect()
        assert ref() is None

    def test_per_instance_inputs(self):
        class EchoInput(SetBroadcastAlgorithm):
            def initial_state(self, degree):
                return Output(None)

            def initial_state_with_input(self, degree, local_input):
                return Output(local_input)

            def broadcast(self, state):  # pragma: no cover - halts immediately
                raise AssertionError

            def transition(self, state, received):  # pragma: no cover
                raise AssertionError

        graph = path_graph(2)
        results = run_many(
            EchoInput(),
            [graph, graph],
            inputs=[{0: "x", 1: "y"}, None],
        )
        assert results[0].outputs == {0: "x", 1: "y"}
        assert results[1].outputs == {0: None, 1: None}

    def test_mismatched_inputs_length_rejected(self):
        with pytest.raises(ValueError):
            run_many(RoundCounterAlgorithm(1), [cycle_graph(3)], inputs=[None, None])

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_many(RoundCounterAlgorithm(1), [cycle_graph(3)], engine="quantum")


class TestFastPath:
    def test_projection_memoized_for_multiset(self):
        fast = fast_path(make_probe(MultisetAlgorithm))
        first = fast.project(("a", "b", "a"))
        second = fast.project(("a", "b", "a"))
        assert first is second
        assert fast.cache_size == 1

    def test_vector_projection_is_identity_without_cache(self):
        fast = fast_path(make_probe(VectorAlgorithm))
        vector = ("a", "b")
        assert fast.project(vector) is vector
        assert fast.cache_size == 0

    def test_forwards_what_the_seed_loop_calls(self):
        inner = LeavesHaltCentreSpins()
        fast = fast_path(inner, memoize_transitions=True)
        assert fast.name == inner.name == "LeavesHaltCentreSpins"
        assert fast.initial_state_with_input(1, "x") == Output("leaf")
        assert fast.is_stopping(Output("leaf")) and not fast.is_stopping(0)
        assert fast.output(Output("leaf")) == "leaf"
        with pytest.raises(ValueError):
            fast.output(0)

    def test_fast_path_idempotent(self):
        inner = make_probe(SetAlgorithm)
        fast = fast_path(inner)
        assert fast_path(fast) is fast
        assert FastPathAlgorithm(fast).inner is inner
