"""Unit tests for adversarial execution over port numberings."""

from __future__ import annotations

import gc
import os
import pickle
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import pytest

from repro.algorithms.basic import GatherDegreesAlgorithm, PortEchoAlgorithm
from repro.algorithms.leaf_election import LeafElectionAlgorithm
from repro.engines import available_engines
from repro.execution.adversary import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    outputs_over_port_numberings,
    port_numberings_to_check,
)
from repro.execution.engine import ExecutionError, compiled_for, run_many
from repro.execution.runner import run
from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.graphs.ports import count_port_numberings
from repro.machines.algorithm import MultisetBroadcastAlgorithm, Output, VectorAlgorithm
from repro.machines.library import reference_machine
from repro.machines.models import ProblemClass
from repro.machines.state_machine import algorithm_from_machine
from repro.problems.base import GraphProblem
from repro.problems.verification import find_counterexample, worst_case_running_time

REPO = Path(__file__).resolve().parent.parent


class TestPortNumberingsToCheck:
    def test_exhaustive_for_small_graphs(self):
        graph = path_graph(3)
        numberings = list(port_numberings_to_check(graph))
        assert len(numberings) == count_port_numberings(graph) == 4

    def test_sampling_for_large_graphs(self):
        graph = cycle_graph(8)
        numberings = list(port_numberings_to_check(graph, exhaustive_limit=10, samples=7))
        assert len(numberings) == 8  # canonical + 7 samples

    def test_sampling_is_reproducible(self):
        graph = cycle_graph(8)
        first = [
            p.as_mapping()
            for p in port_numberings_to_check(graph, exhaustive_limit=10, samples=3, seed=5)
        ]
        second = [
            p.as_mapping()
            for p in port_numberings_to_check(graph, exhaustive_limit=10, samples=3, seed=5)
        ]
        assert first == second

    def test_consistent_only(self):
        graph = star_graph(3)
        numberings = list(port_numberings_to_check(graph, consistent_only=True))
        assert len(numberings) == 6
        assert all(p.is_consistent() for p in numberings)


class TestEnumerationMemo:
    """Exhaustive enumerations are built once per graph object."""

    def test_repeated_calls_yield_the_identical_numberings(self):
        graph = star_graph(3)
        for consistent_only, total in ((False, 36), (True, 6)):
            first = list(port_numberings_to_check(graph, consistent_only=consistent_only))
            second = list(port_numberings_to_check(graph, consistent_only=consistent_only))
            assert len(first) == total
            assert all(a is b for a, b in zip(first, second, strict=True))
        consistent = list(port_numberings_to_check(graph, consistent_only=True))
        general = list(port_numberings_to_check(graph))
        assert not any(p is q for p in consistent for q in general)

    def test_the_second_sweep_reuses_each_compiled_instance(self):
        graph = cycle_graph(4)
        first = [compiled_for(graph, p) for p in port_numberings_to_check(graph)]
        second = [compiled_for(graph, p) for p in port_numberings_to_check(graph)]
        assert len(first) == 256
        assert all(a is b for a, b in zip(first, second, strict=True))

    def test_the_memo_does_not_keep_its_graph_alive(self):
        def enumerate_and_compile() -> weakref.ref:
            graph = cycle_graph(5)
            for numbering in port_numberings_to_check(graph):
                compiled_for(graph, numbering)
            return weakref.ref(graph)

        ref = enumerate_and_compile()
        gc.collect()
        assert ref() is None

    def test_a_pickled_graph_carries_no_memo(self):
        graph = star_graph(3)
        numberings = list(port_numberings_to_check(graph))
        assert graph._numberings is not None
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph and clone._numberings is None
        assert len(pickle.dumps(graph)) == len(pickle.dumps(star_graph(3)))
        reloaded = list(port_numberings_to_check(clone))
        assert reloaded == numberings
        assert not any(p is q for p, q in zip(reloaded, numberings))

    def test_sampled_numberings_are_not_retained(self):
        graph = path_graph(3)  # 4 numberings; a limit of 2 samples them
        first = list(port_numberings_to_check(graph, exhaustive_limit=2, samples=3))
        second = list(port_numberings_to_check(graph, exhaustive_limit=2, samples=3))
        assert len(first) == len(second) == 4
        assert first == second and not any(p is q for p, q in zip(first, second))
        assert graph._numberings is None

    def test_enumerations_above_the_default_limit_are_not_retained(self):
        graph = cycle_graph(6)
        total = count_port_numberings(graph)
        assert total == 4096 > DEFAULT_EXHAUSTIVE_LIMIT
        first = next(iter(port_numberings_to_check(graph, exhaustive_limit=total)))
        streamed = list(port_numberings_to_check(graph, exhaustive_limit=total))
        assert len(streamed) == total
        assert streamed[0] == first and streamed[0] is not first
        assert graph._numberings is None


def test_e4_builds_each_numbering_once():
    """Work pin: E4 enumerates each witness graph's numberings once.

    It runs in a fresh interpreter because the memo lives on E4's
    module-level graphs, so an in-process count would depend on which tests
    ran first.  The count was 4,414 before the memo.
    """
    code = textwrap.dedent(
        """
        from repro.graphs import ports

        built = 0
        real_init = ports.PortNumbering.__init__

        def counting_init(self, *args, **kwargs):
            global built
            built += 1
            real_init(self, *args, **kwargs)

        ports.PortNumbering.__init__ = counting_init
        from repro.experiments.registry import run_experiment

        assert run_experiment("E4").all_match
        print(built)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 388


def _distinct_outputs(algorithm, graph):
    return {
        tuple(result.outputs.items())
        for _numbering, result in outputs_over_port_numberings(algorithm, graph)
    }


class TestOutputsOverNumberings:
    def test_numbering_invariant_algorithm_has_one_outcome(self):
        graph = star_graph(3)
        outcomes = _distinct_outputs(GatherDegreesAlgorithm(), graph)
        assert len(outcomes) == 1

    def test_numbering_sensitive_algorithm_has_many_outcomes(self):
        graph = star_graph(2)
        outcomes = _distinct_outputs(PortEchoAlgorithm(), graph)
        assert len(outcomes) > 1

    def test_leaf_election_always_elects_exactly_one_leaf(self):
        graph = star_graph(3)
        for _numbering, result in outputs_over_port_numberings(LeafElectionAlgorithm(), graph):
            assert result.outputs[0] == 0
            assert sum(result.outputs[leaf] for leaf in (1, 2, 3)) == 1


def _two_round_machine():
    """A VV machine that stops after two rounds (port echo stops after one)."""
    return algorithm_from_machine(
        reference_machine(ProblemClass.VV, 3, rounds=2).as_state_machine()
    )


class TestOutputsOverNumberingsPerEngine:
    """Every sweep-capable engine's ``run_many`` gives the adversary's outcomes."""

    GRAPHS = {"star": star_graph(3), "cycle": cycle_graph(4)}
    ALGORITHMS = {"port-echo": PortEchoAlgorithm, "two-round": _two_round_machine}

    @pytest.mark.parametrize("engine", available_engines(requires={"sweep"}))
    @pytest.mark.parametrize("consistent_only", [False, True], ids=["all", "consistent"])
    @pytest.mark.parametrize("graph_name", list(GRAPHS))
    @pytest.mark.parametrize("algorithm_name", list(ALGORITHMS))
    def test_engine_matches_the_default(
        self, engine, consistent_only, graph_name, algorithm_name
    ):
        graph = self.GRAPHS[graph_name]
        make = self.ALGORITHMS[algorithm_name]
        numberings = list(port_numberings_to_check(graph, consistent_only=consistent_only))
        results = run_many(
            make(), [(graph, numbering) for numbering in numberings], engine=engine
        )
        outcomes = outputs_over_port_numberings(make(), graph, consistent_only=consistent_only)
        assert len(outcomes) == len(numberings) > 1
        assert all(
            numbering is expected
            for (numbering, _result), expected in zip(outcomes, numberings)
        )
        assert [(r.outputs, r.rounds, r.halted) for _numbering, r in outcomes] == [
            (r.outputs, r.rounds, r.halted) for r in results
        ]

    def test_there_is_no_engine_knob(self):
        with pytest.raises(TypeError, match="engine"):
            outputs_over_port_numberings(PortEchoAlgorithm(), star_graph(3), engine="sweep")


class Forever(MultisetBroadcastAlgorithm):
    """Counts rounds and never stops."""

    def initial_state(self, degree):
        return 0

    def broadcast(self, state):
        return "m"

    def transition(self, state, received):
        return state + 1


class HaltsOnPortOne(VectorAlgorithm):
    """Stops once it hears port 1 on its input port 1; otherwise waits forever."""

    def initial_state(self, degree):
        return "start"

    def send(self, state, port):
        return port if state == "start" else 0

    def transition(self, state, received):
        if state == "start" and received[:1] == (1,):
            return Output(received)
        return "waiting"


class TestNonHaltingRuns:
    """A run that exceeds ``max_rounds`` is an outcome, not an exception."""

    def test_a_non_halting_algorithm_comes_back_unhalted(self):
        graph = path_graph(3)
        outcomes = outputs_over_port_numberings(Forever(), graph, max_rounds=5)
        assert len(outcomes) == 4
        for _numbering, result in outcomes:
            assert not result.halted
            assert result.rounds == 5 and result.outputs == {}
            assert result.states == {node: 5 for node in graph.nodes}

    def test_halting_follows_the_numbering_as_in_single_runs(self):
        graph = cycle_graph(3)
        outcomes = outputs_over_port_numberings(HaltsOnPortOne(), graph, max_rounds=4)
        expected = [
            run(HaltsOnPortOne(), graph, numbering, max_rounds=4, require_halt=False)
            for numbering in port_numberings_to_check(graph)
        ]
        assert [(r.outputs, r.rounds, r.halted, r.states) for _n, r in outcomes] == [
            (r.outputs, r.rounds, r.halted, r.states) for r in expected
        ]
        assert {result.halted for _numbering, result in outcomes} == {True, False}


class EndpointHearsPortOne(GraphProblem):
    """Node 0 must receive port number 1 on its first input port."""

    def is_solution(self, graph, assignment):
        return assignment[0][0] == 1


class TestVerificationLoops:
    """The checks of :mod:`repro.problems.verification` over the adversary."""

    def test_worst_case_running_time_raises_on_a_non_halting_run(self):
        with pytest.raises(ExecutionError, match="did not halt on .* within 5 rounds"):
            worst_case_running_time(Forever(), [path_graph(3)], max_rounds=5)

    def test_find_counterexample_returns_the_first_failing_numbering(self):
        graphs = [star_graph(3), path_graph(3)]
        problem = EndpointHearsPortOne()
        expected = next(
            (graph, numbering, outputs)
            for graph in graphs
            for numbering in port_numberings_to_check(graph)
            for outputs in [run(PortEchoAlgorithm(), graph, numbering).outputs]
            if not problem.is_solution(graph, outputs)
        )
        found = find_counterexample(PortEchoAlgorithm(), problem, graphs)
        assert found is not None
        assert found[0] is expected[0] and found[1] is expected[1]
        assert found[2] == expected[2]
        numberings = list(port_numberings_to_check(graphs[1]))
        assert numberings.index(found[1]) == 2
