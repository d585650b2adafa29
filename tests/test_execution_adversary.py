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
from repro.engines import UnknownEngineError, available_engines
from repro.execution.adversary import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    distinct_outputs,
    outputs_over_port_numberings,
    port_numberings_to_check,
)
from repro.execution.engine import compiled_for
from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.graphs.ports import count_port_numberings
from repro.machines.library import reference_machine
from repro.machines.models import ProblemClass
from repro.machines.state_machine import algorithm_from_machine

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


class TestOutputsOverNumberings:
    def test_numbering_invariant_algorithm_has_one_outcome(self):
        graph = star_graph(3)
        outcomes = distinct_outputs(GatherDegreesAlgorithm(), graph)
        assert len(outcomes) == 1

    def test_numbering_sensitive_algorithm_has_many_outcomes(self):
        graph = star_graph(2)
        outcomes = distinct_outputs(PortEchoAlgorithm(), graph)
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
    """Every sweep-capable engine gives the default engine's outcomes."""

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
        expected = outputs_over_port_numberings(make(), graph, consistent_only=consistent_only)
        outcomes = outputs_over_port_numberings(
            make(), graph, consistent_only=consistent_only, engine=engine
        )
        assert len(outcomes) == len(expected) > 1
        assert all(
            outcome.numbering is reference.numbering
            for outcome, reference in zip(outcomes, expected)
        )
        assert [
            (o.result.outputs, o.result.rounds, o.result.halted) for o in outcomes
        ] == [(o.result.outputs, o.result.rounds, o.result.halted) for o in expected]

    def test_unknown_engine_rejected(self):
        with pytest.raises(UnknownEngineError, match="unknown engine 'warp'"):
            outputs_over_port_numberings(PortEchoAlgorithm(), star_graph(3), engine="warp")
