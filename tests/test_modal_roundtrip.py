"""Round-trip property tests for the Theorem 2 correspondence pipeline.

For machines of all seven classes -- the deterministic library machines and
seed-fuzzed random ones -- the pipeline must close the loop: machine ->
hash-consed Table 4/5 formula -> compiled formula-algorithm, with machine
outputs, formula extension and recompiled-algorithm outputs agreeing on
every adversarial port numbering, and the seed formula-algorithm agreeing as
a differential oracle.  Plus the fail-fast contract of the construction's
node budget (:class:`FormulaSizeError`).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.engines import available_engines
from repro.execution.engine import ExecutionError
from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.logic.syntax import (
    Bottom,
    Not,
    Prop,
    Top,
    dag_size,
    formula_pool,
    modal_depth,
    topological_ids,
    tree_size,
)
from repro.machines.algorithm import Output, VectorAlgorithm
from repro.machines.fastpath import fast_path
from repro.machines.library import class_view, random_machine, reference_machine
from repro.machines.models import ProblemClass, ReceiveMode, SendMode
from repro.modal.algorithm_to_formula import (
    DEFAULT_MAX_FORMULA_NODES,
    FormulaSizeError,
    formula_for_machine,
    predict_formula_nodes,
)
from repro.modal import correspondence
from repro.modal.correspondence import (
    algorithm_matches_formula,
    machine_roundtrip_report,
    roundtrip_algorithms,
)
from repro.modal.formula_to_algorithm import FormulaAlgorithm, algorithm_for_formula

ALL_CLASSES = list(ProblemClass)

REPO = Path(__file__).resolve().parent.parent

#: Max degree 3: a star plus a path, swept exhaustively per numbering.
DELTA3_GRAPHS = (star_graph(3), path_graph(4))
#: Max degree 2: cheap enough for the randomized and two-round sweeps.
DELTA2_GRAPHS = (path_graph(3), cycle_graph(4))


@functools.lru_cache(maxsize=None)
def _reference_roundtrip(problem_class, engine=None):
    """The library machine's round trip on ``engine`` (``None``: the default)."""
    options = {} if engine is None else {"engine": engine}
    return machine_roundtrip_report(
        reference_machine(problem_class, delta=3),
        problem_class,
        running_time=1,
        graphs=DELTA3_GRAPHS,
        **options,
    )


@pytest.mark.parametrize("engine", available_engines(requires={"sweep"}))
@pytest.mark.parametrize("problem_class", ALL_CLASSES, ids=str)
def test_reference_machine_roundtrip(problem_class, engine):
    report = _reference_roundtrip(problem_class, engine)
    assert report.agree, report.first_disagreement
    assert report.instances == _reference_roundtrip(problem_class).instances > 0
    # The seed formula algorithm is the oracle, so it only runs beside the
    # other engines.
    assert report.oracle_checked == (engine != "reference")
    assert report.modal_depth == 1
    assert report.dag_size <= report.tree_size


@pytest.mark.parametrize("problem_class", ALL_CLASSES, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_random_machine_roundtrip(problem_class, seed):
    report = machine_roundtrip_report(
        random_machine(problem_class, delta=2, seed=seed),
        problem_class,
        running_time=1,
        graphs=DELTA2_GRAPHS,
    )
    assert report.agree, report.first_disagreement
    assert report.oracle_checked


def test_roundtrip_honours_accepting_output():
    """The machine-output comparison binarizes against ``accepting_output``:
    the formula for output 0 must agree with the output-0 indicator."""
    machine = reference_machine(ProblemClass.MB, delta=3)
    report = machine_roundtrip_report(
        machine,
        ProblemClass.MB,
        running_time=1,
        graphs=DELTA3_GRAPHS,
        accepting_output=0,
    )
    assert report.agree, report.first_disagreement


def test_seed_oracle_evaluates_each_distinct_input_once(monkeypatch):
    """The oracle still runs on every instance, but one memo spans the whole
    report: each distinct initial state and transition is evaluated once."""
    initials: list = []
    transitions: list = []
    real_initial = FormulaAlgorithm.initial_state
    real_transition = FormulaAlgorithm.transition

    def counting_initial(self, degree):
        initials.append((id(self), degree))
        return real_initial(self, degree)

    def counting_transition(self, state, received):
        transitions.append((id(self), state, received))
        return real_transition(self, state, received)

    monkeypatch.setattr(FormulaAlgorithm, "initial_state", counting_initial)
    monkeypatch.setattr(FormulaAlgorithm, "transition", counting_transition)
    report = machine_roundtrip_report(
        reference_machine(ProblemClass.MV, delta=3), ProblemClass.MV, 1, graphs=DELTA3_GRAPHS
    )
    assert report.agree, report.first_disagreement
    assert report.oracle_checked
    assert initials and transitions
    assert len(initials) == len(set(initials))
    assert len(transitions) == len(set(transitions))


def test_seed_oracle_agrees_on_every_e2_scenario():
    """The seed formula-algorithm's coverage of the ``e2-correspondence``
    campaign, whose records run without it: every scenario's instance, on
    the graph and numbering the executor materializes for it, one report per
    ``(machine, class, Delta, engine, max_rounds)`` coordinate."""
    from repro.campaign import builtin_spec, executor, registry

    groups: dict[tuple, list] = {}
    executor.clear_worker_memo()
    try:
        for scenario in builtin_spec("e2-correspondence").expand():
            graph, numbering = executor._materialize(scenario)
            key = (
                scenario.machine or registry.DEFAULT_MACHINE,
                scenario.model_class,
                max(graph.max_degree(), 1),
                scenario.engine,
                scenario.max_rounds,
            )
            groups.setdefault(key, []).append((graph, numbering))
    finally:
        executor.clear_worker_memo()
    assert len(groups) == 18
    total = 0
    for (name, model_class, delta, engine, max_rounds), group in sorted(groups.items()):
        workload = registry.machine_workload(name)
        problem_class = ProblemClass(model_class)
        report = machine_roundtrip_report(
            workload.build(problem_class, delta),
            problem_class,
            workload.running_time,
            pairs=group,
            engine=engine,
            max_rounds=max_rounds,
            max_formula_nodes=executor.CORRESPONDENCE_NODE_BUDGET,
        )
        coordinate = (name, model_class, delta)
        assert report.oracle_checked, coordinate
        assert report.agree, (coordinate, report.first_disagreement)
        assert report.instances == len(group), coordinate
        total += report.instances
    assert total == 114


#: The ``e2-correspondence`` manifest digest.  Records hold each round trip's
#: agreement flags and formula sizes, so an emission that changes either on
#: any scenario moves it.  CI checks the same digest on a sharded CLI run.
E2_MANIFEST_DIGEST = "7b71434b523067942284e30bbbc0905669789669e7c813bc5a1a2c01fe6a58a5"


def test_e2_manifest_digest_is_pinned(tmp_path):
    """A serial in-process ``e2-correspondence`` run, with an empty worker
    memo so that every formula is emitted here."""
    from repro.campaign import builtin_spec, executor, run_campaign

    executor.clear_worker_memo()
    try:
        run = run_campaign(builtin_spec("e2-correspondence"), tmp_path / "store", log=None)
    finally:
        executor.clear_worker_memo()
    assert run.executed == run.total == 114
    assert run.manifest_digest == E2_MANIFEST_DIGEST


class TestDisagreementWitness:
    """A wrong algorithm on either checked front is caught and shown."""

    problem_class = ProblemClass.MV

    def _report(self, realized=None, oracle=None):
        machine = reference_machine(self.problem_class, delta=3)
        formula = formula_for_machine(machine, self.problem_class, 1)
        original, right, seed = roundtrip_algorithms(machine, formula, self.problem_class)
        return machine_roundtrip_report(
            machine,
            self.problem_class,
            1,
            graphs=DELTA3_GRAPHS,
            formula=formula,
            algorithms=(original, realized or right, oracle or seed),
        )

    def _negated(self, engine):
        machine = reference_machine(self.problem_class, delta=3)
        formula = formula_for_machine(machine, self.problem_class, 1)
        return fast_path(
            algorithm_for_formula(Not(formula), self.problem_class, engine=engine),
            memoize_transitions=True,
        )

    def test_a_wrong_oracle_shows_its_output(self):
        report = self._report(oracle=self._negated("reference"))
        assert report.formula_agrees
        assert not report.algorithms_agree
        assert report.oracle_checked
        witness = report.first_disagreement
        assert witness["realized"] == witness["formula"]
        assert witness["oracle"] == {node: 1 - bit for node, bit in witness["realized"].items()}

    def test_a_wrong_realized_algorithm_is_caught(self):
        report = self._report(realized=self._negated("compiled"))
        assert report.formula_agrees
        assert not report.algorithms_agree
        witness = report.first_disagreement
        assert witness["realized"] == {node: 1 - bit for node, bit in witness["formula"].items()}
        assert witness["oracle"] == witness["formula"]


def test_roundtrip_without_instances_is_rejected():
    """No graphs and no pairs must raise, not report vacuous agreement."""
    machine = reference_machine(ProblemClass.SB, delta=2)
    with pytest.raises(ValueError, match="graphs"):
        machine_roundtrip_report(machine, ProblemClass.SB, running_time=1)


@pytest.mark.parametrize("selection", ["pairs", "graphs"])
def test_roundtrip_with_an_empty_selection_is_rejected(selection):
    """An empty ``pairs`` or ``graphs`` selects no instance: it must raise
    like the None/None case, not report ``agree=True`` over 0 instances."""
    machine = reference_machine(ProblemClass.SB, delta=2)
    with pytest.raises(ValueError, match="at least one instance"):
        machine_roundtrip_report(machine, ProblemClass.SB, running_time=1, **{selection: []})


def test_formula_check_without_instances_is_rejected():
    """No graph selects no instance: the check must raise, not report
    agreement over nothing."""
    formula = Prop("deg1")
    algorithm = algorithm_for_formula(formula, ProblemClass.SB)
    with pytest.raises(ValueError, match="no instance"):
        algorithm_matches_formula(algorithm, formula, ProblemClass.SB, graphs=[])


class EchoesAligned(VectorAlgorithm):
    """Leaves echo the out-port number their first message left through; a
    node of degree 2 halts with output 1 iff in-port ``i`` echoes ``i``, and
    spins forever otherwise."""

    def initial_state(self, degree):
        return ("send-port", degree)

    def send(self, state, port):
        return port if state[0] == "send-port" else state[1]

    def transition(self, state, received):
        if state[0] == "send-port":
            return ("echo", received[0]) if state[1] == 1 else ("listen", None)
        if state[0] == "echo" or (state[0] == "listen" and tuple(received) == (1, 2)):
            return Output(1)
        return ("spin", None)


def test_a_disagreement_is_found_before_a_later_numbering_stalls():
    """On a 3-path the first adversarial numbering halts and the second
    stalls: a disagreement on the first is still reported, and agreement on
    the first still reaches the stall."""
    graph = path_graph(3)
    assert not algorithm_matches_formula(EchoesAligned(), Bottom(), ProblemClass.VV, [graph])
    with pytest.raises(ExecutionError, match="did not halt"):
        algorithm_matches_formula(EchoesAligned(), Top(), ProblemClass.VV, [graph], max_rounds=5)


def test_roundtrip_checks_the_formula_once_per_graph(monkeypatch):
    """Every numbering of a graph is labelled from one model check, on the
    union of the distinct encodings the numberings induce."""
    checked = []
    real_check_many = correspondence.check_many

    def counting_check_many(model, formulas, **kwargs):
        checked.append(model)
        return real_check_many(model, formulas, **kwargs)

    monkeypatch.setattr(correspondence, "check_many", counting_check_many)
    report = machine_roundtrip_report(
        reference_machine(ProblemClass.SV, delta=3), ProblemClass.SV, 1, graphs=DELTA3_GRAPHS
    )
    assert report.agree, report.first_disagreement
    assert report.instances == 52
    assert len(checked) == len(DELTA3_GRAPHS)


@pytest.mark.parametrize("problem_class", ALL_CLASSES, ids=str)
def test_two_round_machine_roundtrip(problem_class):
    report = machine_roundtrip_report(
        reference_machine(problem_class, delta=2, rounds=2),
        problem_class,
        running_time=2,
        graphs=DELTA2_GRAPHS,
    )
    assert report.agree, report.first_disagreement
    assert report.modal_depth == 2


class TestMachineLibrary:
    @pytest.mark.parametrize("problem_class", ALL_CLASSES, ids=str)
    def test_transition_factors_through_the_class_view(self, problem_class):
        """Permuting the padded vector never changes a non-Vector transition."""
        machine = random_machine(problem_class, delta=3, seed=9)
        vectors = [("x", "y", machine.no_message), ("x", "x", "y")]
        for state in machine.intermediate_states:
            for vector in vectors:
                results = {
                    machine.transition_table(state, permuted)
                    for permuted in itertools.permutations(vector)
                }
                if problem_class.model.receive is ReceiveMode.VECTOR:
                    continue
                assert len(results) == 1

    def test_set_machines_ignore_multiplicities(self):
        machine = random_machine(ProblemClass.SB, delta=3, seed=9)
        for state in machine.intermediate_states:
            assert machine.transition_table(state, ("x", "x", "y")) == (
                machine.transition_table(state, ("x", "y", "y"))
            )

    @pytest.mark.parametrize("problem_class", ALL_CLASSES, ids=str)
    def test_broadcast_machines_ignore_the_port(self, problem_class):
        machine = random_machine(problem_class, delta=3, seed=4)
        if problem_class.model.send is not SendMode.BROADCAST:
            return
        for state in machine.intermediate_states:
            messages = {machine.message_table(state, port) for port in (1, 2, 3)}
            assert len(messages) == 1

    def test_machines_are_cross_process_deterministic(self):
        """Hash-derived tables never depend on the process hash seed."""
        first = random_machine(ProblemClass.MV, delta=2, seed=3)
        second = random_machine(ProblemClass.MV, delta=2, seed=3)
        assert first.initial_states == second.initial_states
        for state in first.intermediate_states:
            assert first.message_table(state, 1) == second.message_table(state, 1)
            assert first.transition_table(state, ("x", "y")) == (
                second.transition_table(state, ("x", "y"))
            )

    def test_class_view_collapses_exactly_the_invisible_structure(self):
        padded = ("x", "y", "x")
        assert class_view(ProblemClass.VV, padded) == padded
        assert class_view(ProblemClass.MV, padded) == ("x", "x", "y")
        assert class_view(ProblemClass.SV, padded) == ("x", "y")


class TestFormulaSizeBudget:
    def test_over_budget_raises_before_enumerating(self):
        machine = reference_machine(ProblemClass.VV, delta=3)
        with pytest.raises(FormulaSizeError) as err:
            formula_for_machine(machine, ProblemClass.VV, 1, max_formula_nodes=100)
        assert err.value.budget == 100
        assert err.value.predicted_nodes > 100
        assert err.value.specs > 0
        assert "max_formula_nodes" in str(err.value)

    def test_infeasible_coordinate_fails_fast(self):
        """A (Delta, |M|, T) blow-up raises cleanly instead of hanging."""
        machine = reference_machine(ProblemClass.VV, delta=6)
        with pytest.raises(FormulaSizeError) as err:
            formula_for_machine(machine, ProblemClass.VV, 3)
        assert err.value.predicted_nodes > err.value.budget

    def test_none_disables_the_budget(self):
        machine = reference_machine(ProblemClass.SB, delta=2)
        formula = formula_for_machine(
            machine, ProblemClass.SB, 1, max_formula_nodes=None
        )
        assert modal_depth(formula) == 1

    @pytest.mark.parametrize(
        "problem_class, machine, rounds, exact_growth",
        [
            ("SB", "UNIQUE_SB_MACHINE", 1, 41),
            ("VV", "reference_machine(ProblemClass.VV, 4)", 1, None),
            ("SV", "reference_machine(ProblemClass.SV, 3, rounds=2)", 2, None),
            ("MV", "reference_machine(ProblemClass.MV, 3, rounds=2)", 2, None),
        ],
        ids=["SB-unique-names", "VV-4-1", "SV-3-2", "MV-3-2"],
    )
    def test_prediction_bounds_actual_pool_growth(
        self, problem_class, machine, rounds, exact_growth
    ):
        """The estimate is an upper bound on the pool growth it predicts.

        Run in a fresh interpreter, where the pool is empty: message names
        never appear in a formula node, so formulas an earlier test interned
        would hide growth (19 nodes after ``_some_odd_neighbour_machine(2)``
        is built, none after a machine differing only in names) and let the
        bound pass vacuously.  Each construction runs under the default
        budget.
        """
        code = textwrap.dedent(
            f"""
            from repro.logic.syntax import formula_pool
            from repro.machines.library import reference_machine
            from repro.machines.models import ProblemClass
            from repro.machines.state_machine import FiniteStateMachine
            from repro.modal.algorithm_to_formula import (
                formula_for_machine,
                predict_formula_nodes,
            )

            UNIQUE_SB_MACHINE = FiniteStateMachine(
                delta_bound=2,
                intermediate_states=frozenset({{"u-state-a", "u-state-b"}}),
                stopping_states=frozenset({{0, 1}}),
                messages=frozenset({{"uniq-m1", "uniq-m2"}}),
                initial_states={{0: "u-state-a", 1: "u-state-b", 2: "u-state-a"}},
                message_table=lambda state, port: (
                    "uniq-m1" if state == "u-state-a" else "uniq-m2"
                ),
                transition_table=lambda state, padded: 1 if "uniq-m1" in set(padded) else 0,
            )
            machine = {machine}
            problem_class = ProblemClass({problem_class!r})
            predicted, specs = predict_formula_nodes(machine, problem_class, {rounds})
            before = len(formula_pool())
            formula_for_machine(machine, problem_class, {rounds})
            print(predicted, specs, len(formula_pool()) - before)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        predicted, specs, grown = map(int, proc.stdout.split())
        assert 0 < grown <= predicted
        if exact_growth is not None:
            assert grown == exact_growth
        assert specs > 0

    def test_vv_delta_4_builds_under_the_default_budget(self):
        """The prediction charges each round's received-message conditions
        once, as the construction builds them, so the one-round VV formula at
        Delta=4 (about 38,000 pool nodes) is not refused by the 500,000-node
        default budget."""
        machine = reference_machine(ProblemClass.VV, 4)
        predicted, _ = predict_formula_nodes(machine, ProblemClass.VV, 1)
        assert predicted <= DEFAULT_MAX_FORMULA_NODES
        assert modal_depth(formula_for_machine(machine, ProblemClass.VV, 1)) == 1

    @pytest.mark.parametrize(
        "name, delta, rounds, grown, dag",
        [("VV", 3, 1, 1_403, 1_401), ("VV", 2, 2, 690, 688)],
    )
    def test_the_pool_grows_by_about_the_returned_dag(self, name, delta, rounds, grown, dag):
        """The last round builds only what ``psi`` reaches.

        The two extra nodes are the guard conjunctions of ``(state, degree)``
        pairs with no transition into an accepting state.  Building every
        state's last-round formula grew the pool by 4,138 and 945 nodes.  Run
        in a fresh interpreter, where the pool is empty, so interning cannot
        hide any growth.
        """
        code = textwrap.dedent(
            f"""
            from repro.logic.syntax import dag_size, formula_pool
            from repro.machines.library import reference_machine
            from repro.machines.models import ProblemClass
            from repro.modal.algorithm_to_formula import formula_for_machine

            problem_class = ProblemClass({name!r})
            machine = reference_machine(problem_class, {delta}, rounds={rounds})
            before = len(formula_pool())
            formula = formula_for_machine(machine, problem_class, {rounds})
            print(len(formula_pool()) - before, dag_size(formula))
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert tuple(map(int, proc.stdout.split())) == (grown, dag)

    def test_live_pool_growth_backstops_an_underestimate(self, monkeypatch):
        """The live guard fires within a round when the prediction is wrong.

        No test builds a Delta=5 Vector formula (its prediction is far over
        the default budget), so interning cannot hide the growth.
        """
        monkeypatch.setattr(
            "repro.modal.algorithm_to_formula.predict_formula_nodes",
            lambda machine, problem_class, running_time: (0, 0),
        )
        machine = reference_machine(ProblemClass.VV, delta=5)
        with pytest.raises(FormulaSizeError, match="live pool growth at t=1") as err:
            formula_for_machine(machine, ProblemClass.VV, 1, max_formula_nodes=2_000)
        # It fired after one (state, degree) block, not after the whole round.
        assert 2_000 < err.value.predicted_nodes < 100_000
        assert err.value.budget == 2_000

    def test_the_live_guard_fires_before_larger_degrees_are_listed(self):
        """Specs are listed one degree at a time, so an underestimate stops the
        construction before the 759,375 degree-5 specs are listed.

        Run in a fresh interpreter: the Delta=5 formula's nodes that the test
        above interned would hide growth and move the guard to a later degree.
        """
        code = textwrap.dedent(
            """
            import repro.modal.algorithm_to_formula as construction
            from repro.machines.library import reference_machine
            from repro.machines.models import ProblemClass

            listed = []
            vector_specs = construction._vector_specs

            def recording(messages, delta, degree):
                listed.append(degree)
                return vector_specs(messages, delta, degree)

            construction._vector_specs = recording
            construction.predict_formula_nodes = lambda *arguments: (0, 0)
            machine = reference_machine(ProblemClass.VV, 5)
            try:
                construction.formula_for_machine(
                    machine, ProblemClass.VV, 1, max_formula_nodes=2_000
                )
            except construction.FormulaSizeError:
                print(*listed)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "1", "2", "3"]

    def test_a_machine_without_intermediate_states_allocates_no_conditions(self):
        """Only the degree and state formulas: no received-message rows.

        Run in a fresh interpreter, where the pool is empty, so interning
        cannot hide any growth (message names never appear in a formula
        node, so unique names alone would not defeat it).  Building the rows
        anyway would grow the pool by 283 nodes.
        """
        code = textwrap.dedent(
            """
            from repro.logic.syntax import formula_pool
            from repro.machines.models import ProblemClass
            from repro.machines.state_machine import FiniteStateMachine
            from repro.modal.algorithm_to_formula import formula_for_machine

            machine = FiniteStateMachine(
                delta_bound=3,
                intermediate_states=frozenset(),
                stopping_states=frozenset({0, 1}),
                messages=frozenset({"halted-only-m1", "halted-only-m2"}),
                initial_states={0: 0, 1: 1, 2: 0, 3: 1},
                message_table=lambda state, port: "halted-only-m1",
                transition_table=lambda state, padded: state,
            )
            before = len(formula_pool())
            formula_for_machine(machine, ProblemClass.VV, 2)
            print(len(formula_pool()) - before)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == 10

    def test_roundtrip_report_threads_the_budget(self):
        machine = reference_machine(ProblemClass.VV, delta=3)
        with pytest.raises(FormulaSizeError):
            machine_roundtrip_report(
                machine,
                ProblemClass.VV,
                1,
                graphs=DELTA3_GRAPHS,
                max_formula_nodes=100,
            )


def structural_digest(formula) -> str:
    """A digest of ``formula``'s structure, bottom-up over its pool nodes.

    Each node hashes its kind, its payload and its children's digests in
    order, never a node id: two constructions that build the same formula in
    a different order agree, and a difference in any reachable node shows.
    """
    pool = formula_pool()
    digests: dict[int, bytes] = {}
    for node in topological_ids(formula):
        node_hash = hashlib.sha256(repr((pool.kinds[node], pool.payloads[node])).encode())
        for child in pool.children[node]:
            node_hash.update(digests[child])
        digests[node] = node_hash.digest()
    return digests[formula.node_id].hex()[:16]


#: ``(machine, class, parameter, digest)`` of two-round formulas at Delta=2,
#: pinned from the construction that still built every state's last-round
#: formula.  ``reference`` is the two-round reference machine, ``parameter``
#: its ``accepting_output``; ``random`` is ``random_machine`` with
#: ``parameter`` as its seed, which halts in round 1, so the last round only
#: carries the stopping states forward.
PINNED_STRUCTURES = [
    ("reference", "SB", 0, "fdfe57e4b87070ae"), ("reference", "SB", 1, "f949462b49772258"),
    ("reference", "MB", 0, "58955d03244ceeec"), ("reference", "MB", 1, "e3b36de8ec60a0ae"),
    ("reference", "VB", 0, "e10bdf7d11f54baa"), ("reference", "VB", 1, "78e452b8e3689bdb"),
    ("reference", "SV", 0, "100986ec42906163"), ("reference", "SV", 1, "ab829e59ad725364"),
    ("reference", "MV", 0, "23e791ff77d1c7a1"), ("reference", "MV", 1, "320c12ac01c3a54b"),
    ("reference", "VV", 0, "0bdb6f8697bc110e"), ("reference", "VV", 1, "09e694f1f39a6103"),
    ("reference", "VVc", 0, "0bdb6f8697bc110e"), ("reference", "VVc", 1, "09e694f1f39a6103"),
    ("random", "SB", 0, "d68ebef218c8aaee"), ("random", "SB", 1, "3511a2e8bdc151e4"),
    ("random", "SB", 2, "4c80f6ef710f5a8e"),
    ("random", "MB", 0, "e21eb71f56770c03"), ("random", "MB", 1, "9899437ac8af6335"),
    ("random", "MB", 2, "b9eeca7a86f9d227"),
    ("random", "VB", 0, "da57175e7750b555"), ("random", "VB", 1, "a06d4bc1fa8ef6c1"),
    ("random", "VB", 2, "81ace66d8149502f"),
    ("random", "SV", 0, "ca9731de6de46ac6"), ("random", "SV", 1, "64822a83705176d6"),
    ("random", "SV", 2, "bdef1aa90d76062f"),
    ("random", "MV", 0, "ef112085c03ba933"), ("random", "MV", 1, "68151defb20e2fcc"),
    ("random", "MV", 2, "f52de687d97d44c1"),
    ("random", "VV", 0, "da9b6d387f2d224c"), ("random", "VV", 1, "723dfa8a06aefc14"),
    ("random", "VV", 2, "e903bd9f06ebc1e5"),
    ("random", "VVc", 0, "da9b6d387f2d224c"), ("random", "VVc", 1, "723dfa8a06aefc14"),
    ("random", "VVc", 2, "e903bd9f06ebc1e5"),
]


class TestEmittedFormulas:
    @pytest.mark.parametrize("problem_class", ALL_CLASSES, ids=str)
    def test_modal_depth_equals_running_time(self, problem_class):
        machine = reference_machine(problem_class, delta=2)
        formula = formula_for_machine(machine, problem_class, 1)
        assert modal_depth(formula) == 1
        deep = reference_machine(problem_class, delta=2, rounds=2)
        assert modal_depth(formula_for_machine(deep, problem_class, 2)) == 2

    @pytest.mark.parametrize(
        "name, delta, sizes",
        [
            ("SB", 2, (39, 205, 1)), ("SB", 3, (62, 525, 1)), ("SB", 4, (84, 965, 1)),
            ("MB", 2, (14, 33, 1)), ("MB", 3, (38, 193, 1)), ("MB", 4, (76, 661, 1)),
            ("VB", 2, (35, 163, 1)), ("VB", 3, (89, 868, 1)), ("VB", 4, (233, 4157, 1)),
            ("MV", 2, (26, 91, 1)), ("MV", 3, (285, 2999, 1)), ("MV", 4, (3367, 55561, 1)),
            ("SV", 2, (131, 1179, 1)), ("SV", 3, (1136, 18866, 1)),
            ("SV", 4, (9507, 227257, 1)),
            ("VV", 2, (88, 501, 1)), ("VV", 3, (1401, 17990, 1)),
            ("VV", 4, (37760, 741689, 1)),
            ("VVc", 3, (1401, 17990, 1)),
        ],
    )
    def test_pinned_sizes(self, name, delta, sizes):
        """``(dag_size, tree_size, modal_depth)`` of the one-round reference
        formulas: e2's 18 ``parity`` coordinates (the six arbitrary-numbering
        classes at Delta 2-4) and, at Delta 3, E4's seven round trips."""
        problem_class = ProblemClass(name)
        formula = formula_for_machine(
            reference_machine(problem_class, delta, rounds=1),
            problem_class,
            1,
            max_formula_nodes=5_000_000,
        )
        assert (dag_size(formula), tree_size(formula), modal_depth(formula)) == sizes

    @pytest.mark.parametrize("machine, name, parameter, digest", PINNED_STRUCTURES)
    def test_pinned_structure(self, machine, name, parameter, digest):
        """The two-round formulas node for node, last round included."""
        problem_class = ProblemClass(name)
        if machine == "reference":
            formula = formula_for_machine(
                reference_machine(problem_class, 2, rounds=2),
                problem_class,
                2,
                accepting_output=parameter,
            )
        else:
            formula = formula_for_machine(
                random_machine(problem_class, 2, parameter), problem_class, 2
            )
        assert modal_depth(formula) == 2
        assert structural_digest(formula) == digest

    def test_sharing_beats_the_tree_blowup(self):
        """The two-round Vector formula: tree in the millions, DAG tiny."""
        machine = reference_machine(ProblemClass.VV, delta=3, rounds=2)
        formula = formula_for_machine(
            machine, ProblemClass.VV, 2, max_formula_nodes=2_000_000
        )
        assert tree_size(formula) > 10**6
        assert dag_size(formula) < 100_000
