"""The engine registry: resolution, discovery, capability and availability errors.

Every public ``engine=`` knob routes through
:func:`repro.engines.resolve_engine`, so unknown names, capability mismatches
(the sweep executor has no model checker) and missing optional dependencies
are diagnosed in exactly one place.  These tests pin the registry contract
and the regression that motivated it: ``engine="sweep"`` passed to a logic
entry point must fail at the public boundary with an error naming the engine
and the operation.
"""

import pickle

import pytest

from repro.engines import registry
from repro.engines.registry import (
    CAPABILITIES,
    EngineCapabilityError,
    EngineError,
    EngineSpec,
    EngineUnavailableError,
    UnknownEngineError,
    available_engines,
    engine_names,
    logic_engine_for,
    numpy_or_none,
    resolve_engine,
)
from repro.execution.engine import run_iter, run_many
from repro.graphs import consistent_port_numbering, cycle_graph
from repro.logic.bisimulation import bisimilarity_partition, bounded_bisimilarity_partition
from repro.logic.engine import check_many, check_sweep
from repro.logic.kripke import KripkeModel
from repro.logic.semantics import equivalent_on, extension, satisfies
from repro.logic.syntax import Diamond, Prop
from repro.machines import SetBroadcastAlgorithm
from repro.machines.algorithm import Output
from repro.machines.models import ProblemClass
from repro.modal.formula_to_algorithm import algorithm_for_formula


def small_model():
    return KripkeModel(
        worlds=frozenset([0, 1]),
        relations={"a": frozenset([(0, 1)])},
        valuation={"p": frozenset([1])},
    )


class Stamp(SetBroadcastAlgorithm):
    """Minimal broadcast algorithm for execution-boundary tests."""

    def initial_state(self, degree):
        return degree

    def broadcast(self, state):
        return "x"

    def transition(self, state, received):
        return Output(state)


# --------------------------------------------------------------------------- #
# Registry surface
# --------------------------------------------------------------------------- #


def test_registry_declares_four_engines_in_order():
    assert engine_names() == ("sweep", "compiled", "reference", "vector")


def test_engine_names_filters_by_capability():
    assert engine_names(requires={"sweep"}) == ("sweep", "compiled", "reference", "vector")
    assert engine_names(requires={"logic"}) == ("compiled", "reference", "vector")
    assert engine_names(requires={"trace"}) == ("compiled", "reference")
    assert engine_names(requires={"logic", "trace"}) == ("compiled", "reference")


def test_capability_vocabulary_covers_every_spec():
    for name in engine_names():
        assert registry._REGISTRY[name].capabilities <= CAPABILITIES
    for name in available_engines():
        assert resolve_engine(name) is registry._REGISTRY[name]
    if numpy_or_none() is None:
        with pytest.raises(EngineUnavailableError):
            resolve_engine("vector")


def test_resolve_engine_returns_spec():
    spec = resolve_engine("sweep")
    assert isinstance(spec, EngineSpec)
    assert spec.name == "sweep"
    assert spec.batched
    assert resolve_engine("compiled").batched is False


def test_logic_engine_for_pairing():
    pairing = {"sweep": "compiled", "compiled": "compiled", "reference": "reference",
               "vector": "vector"}
    assert {name: registry._REGISTRY[name].logic_backend for name in engine_names()} == pairing
    for name in available_engines():
        assert logic_engine_for(name) == pairing[name]
    if numpy_or_none() is None:
        with pytest.raises(EngineUnavailableError):
            logic_engine_for("vector")


def test_unknown_engine_error_is_value_error():
    with pytest.raises(UnknownEngineError, match="unknown engine 'turbo'"):
        resolve_engine("turbo")
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("turbo")


def test_engine_errors_are_picklable():
    err = pickle.loads(pickle.dumps(UnknownEngineError("unknown engine 'x'")))
    assert isinstance(err, EngineError)


# --------------------------------------------------------------------------- #
# Availability (optional numpy dependency)
# --------------------------------------------------------------------------- #


def test_available_engines_reflects_numpy_probe(monkeypatch):
    monkeypatch.setattr(registry, "_NUMPY", None)
    assert "vector" not in available_engines()
    assert available_engines() == ("sweep", "compiled", "reference")
    # The declared universe is unchanged: a spec naming "vector" stays
    # well-formed on a numpy-free box.
    assert "vector" in engine_names()


def test_unavailable_engine_raises_import_and_value_error(monkeypatch):
    monkeypatch.setattr(registry, "_NUMPY", None)
    with pytest.raises(EngineUnavailableError, match="pip install numpy"):
        resolve_engine("vector")
    with pytest.raises(ImportError):
        resolve_engine("vector")
    with pytest.raises(ValueError):
        resolve_engine("vector")


def test_unavailable_engine_at_execution_boundary(monkeypatch):
    monkeypatch.setattr(registry, "_NUMPY", None)
    graph = cycle_graph(4)
    numbering = consistent_port_numbering(graph)
    with pytest.raises(EngineUnavailableError, match="'vector'"):
        run_many(Stamp(), [(graph, numbering)], engine="vector")


def test_vector_available_when_numpy_installed():
    pytest.importorskip("numpy")
    assert "vector" in available_engines()
    assert resolve_engine("vector").requirement == "numpy"


# --------------------------------------------------------------------------- #
# Capability errors at every public logic boundary (regression)
# --------------------------------------------------------------------------- #

LOGIC_CALLS = [
    ("check_many", lambda m, f: check_many(m, [f], engine="sweep")),
    ("check_sweep", lambda m, f: check_sweep([m], [f], engine="sweep")),
    ("extension", lambda m, f: extension(m, f, engine="sweep")),
    ("satisfies", lambda m, f: satisfies(m, 0, f, engine="sweep")),
    ("equivalent_on", lambda m, f: equivalent_on(m, f, f, engine="sweep")),
    (
        "bisimilarity_partition",
        lambda m, f: bisimilarity_partition(m, engine="sweep"),
    ),
    (
        "bounded_bisimilarity_partition",
        lambda m, f: bounded_bisimilarity_partition(m, 2, engine="sweep"),
    ),
]


@pytest.mark.parametrize("name,call", LOGIC_CALLS, ids=[n for n, _ in LOGIC_CALLS])
def test_sweep_engine_rejected_by_logic_entry_points(name, call):
    """engine="sweep" at a logic boundary names the engine AND the operation."""
    model = small_model()
    formula = Diamond(Prop("p"), index="a")
    with pytest.raises(EngineCapabilityError) as excinfo:
        call(model, formula)
    message = str(excinfo.value)
    assert "'sweep'" in message
    assert name in message
    assert "logic" in message
    # The error lists the engines that would work.
    assert "compiled" in message and "reference" in message


def test_sweep_engine_rejected_by_algorithm_for_formula():
    with pytest.raises(EngineCapabilityError, match="algorithm_for_formula"):
        algorithm_for_formula(Diamond(Prop("p")), ProblemClass.SB, engine="sweep")


def test_capability_error_is_value_error():
    model = small_model()
    with pytest.raises(ValueError):
        check_many(model, [Prop("p")], engine="sweep")


# --------------------------------------------------------------------------- #
# Unknown engines rejected uniformly at every boundary
# --------------------------------------------------------------------------- #


def test_unknown_engine_rejected_by_execution_entry_points():
    graph = cycle_graph(4)
    numbering = consistent_port_numbering(graph)
    instance = [(graph, numbering)]
    with pytest.raises(UnknownEngineError, match="unknown engine 'warp'"):
        run_many(Stamp(), instance, engine="warp")
    with pytest.raises(UnknownEngineError, match="unknown engine"):
        list(run_iter(Stamp(), instance, engine="warp"))


def test_run_iter_checks_its_arguments_at_the_call(monkeypatch):
    # Only the execution is lazy: a bad knob raises before any iteration.
    graph = cycle_graph(4)
    instance = [(graph, consistent_port_numbering(graph))]
    with pytest.raises(UnknownEngineError, match="unknown engine 'warp'"):
        run_iter(Stamp(), instance, engine="warp")
    with pytest.raises(ValueError, match="inputs has 2 entries for 1 instances"):
        run_iter(Stamp(), instance, inputs=[None, None])
    monkeypatch.setattr(registry, "_NUMPY", None)
    with pytest.raises(EngineUnavailableError, match="'vector'"):
        run_iter(Stamp(), instance, engine="vector")


def test_unknown_engine_rejected_by_logic_entry_points():
    model = small_model()
    with pytest.raises(UnknownEngineError, match="unknown engine"):
        check_many(model, [Prop("p")], engine="warp")
    with pytest.raises(UnknownEngineError, match="unknown engine"):
        extension(model, Prop("p"), engine="warp")


def test_campaign_spec_validation_uses_registry():
    from repro.campaign.spec import CampaignSpec, GraphGrid

    spec = CampaignSpec(
        name="t",
        kind="execution",
        graphs=[GraphGrid.of("cycle", {"n": 4})],
        model_classes=["SB"],
        engines=["vector"],
    )
    # "vector" is a declared engine, so the spec is well-formed even where
    # numpy is absent (availability is an execution-time concern).
    assert spec.expand()
    bad = CampaignSpec(
        name="t",
        kind="execution",
        graphs=[GraphGrid.of("cycle", {"n": 4})],
        model_classes=["SB"],
        engines=["warp"],
    )
    with pytest.raises(ValueError, match="unknown engine 'warp' in campaign 't'"):
        bad.expand()
    logic_bad = CampaignSpec(
        name="t",
        kind="logic",
        graphs=[GraphGrid.of("cycle", {"n": 4})],
        model_classes=["SB"],
        formula_sets=["ml-basic"],
        engines=["sweep"],
    )
    with pytest.raises(ValueError, match="unknown engine 'sweep'"):
        logic_bad.expand()
