"""Property-based tests for the Theorem 2 compilation (random formulas).

For random formulas of each signature, the compiled local algorithm must agree
with the model checker on the matching Kripke encoding for every node of a
random bounded-degree graph -- Theorem 2's "formula -> algorithm" half as a
hypothesis property.  It must also agree with the seed
:class:`FormulaAlgorithm` state by state: in every round, every node's flat
byte state decodes to the seed's three-valued assignment.  And the batched
formula side, one check on the disjoint union of the distinct encodings of
many numberings, must label each numbering as the seed checker labels its
own encoding.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.execution.runner import run
from repro.graphs.generators import cycle_graph, random_bounded_degree_graph
from repro.graphs.ports import random_port_numbering
from repro.logic.semantics import extension, reference_extension
from repro.logic.syntax import And, Bottom, Diamond, GradedDiamond, Not, Or, Prop, Top
from repro.machines.algorithm import Output
from repro.machines.models import ProblemClass
from repro.modal.correspondence import formula_outputs
from repro.modal.encoding import kripke_encoding, kripke_unions, variant_for_class
from repro.modal.formula_to_algorithm import (
    UNDEFINED,
    FormulaAlgorithm,
    algorithm_for_formula,
)

import random


PORTS = st.integers(1, 3)
STAR = st.just("*")

#: Each class's modality indices, and the grades of its graded diamonds
#: (``None``: plain diamonds only, as the Set classes cannot count).  VB, VV
#: and VVc take graded diamonds too, though each of their relations has at
#: most one successor.
SIGNATURES = {
    ProblemClass.SB: (st.tuples(STAR, STAR), None),
    ProblemClass.MB: (st.tuples(STAR, STAR), st.integers(0, 3)),
    ProblemClass.VB: (st.tuples(PORTS, STAR), st.integers(0, 2)),
    ProblemClass.SV: (st.tuples(STAR, PORTS), None),
    ProblemClass.MV: (st.tuples(STAR, PORTS), st.integers(0, 3)),
    ProblemClass.VV: (st.tuples(PORTS, PORTS), st.integers(0, 2)),
    ProblemClass.VVC: (st.tuples(PORTS, PORTS), st.integers(0, 2)),
}


@st.composite
def indexed_formulas(draw, index, grades=None, depth: int = 2):
    """Random formulas whose modalities draw their index from ``index``.

    With ``grades`` the modal layer mixes plain and graded diamonds, the
    grade drawn from ``grades``; without, it has plain diamonds only.
    """
    if depth == 0:
        return draw(st.sampled_from([Prop("deg1"), Prop("deg2"), Prop("deg3"), Top(), Bottom()]))
    sub = indexed_formulas(index, grades, depth - 1)
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(indexed_formulas(index, grades, 0))
    if kind == 1:
        return Not(draw(sub))
    if kind == 2:
        return And(draw(sub), draw(sub))
    if kind == 3:
        return Or(draw(sub), draw(sub))
    if kind == 5 and grades is not None:
        return GradedDiamond(draw(sub), grade=draw(grades), index=draw(index))
    return Diamond(draw(sub), index=draw(index))


def class_formulas(problem_class: ProblemClass, depth: int = 2):
    """Random formulas in the signature of ``problem_class``."""
    index, grades = SIGNATURES[problem_class]
    return indexed_formulas(index, grades, depth)


def _instance(problem_class: ProblemClass, graph_seed: int, numbering_seed: int):
    graph = random_bounded_degree_graph(6, 3, seed=graph_seed)
    numbering = random_port_numbering(
        graph,
        random.Random(numbering_seed),
        consistent=problem_class.requires_consistency,
    )
    return graph, numbering


def _check(problem_class: ProblemClass, formula, graph_seed: int, numbering_seed: int) -> None:
    graph, numbering = _instance(problem_class, graph_seed, numbering_seed)
    algorithm = algorithm_for_formula(formula, problem_class)
    outputs = run(algorithm, graph, numbering).outputs
    encoding = kripke_encoding(graph, numbering, variant=variant_for_class(problem_class))
    truth = extension(encoding, formula)
    for node in graph.nodes:
        assert (outputs[node] == 1) == (node in truth)


@given(class_formulas(ProblemClass.SB), st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_sb_compilation_matches_semantics(formula, graph_seed, numbering_seed):
    _check(ProblemClass.SB, formula, graph_seed, numbering_seed)


@given(class_formulas(ProblemClass.MB), st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_mb_compilation_matches_semantics(formula, graph_seed, numbering_seed):
    _check(ProblemClass.MB, formula, graph_seed, numbering_seed)


@given(class_formulas(ProblemClass.SV), st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_sv_compilation_matches_semantics(formula, graph_seed, numbering_seed):
    _check(ProblemClass.SV, formula, graph_seed, numbering_seed)


@pytest.mark.parametrize(
    "problem_class",
    [ProblemClass.VB, ProblemClass.MV, ProblemClass.VV, ProblemClass.VVC],
    ids=str,
)
@given(data=st.data(), graph_seed=st.integers(0, 10_000), numbering_seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_port_aware_compilation_matches_semantics(problem_class, data, graph_seed, numbering_seed):
    formula = data.draw(class_formulas(problem_class))
    _check(problem_class, formula, graph_seed, numbering_seed)


def _seed_form(state):
    """A compiled state in the seed's form: byte 2 becomes ``UNDEFINED``."""
    if isinstance(state, Output):
        return state
    degree, flat = state
    return (degree, tuple(UNDEFINED if value == 2 else value for value in flat))


@pytest.mark.parametrize("problem_class", list(ProblemClass), ids=str)
@given(data=st.data(), graph_seed=st.integers(0, 10_000), numbering_seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_compiled_states_equal_the_seed_states(problem_class, data, graph_seed, numbering_seed):
    """Round by round and node by node, the compiled algorithm holds the
    seed's three-valued assignment (or the same output)."""
    formula = data.draw(class_formulas(problem_class, depth=3))
    graph, numbering = _instance(problem_class, graph_seed, numbering_seed)
    compiled = run(
        algorithm_for_formula(formula, problem_class), graph, numbering, record_trace=True
    )
    seed = run(FormulaAlgorithm(formula, problem_class), graph, numbering, record_trace=True)
    assert compiled.outputs == seed.outputs
    assert compiled.rounds == seed.rounds
    compiled_history = compiled.trace.state_history
    assert len(compiled_history) == len(seed.trace.state_history)
    for compiled_states, seed_states in zip(compiled_history, seed.trace.state_history):
        assert {node: _seed_form(s) for node, s in compiled_states.items()} == seed_states


def _assert_seed_labellings(graph, numberings, formula, problem_class) -> None:
    """``formula_outputs`` labels every numbering as the seed checker labels
    that numbering's own encoding."""
    variant = variant_for_class(problem_class)
    labellings = formula_outputs(graph, numberings, formula, problem_class)
    assert len(labellings) == len(numberings)
    for numbering, labelling in zip(numberings, labellings):
        truth = reference_extension(kripke_encoding(graph, numbering, variant), formula)
        assert labelling == {node: int(node in truth) for node in graph.nodes}


@pytest.mark.parametrize("problem_class", list(ProblemClass), ids=str)
@given(
    data=st.data(),
    graph_seed=st.integers(0, 10_000),
    numbering_seeds=st.lists(st.integers(0, 3), min_size=1, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_batched_labellings_equal_the_seed_checker(
    problem_class, data, graph_seed, numbering_seeds
):
    """Numberings drawn from four seeds repeat, so equal encodings share a
    copy of the union; each copy is a generated submodel (Fact 1)."""
    formula = data.draw(class_formulas(problem_class))
    graph = random_bounded_degree_graph(6, 3, seed=graph_seed)
    numberings = [
        random_port_numbering(
            graph, random.Random(seed), consistent=problem_class.requires_consistency
        )
        for seed in numbering_seeds
    ]
    _assert_seed_labellings(graph, numberings, formula, problem_class)


def test_batched_labellings_span_two_unions():
    """200 distinct VV encodings of an 8-cycle are 1,600 worlds: two unions."""
    graph = cycle_graph(8)
    rng = random.Random(8)
    numberings = [random_port_numbering(graph, rng) for _ in range(200)]
    unions, _places = kripke_unions(graph, numberings, variant_for_class(ProblemClass.VV))
    assert len(unions) == 2
    assert sum(len(union.worlds) for union in unions) == 1600
    formula = Or(
        Diamond(Diamond(Prop("deg2"), index=(1, 2)), index=(2, 1)),
        Not(Diamond(Top(), index=(1, 1))),
    )
    _assert_seed_labellings(graph, numberings, formula, ProblemClass.VV)
