"""Evidence objects for the classification (experiment E3).

The paper's main theorem is assembled from two kinds of building blocks:

* *containment evidence* -- a simulation construction turning any algorithm of
  a weaker model into one of a stronger class's model (Theorems 4, 8, 9), and
* *separation evidence* -- a graph problem solvable in the larger class
  together with a witness graph, a port numbering and a set of nodes that are
  bisimilar in the smaller class's Kripke encoding yet must receive different
  outputs (Corollary 3; Theorems 11, 13, 17).

The classes below make those building blocks first-class, *checkable* values:
``verify()`` replays the argument on concrete graphs, so the full Figure 5b
order can be re-derived mechanically by :func:`build_classification`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.execution.adversary import outputs_over_port_numberings
from repro.execution.runner import run
from repro.graphs.graph import Graph, Node
from repro.graphs.ports import PortNumbering
from repro.logic.bisimulation import bisimilar_within
from repro.machines.algorithm import Algorithm
from repro.machines.models import ProblemClass
from repro.modal.encoding import kripke_encoding, variant_for_class


@dataclass(frozen=True)
class ContainmentEvidence:
    """Evidence that ``smaller ⊆ larger``: a checked simulation construction.

    ``simulate`` maps an algorithm of ``smaller``'s model to an algorithm of
    ``larger``'s model (or vice versa -- for the paper's equalities the
    interesting direction is simulating the *stronger* model in the *weaker*
    one, e.g. a Multiset algorithm by a Set algorithm for MV ⊆ SV).
    ``verify`` runs both algorithms on the supplied graphs and checks the
    validity predicate.
    """

    smaller: ProblemClass
    larger: ProblemClass
    description: str
    simulate: Callable[[Algorithm], Algorithm]

    def verify(
        self,
        algorithms: Sequence[Algorithm],
        graphs: Sequence[Graph],
        outputs_valid: Callable[[Graph, PortNumbering, dict[Node, Any]], bool],
        exhaustive_limit: int = 200,
        samples: int = 10,
    ) -> bool:
        """Check that the simulation preserves solution validity on the inputs.

        ``outputs_valid(graph, numbering, outputs)`` receives the port
        numbering under which the simulation ran, so callers can compare
        against the original algorithm's execution under the same numbering
        (or under any numbering sharing its output-port assignment, which is
        the guarantee Theorem 8 actually gives).

        Each graph's numberings run as one adversarial sweep
        (:func:`~repro.execution.adversary.outputs_over_port_numberings`); a
        simulation that fails to halt counts as a failed verification.
        """
        for algorithm in algorithms:
            simulated = self.simulate(algorithm)
            for graph in graphs:
                for numbering, result in outputs_over_port_numberings(
                    simulated, graph, exhaustive_limit=exhaustive_limit, samples=samples
                ):
                    if not result.halted or not outputs_valid(graph, numbering, result.outputs):
                        return False
        return True


@dataclass(frozen=True)
class SeparationEvidence:
    """Evidence that ``larger ⊄ smaller``, in the shape of Corollary 3.

    Attributes
    ----------
    smaller, larger:
        The two classes being separated (the witness problem is solvable in
        ``larger`` but not in ``smaller``).
    problem_name:
        Human-readable name of the separating graph problem.
    solver:
        An algorithm of ``larger``'s model solving the problem (used to show
        membership in the larger class).
    witness_graph:
        The graph ``G`` of Corollary 3.
    witness_nodes:
        The node set ``X``: every valid solution must assign both outputs
        inside ``X``.
    numbering:
        A port numbering of the witness graph under which all nodes of ``X``
        are bisimilar in ``smaller``'s Kripke encoding (``None`` means the
        encoding is numbering-independent and the canonical one is used).
    solution_distinguishes:
        Predicate receiving the output assignment restricted to ``X`` and
        returning ``True`` when the assignment is *constant* on ``X`` --
        i.e. when the output would violate the problem.
    """

    smaller: ProblemClass
    larger: ProblemClass
    problem_name: str
    solver: Algorithm
    witness_graph: Graph
    witness_nodes: tuple[Node, ...]
    is_valid_solution: Callable[[Graph, dict[Node, Any]], bool]
    numbering: PortNumbering | None = None

    def witness_bisimilar(self) -> bool:
        """Corollary 3's hypothesis: the witness nodes are bisimilar in the weak encoding.

        Checked by the compiled partition refinement.
        """
        model = kripke_encoding(
            self.witness_graph, self.numbering, variant=variant_for_class(self.smaller)
        )
        return bisimilar_within(model, self.witness_nodes)

    def solutions_must_distinguish(self) -> bool:
        """Corollary 3's other hypothesis, checked via the validity predicate.

        Any constant assignment on the witness nodes (extended arbitrarily --
        here by the solver's own outputs elsewhere) must be invalid.  We check
        the weaker, sufficient condition that no *constant-on-X* output the
        solver could be forced into is valid, by flipping the outputs on X.
        """
        base = run(self.solver, self.witness_graph).outputs
        for constant in {0, 1}:
            candidate = dict(base)
            for node in self.witness_nodes:
                candidate[node] = constant
            if self.is_valid_solution(self.witness_graph, candidate):
                return False
        return True

    def solver_succeeds(
        self,
        graphs: Sequence[Graph],
        exhaustive_limit: int = 200,
        samples: int = 10,
    ) -> bool:
        """Membership in the larger class: the solver is valid on all inputs."""
        for graph in graphs:
            for _numbering, result in outputs_over_port_numberings(
                self.solver,
                graph,
                consistent_only=self.larger.requires_consistency,
                exhaustive_limit=exhaustive_limit,
                samples=samples,
            ):
                if not result.halted or not self.is_valid_solution(graph, result.outputs):
                    return False
        return True

    def verify(self, graphs: Sequence[Graph] | None = None) -> bool:
        """Replay the whole separation argument."""
        test_graphs = list(graphs) if graphs is not None else [self.witness_graph]
        return (
            self.witness_bisimilar()
            and self.solutions_must_distinguish()
            and self.solver_succeeds(test_graphs)
        )


@dataclass
class ClassificationReport:
    """The assembled classification, with per-claim verification results."""

    containments: list[tuple[ContainmentEvidence, bool]] = field(default_factory=list)
    separations: list[tuple[SeparationEvidence, bool]] = field(default_factory=list)

    def all_verified(self) -> bool:
        return all(ok for _, ok in self.containments) and all(ok for _, ok in self.separations)

    def rows(self) -> list[tuple[str, str, bool]]:
        """(claim, evidence description, verified) rows for reporting."""
        table: list[tuple[str, str, bool]] = []
        for evidence, ok in self.containments:
            claim = f"{evidence.smaller} ⊆ {evidence.larger}"
            table.append((claim, evidence.description, ok))
        for evidence, ok in self.separations:
            claim = f"{evidence.larger} ⊄ {evidence.smaller}"
            table.append((claim, evidence.problem_name, ok))
        return table
