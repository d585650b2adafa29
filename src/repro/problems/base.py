"""The graph-problem abstraction (Section 1.4).

A graph problem ``Pi`` associates with each graph ``G`` a set ``Pi(G)`` of
admissible solutions, each solution being a labelling ``S : V -> Y`` of the
nodes with values from a finite set.  Following the paper, problems are
specified here by a *validity predicate* (``is_solution``), which is all that
adversarial verification needs.
"""

from __future__ import annotations

import abc
from typing import Any

from repro.graphs.graph import Graph, Node


class GraphProblem(abc.ABC):
    """A graph problem given by its validity predicate."""

    #: The finite output alphabet ``Y``.
    outputs: tuple[Any, ...] = (0, 1)

    @property
    def name(self) -> str:
        """A human-readable name (defaults to the class name)."""
        return type(self).__name__

    @abc.abstractmethod
    def is_solution(self, graph: Graph, assignment: dict[Node, Any]) -> bool:
        """Whether ``assignment`` is an admissible solution for ``graph``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
