"""Graph problems (Section 1.4) and adversarial verification of algorithms.

* :mod:`~repro.problems.base` -- the :class:`GraphProblem` interface.
* :mod:`~repro.problems.separating` -- the three bespoke problems that
  separate the classes (Theorems 11, 13 and 17).
* :mod:`~repro.problems.verification` -- ``solves(algorithm, problem, ...)``:
  the adversarial check that an algorithm's output is a valid solution for
  every (or every consistent) port numbering.
"""

from repro.problems.base import GraphProblem
from repro.problems.separating import (
    LeafElectionInStars,
    OddOddNeighbours,
    SymmetryBreakingInMatchlessRegular,
)
from repro.problems.verification import find_counterexample, solves

__all__ = [
    "GraphProblem",
    "LeafElectionInStars",
    "OddOddNeighbours",
    "SymmetryBreakingInMatchlessRegular",
    "find_counterexample",
    "solves",
]
