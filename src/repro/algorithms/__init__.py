"""Concrete distributed algorithms in the weak models.

These are the executable witnesses used throughout the experiments:

* :mod:`~repro.algorithms.basic` -- toy algorithms (constants, degree output,
  neighbourhood gathering) used by the simulation and correspondence tests.
* :mod:`~repro.algorithms.parity` -- the MB(1) algorithm of Theorem 13 and an
  SB(1) companion.
* :mod:`~repro.algorithms.leaf_election` -- the SV(1) algorithm of Theorem 11.
* :mod:`~repro.algorithms.local_types` -- the VVc(1) symmetry-breaking
  algorithm of Theorem 17.
* :mod:`~repro.algorithms.vertex_cover` -- a vertex-cover algorithm in the
  port-numbering model via maximal matching of the bipartite double cover
  (Section 3.3 motivation).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "ConstantAlgorithm": ".basic",
        "DegreeAlgorithm": ".basic",
        "GatherDegreesAlgorithm": ".basic",
        "NeighbourDegreeSumAlgorithm": ".basic",
        "PortEchoAlgorithm": ".basic",
        "RoundCounterAlgorithm": ".basic",
        "OddOddNeighboursAlgorithm": ".parity",
        "SomeOddNeighbourAlgorithm": ".parity",
        "LeafElectionAlgorithm": ".leaf_election",
        "LocalTypeSymmetryBreaking": ".local_types",
        "DoubleCoverMatchingVertexCover": ".vertex_cover",
    },
)

__all__ = [
    "ConstantAlgorithm",
    "DegreeAlgorithm",
    "GatherDegreesAlgorithm",
    "NeighbourDegreeSumAlgorithm",
    "PortEchoAlgorithm",
    "RoundCounterAlgorithm",
    "OddOddNeighboursAlgorithm",
    "SomeOddNeighbourAlgorithm",
    "LeafElectionAlgorithm",
    "LocalTypeSymmetryBreaking",
    "DoubleCoverMatchingVertexCover",
]
