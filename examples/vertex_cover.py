#!/usr/bin/env python3
"""Distributed vertex cover in the port-numbering model (Section 3.3).

The paper's motivation for studying the weak models is that non-trivial
optimisation is possible even without identifiers: a 2-approximate vertex
cover is computable in MB(1).  This example runs the library's double-cover
matching algorithm (class VVc) on a family of bounded-degree graphs, verifies
that the output is a cover under adversarial consistent port numberings and
reports the measured approximation ratio against the exact optimum.

Run with::

    python examples/vertex_cover.py
"""

from __future__ import annotations

from repro.algorithms.vertex_cover import DoubleCoverMatchingVertexCover, cover_from_outputs
from repro.execution.adversary import outputs_over_port_numberings
from repro.graphs.generators import (
    cycle_graph,
    figure9_graph,
    grid_graph,
    random_bounded_degree_graph,
    star_graph,
)
from repro.graphs.matching import is_vertex_cover, minimum_vertex_cover


def evaluate(label, graph) -> None:
    algorithm = DoubleCoverMatchingVertexCover()
    optimum = len(minimum_vertex_cover(graph))
    worst = 0
    valid = True
    for _numbering, result in outputs_over_port_numberings(
        algorithm, graph, consistent_only=True, exhaustive_limit=30, samples=5
    ):
        cover = cover_from_outputs(result.outputs)
        valid = valid and result.halted and is_vertex_cover(graph, cover)
        worst = max(worst, len(cover))
    ratio = worst / optimum if optimum else 1.0
    print(
        f"{label:<26} nodes={graph.number_of_nodes:>3}  cover={worst:>3}  "
        f"optimum={optimum:>3}  ratio={ratio:4.2f}  always a cover={valid}"
    )


def main() -> None:
    print("Distributed vertex cover via maximal matching of the bipartite double cover")
    print("(class VVc; ratios are measured against the exact minimum cover)\n")
    evaluate("path-like grid 2x5", grid_graph(2, 5))
    evaluate("cycle of 9", cycle_graph(9))
    evaluate("star with 6 leaves", star_graph(6))
    evaluate("Figure 9 graph", figure9_graph())
    for seed in (1, 2, 3):
        evaluate(f"random (14 nodes, deg<=3) #{seed}", random_bounded_degree_graph(14, 3, seed=seed))
    print("\nThe paper's MB(1) algorithm of [3] guarantees ratio 2; the simpler")
    print("construction used here stays close to 2 on these inputs and never")
    print("exceeds 3 (see experiment E11).")


if __name__ == "__main__":
    main()
