"""Experiment E11 -- vertex cover in the weak models (Section 3.3 motivation).

The paper motivates the study of the weak models with the result that a
2-approximate vertex cover is computable even in MB(1).  We run the simpler
double-cover-matching algorithm (class VVc) on a family of graphs, verify that
its output is always a vertex cover, and measure the worst observed
approximation ratio against an exact minimum cover.  The classical analysis of
the underlying maximal matching guarantees the paper's MB(1) algorithm a
factor of 2; the simpler algorithm here is expected to stay within a factor of
3 on the tested inputs (measured, not asserted).
"""

from __future__ import annotations

from repro.algorithms.vertex_cover import DoubleCoverMatchingVertexCover, cover_from_outputs
from repro.execution.adversary import outputs_over_port_numberings
from repro.experiments.report import ExperimentResult
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    figure9_graph,
    grid_graph,
    path_graph,
    random_bounded_degree_graph,
    star_graph,
)
from repro.graphs.matching import is_vertex_cover, minimum_vertex_cover


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E11",
        title="Vertex cover via double-cover matching",
        paper_reference="Section 3.3 (motivation; Astrand-Suomela [3])",
    )
    algorithm = DoubleCoverMatchingVertexCover()
    graphs = {
        "path_6": path_graph(6),
        "cycle_7": cycle_graph(7),
        "star_5": star_graph(5),
        "K_4": complete_graph(4),
        "grid_3x3": grid_graph(3, 3),
        "figure9": figure9_graph(),
        "random(12, max_deg 3)": random_bounded_degree_graph(12, 3, seed=11),
    }
    worst_ratio = 0.0
    for label, graph in graphs.items():
        optimum = len(minimum_vertex_cover(graph))
        always_cover = True
        worst_size = 0
        for _numbering, outcome in outputs_over_port_numberings(
            algorithm, graph, consistent_only=True, exhaustive_limit=50, samples=5
        ):
            cover = cover_from_outputs(outcome.outputs)
            always_cover = always_cover and outcome.halted and is_vertex_cover(graph, cover)
            worst_size = max(worst_size, len(cover))
        ratio = worst_size / optimum if optimum else 1.0
        worst_ratio = max(worst_ratio, ratio)
        result.add(
            f"{label}: valid cover and ratio",
            "a vertex cover within a small constant factor",
            f"always a cover={always_cover}, |C|={worst_size}, OPT={optimum}, ratio={ratio:.2f}",
            always_cover and ratio <= 3.0 + 1e-9,
        )
    result.add(
        "worst observed approximation ratio",
        "2 for the MB(1) algorithm of [3]; <= 3 expected for this simpler variant",
        f"{worst_ratio:.2f}",
        worst_ratio <= 3.0 + 1e-9,
    )
    return result
