"""Graph substrate: simple undirected graphs, port numberings and generators.

This subpackage provides every graph-theoretic object the paper relies on:

* :class:`~repro.graphs.graph.Graph` -- immutable simple undirected graphs of
  bounded degree (the family ``F(Delta)`` of Section 1.1).
* :class:`~repro.graphs.ports.PortNumbering` -- port numberings and consistent
  port numberings (Section 1.2, Figures 1 and 2).
* :mod:`~repro.graphs.generators` -- structured graph families, including the
  three-regular graph with no perfect matching of Figure 9 and the gadget pair
  of Theorem 13.
* :mod:`~repro.graphs.matching` -- matchings, 1-factors and 1-factorisations
  (Lemmas 15 and 16), plus exact minimum vertex covers for small graphs.
* :mod:`~repro.graphs.covers` -- the bipartite double cover construction of
  Lemma 15 / Figure 8 and symmetric port numberings of regular graphs.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "Graph": ".graph",
        "PortNumbering": ".ports",
        "all_port_numberings": ".ports",
        "consistent_port_numbering": ".ports",
        "local_type": ".ports",
        "random_port_numbering": ".ports",
        "circulant_graph": ".generators",
        "complete_bipartite_graph": ".generators",
        "complete_graph": ".generators",
        "cycle_graph": ".generators",
        "double_cover_graph": ".generators",
        "figure9_graph": ".generators",
        "from_networkx": ".generators",
        "grid_graph": ".generators",
        "hypercube_graph": ".generators",
        "odd_odd_gadget_pair": ".generators",
        "path_graph": ".generators",
        "random_lift": ".generators",
        "random_regular_graph": ".generators",
        "random_tree": ".generators",
        "star_graph": ".generators",
        "torus_graph": ".generators",
        "has_perfect_matching": ".matching",
        "maximum_matching": ".matching",
        "minimum_vertex_cover": ".matching",
        "one_factorisation": ".matching",
        "bipartite_double_cover": ".covers",
        "local_view": ".covers",
        "symmetric_port_numbering": ".covers",
    },
)

__all__ = [
    "Graph",
    "PortNumbering",
    "all_port_numberings",
    "consistent_port_numbering",
    "local_type",
    "random_port_numbering",
    "circulant_graph",
    "complete_bipartite_graph",
    "complete_graph",
    "cycle_graph",
    "double_cover_graph",
    "figure9_graph",
    "from_networkx",
    "grid_graph",
    "hypercube_graph",
    "odd_odd_gadget_pair",
    "path_graph",
    "random_lift",
    "random_regular_graph",
    "random_tree",
    "star_graph",
    "torus_graph",
    "has_perfect_matching",
    "maximum_matching",
    "minimum_vertex_cover",
    "one_factorisation",
    "bipartite_double_cover",
    "local_view",
    "symmetric_port_numbering",
]
