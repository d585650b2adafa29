"""Built-in campaign definitions.

These re-express the sweep-shaped experiments as declarative specs:

* ``e3-hierarchy`` -- the E3 hierarchy survey: the representative workload of
  every problem class, run over a varied graph corpus under adversarially
  varied port numberings.  The aggregation verdicts encode the survey's
  content: the workloads of the broadcast/multiset/set classes (SB, MB, VB,
  MV) compute numbering-invariant outputs, while the SV and VV
  representatives (leaf election, port echo) genuinely use port numbers --
  the information gap the hierarchy SB ⊊ MB = VB ⊊ SV = MV = VV is built on.
* ``e2-correspondence`` -- the Theorem 2 round-trip sweep: the library
  ``parity`` machine of every arbitrary-numbering class is compiled to its
  Table 4/5 formula (a hash-consed DAG) and back to a compiled
  formula-algorithm, and the three fronts are cross-checked over non-trivial
  topologies -- circulant, torus and random-lift families alongside the
  simple ones -- under consistent and random numberings.  (VVc restricts to
  consistent numberings, which a single spec's strategy axis cannot express
  per class; it is exercised by experiment E4 and the test suite instead.)
* ``e12-invariance`` -- the E12 bisimulation-invariance sweep: ML and GML
  formula batches model-checked over Kripke encodings of random
  bounded-degree graphs, verifying Fact 1 on every instance.
* ``smoke`` / ``smoke-logic`` -- tiny campaigns for CI, one per scenario
  kind, fast enough for a run -> resume -> report pipeline on every PR.

Each entry is a zero-argument factory so callers always get a fresh spec
they may mutate (e.g. scale the axes down).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.campaign.spec import CampaignSpec, GraphGrid


def e3_hierarchy_spec() -> CampaignSpec:
    return CampaignSpec(
        name="e3-hierarchy",
        kind="execution",
        description="E3 hierarchy survey: per-class workloads vs adversarial numberings",
        graphs=[
            GraphGrid.of("star", {"leaves": [3, 4]}),
            GraphGrid.of("path", {"n": [4, 5]}),
            GraphGrid.of("cycle", {"n": [4, 5, 6]}),
            GraphGrid.of("torus", {"rows": 3, "cols": 3}),
            GraphGrid.of("circulant", {"n": 8, "jumps": [[1, 2]]}),
            GraphGrid.of("random-tree", {"n": 7}),
        ],
        port_strategies=["consistent", "random", "random-consistent"],
        model_classes=["SB", "MB", "VB", "MV", "SV", "VV"],
        engines=["sweep"],
        seeds=[0, 1],
        expectations={
            "some-odd-neighbour": True,
            "neighbour-degree-sum": True,
            "broadcast-min-degree": True,
            "gather-degrees": True,
            "leaf-election": False,
            "port-echo": False,
        },
    )


def e2_correspondence_spec() -> CampaignSpec:
    return CampaignSpec(
        name="e2-correspondence",
        kind="correspondence",
        description="Theorem 2 round trips: machine == formula == recompiled algorithm",
        graphs=[
            GraphGrid.of("cycle", {"n": [4, 5]}),
            GraphGrid.of("star", {"leaves": 3}),
            GraphGrid.of("circulant", {"n": 8, "jumps": [[1, 2]]}),
            GraphGrid.of("torus", {"rows": 3, "cols": 3}),
            GraphGrid.of("lift", {"base": "cycle", "base_n": 5, "k": 2}),
        ],
        port_strategies=["consistent", "random"],
        model_classes=["SB", "MB", "VB", "MV", "SV", "VV"],
        machines=["parity"],
        engines=["sweep"],
        seeds=[0, 1],
    )


def e12_invariance_spec() -> CampaignSpec:
    return CampaignSpec(
        name="e12-invariance",
        kind="logic",
        description="E12 sweep: Fact 1 bisimulation invariance over random graphs",
        graphs=[
            GraphGrid.of("random-bounded-degree", {"n": 10, "max_degree": 3}),
            GraphGrid.of("random-tree", {"n": 9}),
        ],
        port_strategies=["consistent", "random"],
        model_classes=["SB", "MV"],
        formula_sets=["ml-basic", "gml-basic"],
        seeds=[0, 1, 2],
    )


def smoke_spec() -> CampaignSpec:
    return CampaignSpec(
        name="smoke",
        kind="execution",
        description="tiny CI campaign: run -> resume -> report on every PR",
        graphs=[
            GraphGrid.of("cycle", {"n": [4, 5]}),
            GraphGrid.of("star", {"leaves": 3}),
        ],
        port_strategies=["consistent", "random"],
        model_classes=["SB", "MB"],
        engines=["sweep"],
        seeds=[0],
        expectations={"some-odd-neighbour": True, "neighbour-degree-sum": True},
    )


def smoke_logic_spec() -> CampaignSpec:
    return CampaignSpec(
        name="smoke-logic",
        kind="logic",
        description="tiny CI campaign: the logic scenario path on every PR",
        graphs=[GraphGrid.of("random-bounded-degree", {"n": 6, "max_degree": 3})],
        port_strategies=["consistent"],
        model_classes=["SB"],
        formula_sets=["ml-basic", "gml-basic"],
        seeds=[0, 1],
    )


BUILTIN_CAMPAIGNS: dict[str, Callable[[], CampaignSpec]] = {
    "e2-correspondence": e2_correspondence_spec,
    "e3-hierarchy": e3_hierarchy_spec,
    "e12-invariance": e12_invariance_spec,
    "smoke": smoke_spec,
    "smoke-logic": smoke_logic_spec,
}


def builtin_spec(name: str) -> CampaignSpec:
    try:
        factory = BUILTIN_CAMPAIGNS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_CAMPAIGNS))
        raise KeyError(f"unknown built-in campaign {name!r}; known: {known}") from None
    return factory()
