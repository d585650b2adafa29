"""Declare a scenario sweep, run it sharded, resume it, aggregate it.

This is the programmatic face of ``python -m repro.campaign``: build a
:class:`~repro.campaign.CampaignSpec` grid, run it through the sharded
executor into a content-addressed store, then re-run it to show that every
scenario resumes from the store and the manifest digest is unchanged.

Run with ``python examples/campaign_sweep.py`` (after ``pip install -e .``
or ``export PYTHONPATH=src``).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.campaign import (
    CampaignSpec,
    GraphGrid,
    ResultStore,
    campaign_result,
    load_records,
    run_campaign,
)
from repro.experiments.report import format_report

# A custom sweep: how do the representative workloads of four problem
# classes behave on tori, circulants and random trees when the adversary
# varies the port numbering?  Param values that are lists sweep; note the
# nested list for circulant jumps (one swept value that is itself a list).
spec = CampaignSpec(
    name="demo-sweep",
    kind="execution",
    description="per-class workloads on tori, circulants and random trees",
    graphs=[
        GraphGrid.of("torus", {"rows": 3, "cols": [3, 4]}),
        GraphGrid.of("circulant", {"n": [8, 10], "jumps": [[1, 2]]}),
        GraphGrid.of("random-tree", {"n": [6, 9]}),
    ],
    port_strategies=["consistent", "random"],
    model_classes=["SB", "MB", "MV", "VV"],
    seeds=[0, 1],
    expectations={
        # The weak-model workloads cannot see the numbering...
        "some-odd-neighbour": True,
        "neighbour-degree-sum": True,
        "gather-degrees": True,
        # ...the Vector workload genuinely uses it (the hierarchy's gap).
        "port-echo": False,
    },
)

with tempfile.TemporaryDirectory() as root:
    store = ResultStore(Path(root) / "store.db")

    print(f"expanded {len(spec.expand())} scenarios, first few:")
    for scenario in spec.expand()[:3]:
        print(f"  {scenario.content_hash()[:12]}  {scenario.describe()}")

    print("\n-- cold run, sharded over 2 workers --")
    cold = run_campaign(spec, store, workers=2, log=print)

    print("\n-- identical re-run: everything resumes from the store --")
    warm = run_campaign(spec, store, log=print)
    assert warm.executed == 0 and warm.store_hit_rate == 1.0
    assert warm.manifest_digest == cold.manifest_digest

    print("\n-- aggregated per-workload report --")
    stored_spec, records = load_records(store, spec.name)
    print(format_report([campaign_result(stored_spec, records)]))
