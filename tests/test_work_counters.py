"""Pinned work: the counters the program publishes, against a committed fixture.

Manifest digests pin *what* the program computes; this module pins *how much
work* it does to compute it.  Each target runs in a fresh interpreter with
``repro.obs`` metrics enabled, and its counters are compared exactly with
``tests/fixtures/work_counters.json``:

* ``reproduction`` -- :func:`repro.experiments.registry.run_all_experiments`,
  every counter;
* ``smoke`` and ``e3-hierarchy``, serial on a temporary store -- every
  counter;
* ``e3-hierarchy`` with ``workers=2`` -- only the counters that do not depend
  on how units land on workers (each worker interns into its own tables, so
  ``sweep.evaluations`` and ``sweep.distinct_*`` follow the assignment).

The fixture's ``e2-correspondence`` entry holds the same partition-invariant
counters of an e2 run with ``workers=2``; CI's campaign job checks it
against its own sharded CLI run, which tier-1 does not repeat.

The counters are deterministic, so a change that moves one is a change in
the work the program does: update the fixture in the same diff and say which
counter moved and why.  Regenerate the fixture with::

    PYTHONPATH=src python tests/test_work_counters.py --write
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "work_counters.json"

#: ``(target, workers)`` of every fixture entry, keyed by entry name.
TARGETS = {
    "reproduction": ("reproduction", None),
    "smoke": ("smoke", None),
    "e3-hierarchy": ("e3-hierarchy", None),
    "e3-hierarchy-workers-2": ("e3-hierarchy", 2),
    "e2-correspondence": ("e2-correspondence", 2),
}

#: The entries tier-1 measures (the e2 run is CI's).
TIER1 = ("e3-hierarchy", "e3-hierarchy-workers-2", "reproduction", "smoke")

#: Counters besides ``campaign.scenarios.*`` that no partition of the scenarios
#: over workers changes.
PARTITION_INVARIANT = (
    "sweep.instances",
    "sweep.executed",
    "sweep.replicated",
    "sweep.rounds",
    "sweep.occurrences",
    "sweep.replicated_occurrences",
    "logic.check_many.calls",
)

_PROBE = r"""
import json, sys, tempfile
from repro import obs

target, workers = sys.argv[1], (int(sys.argv[2]) or None)
obs.enable()
if target == "reproduction":
    from repro.experiments.registry import run_all_experiments

    run_all_experiments()
else:
    from repro.campaign.builtin import builtin_spec
    from repro.campaign.executor import run_campaign

    with tempfile.TemporaryDirectory() as root:
        run_campaign(builtin_spec(target), root + "/store", workers=workers)
print(json.dumps(obs.snapshot()["counters"], sort_keys=True))
"""


def partition_invariant(counters: dict) -> dict:
    """The counters of a sharded run that any assignment of units reproduces."""
    return {
        name: value
        for name, value in counters.items()
        if name.startswith("campaign.scenarios.") or name in PARTITION_INVARIANT
    }


def measure(entry: str) -> dict:
    """Counters of one fixture entry, measured in a fresh interpreter."""
    target, workers = TARGETS[entry]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE, target, str(workers or 0)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
        check=True,
    )
    counters = json.loads(completed.stdout.splitlines()[-1])
    return partition_invariant(counters) if workers else counters


@pytest.mark.parametrize("entry", TIER1)
def test_work_counters_match_the_fixture(entry):
    expected = json.loads(FIXTURE.read_text())[entry]
    assert measure(entry) == expected


def test_sharding_leaves_the_partition_invariant_counters_alone():
    fixture = json.loads(FIXTURE.read_text())
    sharded = fixture["e3-hierarchy-workers-2"]
    assert sharded == partition_invariant(fixture["e3-hierarchy"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    fixture = {entry: measure(entry) for entry in sorted(TARGETS)}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
