"""The experiment registry: one entry per reproduced paper artefact.

``run_experiment(experiment_id)`` executes a single experiment and
``run_all_experiments()`` regenerates every paper-vs-measured table (the
wall-clock ledger's ``reproduction`` workload times the same run through
``python -m repro.experiments``).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.experiments import (
    e01_port_numbering,
    e02_model_information,
    e03_hierarchy,
    e04_modal_correspondence,
    e05_theorem4,
    e06_history_simulations,
    e07_star_separation,
    e08_odd_odd_separation,
    e09_symmetric_numbering,
    e10_matchless_separation,
    e11_vertex_cover,
    e12_bisimulation_invariance,
)
from repro.experiments.report import ExperimentResult

EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "E1": e01_port_numbering.run,
    "E2": e02_model_information.run,
    "E3": e03_hierarchy.run,
    "E4": e04_modal_correspondence.run,
    "E5": e05_theorem4.run,
    "E6": e06_history_simulations.run,
    "E7": e07_star_separation.run,
    "E8": e08_odd_odd_separation.run,
    "E9": e09_symmetric_numbering.run,
    "E10": e10_matchless_separation.run,
    "E11": e11_vertex_cover.run,
    "E12": e12_bisimulation_invariance.run,
}


def run_experiment(experiment_id: str) -> ExperimentResult:
    """Run one experiment by its id (``E1`` .. ``E12``)."""
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known ids: {', '.join(EXPERIMENTS)}"
        ) from None
    return runner()


def run_all_experiments() -> list[ExperimentResult]:
    """Run every experiment, in id order."""
    return [runner() for runner in EXPERIMENTS.values()]
