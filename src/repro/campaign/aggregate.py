"""Aggregation: streaming per-axis rollups over campaign records.

The campaign report rides the same reporting substrate as the experiment
harness: a :class:`CampaignRollup` folds records one at a time into per-axis
accumulators and finalizes them into an
:class:`~repro.experiments.report.ExperimentResult`, so ``format_report`` and
the ``--json`` machine-readable path work identically for experiments and
campaigns, and CI consumes one record shape for both.

Everything is *incremental*: ``fold`` consumes a single record, ``result``
(or ``rollups``) finalizes whatever has been folded so far.  The campaign
dispatcher folds each unit's records as they land, so a finished run's report
rereads only its store hits; the batch form, :func:`campaign_result`, is a
thin loop over the same fold, so streaming and batch rollups are *exactly*
equal.

Rollups group records by workload (algorithm or formula set):

* execution campaigns report, per workload, how many scenarios ran, whether
  they all halted, and whether the outputs were *invariant* under the port
  numbering axis -- i.e. every graph point produced one output digest across
  all port strategies and engines.  Where the spec carries an expectation
  (e.g. the built-in hierarchy survey expects SB..MV workloads invariant and
  the SV/VV workloads numbering-sensitive), the row matches only if the
  verdict agrees;
* logic campaigns report, per ``formula set x model class``, whether every
  scenario's bisimilarity-invariance check held (Fact 1 -- always expected);
* correspondence campaigns report, per ``machine x model class``, whether
  every Theorem 2 round trip agreed on all three fronts (machine output ==
  formula extension == recompiled formula-algorithm output), plus the
  DAG-vs-tree size of the emitted formulas.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from repro.campaign import registry
from repro.campaign.backends import ResultStore, open_backend
from repro.campaign.spec import CampaignSpec, _freeze
from repro.experiments.report import ExperimentResult


def load_records(store: ResultStore, name: str) -> tuple[CampaignSpec, list[dict[str, Any]]]:
    """The spec and the in-order records of a stored campaign manifest."""
    manifest = store.read_manifest(name)
    spec = CampaignSpec.from_dict(manifest["spec"])
    records = list(store.get_many(entry["hash"] for entry in manifest["scenarios"]))
    return spec, records


#: Memoized ``registry.family_seeded`` verdicts, keyed by the frozen params
#: tuple.  Campaign records repeat graph param sets across the port/seed/
#: engine axes, so the fold would otherwise re-derive the same verdict once
#: per record.  Registration of new families never invalidates entries:
#: the key pins the exact (family, params) the verdict was computed for,
#: and an unknown family is conservatively seeded either way.
_SEEDED_CACHE: dict[tuple[str, tuple], bool] = {}


def _graph_point_of(scenario: dict[str, Any]) -> tuple:
    """``Scenario.from_dict(scenario).graph_point()`` without the Scenario.

    The execution fold runs once per stored record and only ever needs the
    graph point; at 10^5 records the dataclass round-trip dominated the
    report, so the point is computed straight from the record dict.  It must
    bucket identically to :meth:`Scenario.graph_point` -- same frozen, sorted
    params tuple and the same seededness rule -- or the invariance rollups
    would split graph instances that the executor treats as one.
    """
    family = scenario["family"]
    params = tuple(
        (key, _freeze(value)) for key, value in sorted(scenario["graph_params"].items())
    )
    key = (family, params)
    seeded = _SEEDED_CACHE.get(key)
    if seeded is None:
        seeded = registry.family_seeded(family, dict(params))
        _SEEDED_CACHE[key] = seeded
    return (family, params, scenario["seed"] if seeded else None)


def _workload_of(record: dict[str, Any]) -> str:
    scenario = record["scenario"]
    return (
        scenario["algorithm"] or scenario["formula_set"] or scenario.get("machine") or "?"
    )


# --------------------------------------------------------------------------- #
# Per-kind incremental folds
# --------------------------------------------------------------------------- #


class ExecutionRollup:
    """Incremental per-workload execution rollups, keyed by algorithm name."""

    def __init__(self) -> None:
        self._groups: dict[str, dict[str, Any]] = {}

    def fold(self, record: dict[str, Any]) -> None:
        state = self._groups.setdefault(
            _workload_of(record),
            {
                "scenarios": 0,
                "digests_per_point": {},
                "all_halted": True,
                "max_rounds_used": 0,
                "model_classes": set(),
            },
        )
        point = _graph_point_of(record["scenario"])
        state["scenarios"] += 1
        state["digests_per_point"].setdefault(point, set()).add(
            record["result"]["output_digest"]
        )
        state["all_halted"] = state["all_halted"] and record["result"]["halted"]
        state["max_rounds_used"] = max(state["max_rounds_used"], record["result"]["rounds"])
        model_class = record["scenario"]["model_class"]
        if model_class is not None:
            state["model_classes"].add(model_class)

    def finalize(self) -> dict[str, dict[str, Any]]:
        rollups: dict[str, dict[str, Any]] = {}
        for workload, state in sorted(self._groups.items()):
            per_point = state["digests_per_point"]
            rollups[workload] = {
                "scenarios": state["scenarios"],
                "graph_points": len(per_point),
                "all_halted": state["all_halted"],
                "max_rounds_used": state["max_rounds_used"],
                "invariant": all(len(digests) == 1 for digests in per_point.values()),
                "model_classes": sorted(state["model_classes"]),
            }
        return rollups


class LogicRollup:
    """Incremental per ``(formula set, model class)`` logic rollups."""

    def __init__(self) -> None:
        self._groups: dict[tuple[str, str], dict[str, Any]] = {}

    def fold(self, record: dict[str, Any]) -> None:
        scenario = record["scenario"]
        state = self._groups.setdefault(
            (scenario["formula_set"], scenario["model_class"] or "-"),
            {"scenarios": 0, "invariant": True, "worlds": 0, "classes": 0},
        )
        state["scenarios"] += 1
        state["invariant"] = state["invariant"] and record["result"]["invariant"]
        state["worlds"] += record["result"]["worlds"]
        state["classes"] += record["result"]["classes"]

    def finalize(self) -> dict[tuple[str, str], dict[str, Any]]:
        return {key: dict(state) for key, state in sorted(self._groups.items())}


class CorrespondenceRollup:
    """Incremental per ``(machine, model class)`` Theorem 2 rollups."""

    def __init__(self) -> None:
        self._groups: dict[tuple[str, str], dict[str, Any]] = {}

    def fold(self, record: dict[str, Any]) -> None:
        scenario = record["scenario"]
        state = self._groups.setdefault(
            (scenario.get("machine") or "?", scenario["model_class"] or "-"),
            {
                "scenarios": 0,
                "instances": 0,
                "agree": True,
                "oracle_checked": 0,
                "max_dag_size": 0,
                "max_tree_size": 0,
            },
        )
        result = record["result"]
        state["scenarios"] += 1
        state["instances"] += result["instances"]
        state["agree"] = state["agree"] and result["agree"]
        state["oracle_checked"] += 1 if result["oracle_checked"] else 0
        state["max_dag_size"] = max(state["max_dag_size"], result["dag_size"])
        state["max_tree_size"] = max(state["max_tree_size"], result["tree_size"])

    def finalize(self) -> dict[tuple[str, str], dict[str, Any]]:
        return {key: dict(state) for key, state in sorted(self._groups.items())}


_FOLDS = {
    "execution": ExecutionRollup,
    "logic": LogicRollup,
    "correspondence": CorrespondenceRollup,
}


# --------------------------------------------------------------------------- #
# The campaign-level rollup
# --------------------------------------------------------------------------- #


class CampaignRollup:
    """Streaming aggregation of one campaign's records.

    Fold records in any order, any number of times per batch; ``result()``
    finalizes into the same :class:`ExperimentResult` a batch aggregation of
    the identical record set produces.  The campaign dispatcher keeps one of
    these per job and folds each unit's records as they land, so the report
    reads back only the job's store hits.
    """

    def __init__(self, spec: CampaignSpec) -> None:
        self.spec = spec
        self.folded = 0
        self._fold = _FOLDS[spec.kind]()

    def fold(self, record: dict[str, Any]) -> None:
        self._fold.fold(record)
        self.folded += 1

    def fold_many(self, records: Iterable[dict[str, Any]]) -> "CampaignRollup":
        for record in records:
            self.fold(record)
        return self

    def rollups(self) -> dict:
        """The per-axis rollup table folded so far (finalized snapshot)."""
        return self._fold.finalize()

    def result(self) -> ExperimentResult:
        """Finalize into the paper-vs-measured experiment table."""
        spec = self.spec
        result = ExperimentResult(
            experiment_id=f"campaign:{spec.name}",
            title=spec.description or f"campaign sweep {spec.name!r}",
            paper_reference=f"{self.folded} scenarios, kind={spec.kind}",
        )
        if spec.kind == "execution":
            for workload, rollup in self.rollups().items():
                classes = ",".join(rollup["model_classes"]) or "-"
                expected = spec.expectations.get(workload)
                if expected is None:
                    paper = "observe numbering (in)sensitivity"
                    matches = rollup["all_halted"]
                else:
                    paper = (
                        "outputs invariant under port numberings"
                        if expected
                        else "outputs depend on port numbering"
                    )
                    matches = rollup["all_halted"] and rollup["invariant"] == expected
                result.add(
                    f"{workload} [{classes}]",
                    paper,
                    f"halted={rollup['all_halted']}, invariant={rollup['invariant']}, "
                    f"scenarios={rollup['scenarios']}",
                    matches,
                )
        elif spec.kind == "correspondence":
            for (machine, model_class), rollup in self.rollups().items():
                expected = spec.expectations.get(machine, True)
                ratio = (
                    rollup["max_tree_size"] / rollup["max_dag_size"]
                    if rollup["max_dag_size"]
                    else 1.0
                )
                result.add(
                    f"{machine} on {model_class}",
                    "machine == formula == recompiled algorithm (Theorem 2)"
                    if expected
                    else "round trip expected to disagree",
                    f"agree={rollup['agree']}, instances={rollup['instances']}, "
                    f"dag={rollup['max_dag_size']} vs tree={rollup['max_tree_size']} "
                    f"({ratio:.0f}x), oracle_checked={rollup['oracle_checked']}",
                    rollup["agree"] == expected,
                )
        else:
            for (fset, model_class), rollup in self.rollups().items():
                # Fact 1 is the default expectation; a spec may override per
                # formula set (e.g. a deliberately non-invariant probe).
                expected = spec.expectations.get(fset, True)
                result.add(
                    f"{fset} on K({model_class})",
                    "bisimilar worlds satisfy the same formulas (Fact 1)"
                    if expected
                    else "formula set expected to separate bisimilar worlds",
                    f"invariant={rollup['invariant']}, scenarios={rollup['scenarios']}, "
                    f"classes={rollup['classes']}/{rollup['worlds']} worlds",
                    rollup["invariant"] == expected,
                )
        return result


def campaign_result(spec: CampaignSpec, records: Iterable[dict[str, Any]]) -> ExperimentResult:
    """Fold campaign records into an :class:`ExperimentResult`."""
    return CampaignRollup(spec).fold_many(records).result()


def report_campaign(store: ResultStore | str, name: str) -> ExperimentResult:
    """Aggregate a stored campaign into a report result, streaming.

    Records flow straight from the store's batch reader into the fold --
    the full record list is never materialized, which is what keeps report
    time flat in memory at 10^5+ records.
    """
    store = open_backend(store)
    manifest = store.read_manifest(name)
    spec = CampaignSpec.from_dict(manifest["spec"])
    rollup = CampaignRollup(spec)
    rollup.fold_many(store.get_many(entry["hash"] for entry in manifest["scenarios"]))
    return rollup.result()
