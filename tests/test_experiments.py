"""Tests for the experiment harness: every experiment runs and matches the paper."""

from __future__ import annotations

import json
import re

import pytest

from repro.experiments import format_report
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.report import ExperimentResult


class TestRegistry:
    def test_twelve_experiments_registered(self):
        assert len(EXPERIMENTS) == 12
        assert set(EXPERIMENTS) == {f"E{i}" for i in range(1, 13)}

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("E99")


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS, key=lambda e: int(e[1:])))
def test_experiment_matches_paper(experiment_id):
    """Each experiment regenerates its paper artefact with no mismatching rows."""
    result = run_experiment(experiment_id)
    assert isinstance(result, ExperimentResult)
    assert result.rows, "an experiment must report at least one comparison"
    mismatches = [row.metric for row in result.rows if not row.matches]
    assert not mismatches, f"{experiment_id} mismatches: {mismatches}"


@pytest.mark.parametrize(
    "experiment_id, pattern, expected",
    [
        ("E5", r"max message size=(\d+)", ["3568", "561", "561", "27074"]),
        ("E6", r"max sizes for T=1,2,4,8: (\[[\d, ]+\])", ["[6, 9, 15, 27]", "[4, 5, 7, 11]"]),
        ("E4", r"instances=(\d+)", ["27", "309", "309", "309", "309", "309", "309"]),
    ],
    ids=["E5", "E6", "E4"],
)
def test_measured_values_are_pinned(experiment_id, pattern, expected):
    """E5 and E6 report exactly the message sizes of the plain tree walk, and
    E4's round trips count every adversarial numbering, not every distinct
    Kripke encoding."""
    rows = run_experiment(experiment_id).rows
    assert [value for row in rows for value in re.findall(pattern, row.measured)] == expected


class TestReporting:
    def test_format_single_result(self):
        result = ExperimentResult("E0", "demo", "nowhere")
        result.add("metric", "paper says", "we measured", True)
        text = result.format()
        assert "E0" in text and "metric" in text and "[ok]" in text

    def test_format_report_verdict(self):
        good = ExperimentResult("E0", "demo", "nowhere")
        good.add("m", "p", "m", True)
        bad = ExperimentResult("E0b", "demo", "nowhere")
        bad.add("m", "p", "m", False)
        assert "ALL EXPERIMENTS MATCH" in format_report([good])
        assert "MISMATCHES PRESENT" in format_report([good, bad])

    def test_all_match_property(self):
        result = ExperimentResult("E0", "demo", "nowhere")
        result.add("m", "p", "m", True)
        assert result.all_match
        result.add("m2", "p", "m", False)
        assert not result.all_match

    def test_to_dict_round_trips_rows(self):
        result = ExperimentResult("E0", "demo", "nowhere")
        result.add("metric", "paper says", "we measured", True)
        payload = result.to_dict()
        assert payload["experiment_id"] == "E0"
        assert payload["all_match"] is True
        assert payload["rows"] == [
            {"metric": "metric", "paper": "paper says", "measured": "we measured", "matches": True}
        ]
        # the payload is genuinely machine-readable
        assert json.loads(json.dumps(payload)) == payload


class TestCommandLine:
    def test_list_enumerates_registered_ids(self, capsys):
        assert experiments_main(["--list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPERIMENTS:
            assert experiment_id in out

    def test_unknown_id_exits_cleanly(self):
        with pytest.raises(SystemExit, match="unknown experiment 'E99'"):
            experiments_main(["E99"])

    def test_json_flag_emits_records(self, capsys):
        assert experiments_main(["--json", "E1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        assert payload[0]["experiment_id"] == "E1"
        assert payload[0]["all_match"] is True
        assert all(row["matches"] for row in payload[0]["rows"])
