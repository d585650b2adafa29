"""Tests for the experiment harness: every experiment runs and matches the paper."""

from __future__ import annotations

import hashlib
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


#: sha256 of ``json.dumps(result.to_dict(), indent=2)`` for each experiment's
#: record.  CI pins the sha256 of the whole ``python -m repro.experiments
#: --json`` report as well.
RECORD_SHA256 = {
    "E1": "f6b564beed516e4d1242e50708572034bcd43d2453c0e0636c7a90a88caf6784",
    "E2": "221ad4efc58bc46e19c07389329b230fee1c268dafcc784679b8c19bca21fb29",
    "E3": "7f070ff2aecbab4d92623f720808795f7d516712497900ad9120409dcdf58ff6",
    "E4": "cc9257bb37b1b41ac92f3406b4940cba287d2b3e521e81bb2e5317b300ac6cad",
    "E5": "14aba1c92e6438b6cf4f3b9c3624d7867f01deb5582b039a4749d0673176bdb4",
    "E6": "57eb76075c03db1d7061741ad889a317bc595aad684f62ca7046a5683a237469",
    "E7": "62acebae6eb94bdf4940b1082f07947c6fff834cc177fa785f4fc4fb9f4b994a",
    "E8": "5975fcb37b92cc832e14f1d85ddadb615906220fb979c0ee712915e5afe68eb4",
    "E9": "3ea361a044748be03c504fa4a599b9d37eef1511cd2cdec58cc3b8c41bd150c0",
    "E10": "3aa97f5925a54eee9c9733c7e7cefddd96d7c08a13329519c1e90a75172022f1",
    "E11": "3dc91051ee99ede0989b053ec95e8c589946a6e52fb7d6bcd213920f72f50385",
    "E12": "4e3baf0a04274633076354e5446b4964417881b9a31319887619c101892bb1d5",
}


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS, key=lambda e: int(e[1:])))
def test_experiment_matches_paper(experiment_id):
    """Each experiment regenerates its paper artefact with no mismatching rows,
    and its record is byte-identical to the pinned one."""
    result = run_experiment(experiment_id)
    assert isinstance(result, ExperimentResult)
    assert result.rows, "an experiment must report at least one comparison"
    mismatches = [row.metric for row in result.rows if not row.matches]
    assert not mismatches, f"{experiment_id} mismatches: {mismatches}"
    record = json.dumps(result.to_dict(), indent=2).encode()
    assert hashlib.sha256(record).hexdigest() == RECORD_SHA256[experiment_id]


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
