"""Experiment results and report formatting.

Every experiment regenerates one artefact of the paper (a figure, a theorem or
a lemma) and reports *paper claim vs. measured outcome* rows.  The rows are
consumed by ``python -m repro.experiments`` and by
``examples/hierarchy_survey.py``, and EXPERIMENTS.md is written from the same
data.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Row:
    """One paper-vs-measured comparison."""

    metric: str
    paper: str
    measured: str
    matches: bool

    def to_dict(self) -> dict:
        """Machine-readable form (consumed by ``--json`` and campaign CI)."""
        return {
            "metric": self.metric,
            "paper": self.paper,
            "measured": self.measured,
            "matches": self.matches,
        }


@dataclass
class ExperimentResult:
    """The outcome of one experiment."""

    experiment_id: str
    title: str
    paper_reference: str
    rows: list[Row] = field(default_factory=list)

    def add(self, metric: str, paper: str, measured: str, matches: bool) -> None:
        self.rows.append(Row(metric=metric, paper=paper, measured=measured, matches=matches))

    @property
    def all_match(self) -> bool:
        return all(row.matches for row in self.rows)

    def to_dict(self) -> dict:
        """Machine-readable form: the same records humans read as tables.

        Campaign aggregation and the CI artifacts consume this shape (one
        object per experiment, one entry per paper-vs-measured row).
        """
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper_reference": self.paper_reference,
            "all_match": self.all_match,
            "rows": [row.to_dict() for row in self.rows],
        }

    def format(self) -> str:
        """A plain-text table of the result."""
        lines = [
            f"[{self.experiment_id}] {self.title}",
            f"    paper artefact: {self.paper_reference}",
        ]
        width = max((len(row.metric) for row in self.rows), default=0)
        for row in self.rows:
            status = "ok" if row.matches else "MISMATCH"
            lines.append(
                f"    {row.metric.ljust(width)}  paper: {row.paper}  measured: {row.measured}  [{status}]"
            )
        return "\n".join(lines)


def format_report(results: list[ExperimentResult]) -> str:
    """A combined report for a collection of experiments."""
    sections = [result.format() for result in results]
    verdict = "ALL EXPERIMENTS MATCH" if all(r.all_match for r in results) else "MISMATCHES PRESENT"
    return "\n\n".join(sections) + f"\n\n== {verdict} =="
