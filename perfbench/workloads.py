"""The ledger's workloads: the reproduction, the campaign CLI and the batch APIs.

Each workload times one kind of operation a user runs.  CLI and
reproduction operations are fresh ``python -m`` processes, import included;
the ``library`` operation is an in-process pass over the batch APIs.
``RATIONALE.md`` says why each workload exists and which layers it
exercises.  No check pins a digest: a campaign's digests are compared
with a serial run of the same code made in set-up or in the same
operation.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from harness import CheckFailed, Context, Outcome, run_in_process, run_process

HERE = Path(__file__).resolve().parent

#: Everything a run leaves behind lives under this directory of the checkout.
WORK_DIR = ".bench_work"

E3 = "e3-hierarchy"
E2 = "e2-correspondence"

_BAD_OUTPUT = (CheckFailed, KeyError, TypeError, ValueError, IndexError)


def _checked(outcome: Outcome, check) -> Outcome:
    """Run ``check()`` on a finished operation; a failure fails the operation."""
    if not outcome.ok:
        return outcome
    try:
        check()
    except _BAD_OUTPUT as error:
        outcome.ok = False
        outcome.reason = f"check failed: {type(error).__name__}: {error}"
    return outcome


def _payload(stdout: str) -> dict:
    """The ``--json`` document a campaign verb printed after any log lines."""
    lines = stdout.splitlines()
    start = lines.index("{")
    return json.loads("\n".join(lines[start:]))


def _rows_ok(payload: dict) -> None:
    bad = [row["metric"] for row in payload["rows"] if not row["matches"]]
    if bad or not payload["all_match"]:
        raise CheckFailed(f"rows not [ok]: {bad}")


class Workload:
    """A kind of operation; subclasses define ``setup`` and ``operation``."""

    name = ""
    package = "repro.campaign"
    preflight_code = ""
    #: An operation still running after this many seconds is killed: about
    #: three times its usual time on a contended host, and short enough that
    #: a traced run of two operations that both hang ends within 180s.
    deadline = 20.0

    def preflight(self, context: Context) -> None:
        """Import the entry module once, which also fills the bytecode cache."""
        code = self.preflight_code or f"import {self.package}.__main__"
        outcome, _ = run_process([sys.executable, "-c", code], context, 20.0)
        if not outcome.ok:
            raise RuntimeError(f"cannot import {self.package}: {outcome.reason}")

    def program(self, context: Context, args: list[str], trace_dir) -> tuple[Outcome, str]:
        """One ``python -m <package> args`` process, under the launcher when traced."""
        if trace_dir is None:
            argv = [sys.executable, "-m", self.package, *args]
        else:
            argv = [sys.executable, str(HERE / "launch.py"), str(trace_dir), self.package, *args]
        return run_process(argv, context, self.deadline)

    def setup(self, context: Context, index: int):
        self.preflight(context)
        return {}

    def operation(self, context: Context, state, index: int, trace_dir) -> Outcome:
        raise NotImplementedError


class Reproduction(Workload):
    """One ``python -m repro.experiments`` process: E1-E12."""

    name = "reproduction"
    package = "repro.experiments"
    deadline = 60.0

    def operation(self, context, state, index, trace_dir):
        outcome, stdout = self.program(context, [], trace_dir)

        def check():
            if "ALL EXPERIMENTS MATCH" not in stdout:
                raise CheckFailed("the report lacks 'ALL EXPERIMENTS MATCH'")

        return _checked(outcome, check)


def _merged(first: Outcome, second: Outcome) -> Outcome:
    """One operation made of two processes run back to back."""
    failed = [outcome.reason for outcome in (first, second) if not outcome.ok]
    return Outcome(
        wall=first.wall + second.wall,
        cpu=first.cpu + second.cpu,
        ok=not failed,
        reason="; ".join(failed),
    )


class CampaignWorkload(Workload):
    """Runs of a built-in campaign on fresh stores given as bare paths.

    Stores stay until the run ends: deleting thousands of files between
    operations slows the next operations' writes on some filesystems.
    """

    campaign = E3
    workers: int | None = None

    def store(self, context: Context, label: str) -> str:
        path = context.work / label
        shutil.rmtree(path, ignore_errors=True)
        return str(path.relative_to(context.root))

    def run(self, context, store: str, trace_dir=None, workers=None) -> tuple[Outcome, dict]:
        args = ["--store", store, "run", self.campaign, "--json"]
        if workers:
            args += ["--workers", str(workers)]
        outcome, stdout = self.program(context, args, trace_dir)
        result: dict = {}

        def check():
            result.update(_payload(stdout))
            _rows_ok(result)
            if "agree=False" in " ".join(row["measured"] for row in result["rows"]):
                raise CheckFailed("a round trip disagrees")

        return _checked(outcome, check), result

    def cold(self, context, label: str, trace_dir=None, workers=None, digest=None):
        """A run on a fresh store that must execute every scenario.

        With ``digest``, the manifest must have that digest.
        """
        store = self.store(context, label)
        outcome, payload = self.run(context, store, trace_dir, workers)

        def check():
            run = payload["run"]
            if run["executed"] != run["total"] or run["skipped"] or not run["total"]:
                raise CheckFailed(f"cold run executed {run['executed']}/{run['total']}")
            if digest is not None and run["manifest_digest"] != digest:
                raise CheckFailed(
                    f"manifest digest {run['manifest_digest'][:12]} != serial {digest[:12]}"
                )

        return _checked(outcome, check), payload

    def setup(self, context, index):
        """A serial cold run: its store and report are the reference for checks."""
        self.preflight(context)
        store = self.store(context, f"reference-{index}")
        outcome, payload = self.run(context, store)
        if not outcome.ok:
            raise RuntimeError(f"set-up run failed: {outcome.reason}")
        return {"store": store, "payload": payload, "digest": payload["run"]["manifest_digest"]}

    def operation(self, context, state, index, trace_dir):
        label = f"cold-{index}"
        return self.cold(context, label, trace_dir, self.workers, state["digest"])[0]


class E3Cold(CampaignWorkload):
    name = "e3-cold"


class E3Sharded(CampaignWorkload):
    name = "e3-sharded"
    workers = 2


class E3Warm(CampaignWorkload):
    """A rerun on the set-up's store, every scenario a store hit, then ``report``."""

    name = "e3-warm"

    def operation(self, context, state, index, trace_dir):
        rerun, payload = self.run(context, state["store"], trace_dir)
        cold = state["payload"]

        def check_rerun():
            run = payload["run"]
            total = cold["run"]["total"]
            if run["executed"] or run["skipped"] != run["total"] or run["total"] != total:
                raise CheckFailed(f"warm run executed {run['executed']}, stored {run['skipped']}")
            if run["manifest_digest"] != state["digest"]:
                raise CheckFailed("warm manifest digest differs from the cold run's")

        args = ["--store", state["store"], "report", self.campaign, "--json"]
        report, stdout = self.program(context, args, trace_dir)

        def check_report():
            rows = _payload(stdout)
            _rows_ok(rows)
            if rows["rows"] != cold["rows"]:
                raise CheckFailed("report rows differ from the cold run's report")

        return _merged(_checked(rerun, check_rerun), _checked(report, check_report))


class E2Campaign(CampaignWorkload):
    """A cold serial run, then a cold ``--workers 2`` run that must match it."""

    name = "e2-campaign"
    campaign = E2
    deadline = 40.0

    def setup(self, context, index):
        self.preflight(context)
        return {}

    def operation(self, context, state, index, trace_dir):
        serial, payload = self.cold(context, f"serial-{index}", trace_dir)
        digest = payload.get("run", {}).get("manifest_digest")
        sharded, _ = self.cold(context, f"sharded-{index}", trace_dir, 2, digest)
        return _merged(serial, sharded)


class Library(Workload):
    """One in-process pass over the batch APIs (see :mod:`libwork`)."""

    name = "library"
    preflight_code = "import numpy, repro.execution.vector, repro.logic.vector"
    deadline = 40.0

    def setup(self, context, index):
        self.preflight(context)
        if str(context.root / "src") not in sys.path:
            sys.path.insert(0, str(context.root / "src"))
        import libwork

        return {"inputs": libwork.build(context.seed, index), "references": {}}

    def operation(self, context, state, index, trace_dir):
        import libwork

        inputs = state["inputs"]
        algorithms = libwork.fresh_algorithms()
        results: dict = {}

        def one_pass():
            results.update(libwork.one_pass(inputs, algorithms))

        if trace_dir is None:
            outcome = run_in_process(one_pass, self.deadline)
        else:
            import probes
            from spanrec import Recorder

            recorder = Recorder(out_dir=trace_dir)
            installation = probes.install(recorder)
            try:
                outcome = run_in_process(one_pass, self.deadline)
            finally:
                installation.restore()
                recorder.dump()
        return _checked(outcome, lambda: libwork.check(inputs, results, state["references"]))


WORKLOADS = {
    workload.name: workload
    for workload in (
        Reproduction(),
        E3Cold(),
        E3Warm(),
        E3Sharded(),
        E2Campaign(),
        Library(),
    )
}
