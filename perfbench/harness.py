"""The measurement loop: set-up, timed operations, checks, deadlines.

A workload (see :mod:`workloads`) provides ``setup(context, index)`` and
``operation(context, state, index, trace_dir)``.  An operation returns an
:class:`Outcome`: its wall time, the CPU time it used, and whether its
outputs passed the workload's checks.  Checks run after the timed region.

Every operation runs as a closed loop with one client: the next starts
when the previous one has finished.  :func:`measure` repeats operations
until ``seconds`` are spent (at least one), and reports medians.  An
operation that raises, exits non-zero, fails a check or overruns its
deadline counts as failed.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.metadata
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: How many times a run repeats its set-up; ``setup_s`` is their median.
SETUPS = 3

#: No operation starts once a run has spent this long (runs must end in 180s).
RUN_BUDGET_S = 120.0


class CheckFailed(Exception):
    """An operation's outputs were wrong."""


class OperationTimeout(Exception):
    """An operation ran past its deadline."""


@dataclass
class Outcome:
    wall: float
    cpu: float
    ok: bool = True
    reason: str = ""


@dataclass
class Context:
    """What a workload may use: the checkout, its working directory, the seed and the environment."""

    root: Path
    work: Path
    seed: int
    env: dict = field(default_factory=dict)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_process(argv: list[str], context: Context, deadline: float) -> tuple[Outcome, str]:
    """Run one child process group to completion or its deadline.

    The child leads a new session, so its pool workers share its process
    group; the whole group is killed on a timeout, and any straggler is
    killed when the child exits.  Returns the outcome and the child's stdout.
    """
    cpu_before = _children_cpu()
    started = time.perf_counter()
    child = subprocess.Popen(
        argv,
        cwd=context.root,
        env=context.env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=deadline)
        timed_out = False
    except subprocess.TimeoutExpired:
        _kill_group(child.pid)
        stdout, stderr = child.communicate()
        timed_out = True
    wall = time.perf_counter() - started
    _kill_group(child.pid)
    outcome = Outcome(wall=wall, cpu=_children_cpu() - cpu_before)
    if timed_out:
        outcome.ok, outcome.reason = False, f"killed after its {deadline:.0f}s deadline"
    elif child.returncode != 0:
        tail = (stderr or "").strip().splitlines()[-1:]
        outcome.ok = False
        outcome.reason = f"exit status {child.returncode}: {' '.join(tail)}"
    return outcome, stdout


def run_in_process(function, deadline: float) -> Outcome:
    """Time ``function()`` in this process, interrupting it at ``deadline``."""

    def expire(signum, frame):
        raise OperationTimeout()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    cpu_before = time.process_time()
    started = time.perf_counter()
    outcome = Outcome(wall=0.0, cpu=0.0)
    try:
        function()
    except OperationTimeout:
        outcome.ok, outcome.reason = False, f"past its {deadline:.0f}s deadline"
    except Exception as error:  # noqa: BLE001 - a failed operation, not a failed run
        outcome.ok, outcome.reason = False, f"raised {type(error).__name__}: {error}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    outcome.wall = time.perf_counter() - started
    outcome.cpu = time.process_time() - cpu_before
    return outcome


def _attempt(workload, context: Context, state, index: int, trace_dir) -> Outcome:
    # Every operation starts with no writes pending: store operations write
    # hundreds of files, and the flush of earlier ones otherwise lands, at
    # random, in the system time of later ones.
    os.sync()
    try:
        return workload.operation(context, state, index, trace_dir)
    except CheckFailed as error:
        return Outcome(wall=0.0, cpu=0.0, ok=False, reason=f"check failed: {error}")


def _setups(workload, context: Context) -> tuple[list[float], object]:
    times, state = [], None
    for index in range(SETUPS):
        state = None  # the previous set-up's inputs must not linger in caches
        gc.collect()
        started = time.perf_counter()
        state = workload.setup(context, index)
        times.append(time.perf_counter() - started)
    return times, state


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload, context: Context, seconds: float, clock_start: float) -> dict:
    """The untraced run: every end-to-end metric of ``workload``."""
    setup_times, state = _setups(workload, context)
    outcomes: list[Outcome] = []
    while True:
        outcomes.append(_attempt(workload, context, state, len(outcomes), None))
        typical = statistics.median(outcome.wall for outcome in outcomes)
        if sum(outcome.wall for outcome in outcomes) + typical > seconds:
            break
        if time.perf_counter() - clock_start + typical > RUN_BUDGET_S:
            break
    good = [outcome for outcome in outcomes if outcome.ok] or outcomes
    metrics = {
        "op_s": (statistics.median(o.wall for o in good), "s"),
        "op_cpu_s": (statistics.median(o.cpu for o in good), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    samples = {"op_s": len(good), "op_cpu_s": len(good), "setup_s": len(setup_times),
               "peak_rss_mb": 1}
    return _result(outcomes, metrics, samples)


def measure_traced(workload, context: Context) -> dict:
    """The traced run: one untraced operation, then one traced, and per-layer metrics.

    The untraced operation is the reference for ``trace.overhead_s``.
    """
    import probes
    import spanrec

    _, state = _setups(workload, context)
    plain = _attempt(workload, context, state, 0, None)
    trace_dir = context.work / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    traced = _attempt(workload, context, state, 1, trace_dir)
    if any(trace_dir.glob("main-*.json")):
        main, workers = spanrec.load(trace_dir)
        ledger = spanrec.ledger(main, workers, traced.wall)
        layers = probes.layer_metrics(ledger, traced.wall, plain.wall)
    else:
        traced.ok, traced.reason = False, traced.reason or "no trace was written"
        layers = dict.fromkeys(probes.metric_names(), 0.0)
    metrics = {name: (layers[name], layer_unit(name)) for name in probes.metric_names()}
    return _result([plain, traced], metrics, dict.fromkeys(metrics, 1))


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio") or name == "trace.coverage":
        return "ratio"
    return "count"


def _result(outcomes: list[Outcome], metrics: dict, samples: dict) -> dict:
    failed = [outcome for outcome in outcomes if not outcome.ok]
    return {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "error_rate": len(failed) / len(outcomes),
        "failures": sorted({outcome.reason for outcome in failed}),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "samples": samples,
        "walls": [round(outcome.wall, 6) for outcome in outcomes],
    }


def source_digest(root: Path) -> str:
    """Content digest of ``src/``: identifies the program when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    if shutil.which("git") is None or not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def environment(root: Path) -> dict:
    return {
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
    }
