"""Self-tests of the ledger's harness.

Run with ``python3 perfbench/test_harness.py`` (or ``python -m pytest
perfbench``) from the root of the checkout.  They cover the self-time
arithmetic, the charging of lazy streams consumed through ``zip``, the
error-rate accounting and the per-operation deadlines.
"""

from __future__ import annotations

import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import probes  # noqa: E402
import spanrec  # noqa: E402


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _approx(value: float, expected: float) -> bool:
    return abs(value - expected) < 1e-9


def test_self_time_of_a_nested_tree():
    clock = FakeClock()
    recorder = spanrec.Recorder(clock=clock)
    clock.advance(1)                       # 0-1: before any span
    root = recorder.open("root", "a")      # 1-11
    clock.advance(1)
    child = recorder.open("child", "b")    # 2-5
    clock.advance(1)
    grandchild = recorder.open("leaf", "c")  # 3-4
    clock.advance(1)
    recorder.close(grandchild)
    clock.advance(1)
    recorder.close(child)
    clock.advance(1)
    anonymous = recorder.open("experiment", None)  # 6-8: no layer
    clock.advance(2)
    recorder.close(anonymous)
    clock.advance(3)
    recorder.close(root)
    clock.advance(1)                       # 11-12: after the root

    # root: 10s minus child (3s) and the unlayered span (2s).
    assert recorder.self_time == {"a": 5, "b": 2, "c": 1, spanrec.UNCLAIMED: 2}
    assert recorder.durations == {"root": 10, "child": 3, "leaf": 1, "experiment": 2}
    assert recorder.roots == [(1, 11)]
    ledger = spanrec.ledger(recorder.record(), [], wall=12)
    assert ledger["self"] == {"a": 5, "b": 2, "c": 1}
    assert _approx(ledger["unclaimed"], 4)  # 2 without a layer + 2 outside the root
    assert _approx(sum(ledger["self"].values()) + ledger["unclaimed"], 12)


def test_pool_wait_is_split_across_worker_layers():
    main = {
        "self": {"executor.evaluate": 1.0},
        "wait": {"executor.evaluate": 6.0},
        "durations": {"executor.pool_wait": 6.0},
        "counts": {},
        "waits": [(2.0, 8.0)],
        "roots": [(1.0, 9.0)],
    }
    # Two workers, busy 3-7 and 4-6 (4s of wall covered), self time 4 + 2.
    workers = [
        {"self": {"engine.sweep": 3.0, "store.write": 1.0}, "wait": {}, "durations": {},
         "counts": {"executor.shards": 1}, "waits": [], "roots": [(3.0, 7.0)]},
        {"self": {"engine.sweep": 2.0}, "wait": {}, "durations": {},
         "counts": {"executor.shards": 1}, "waits": [], "roots": [(4.0, 6.0)]},
    ]
    ledger = spanrec.ledger(main, workers, wall=10.0)
    assert _approx(ledger["self"]["engine.sweep"], 4.0 * 5 / 6)
    assert _approx(ledger["self"]["store.write"], 4.0 * 1 / 6)
    assert _approx(ledger["self"]["executor.evaluate"], 1.0 + (6.0 - 4.0))
    assert _approx(ledger["unclaimed"], 10.0 - 7.0)
    assert ledger["counts"]["executor.shards"] == 2


def _fake_engine_module(clock: FakeClock) -> types.ModuleType:
    """A stand-in ``run_iter`` whose items cost 1s (compiled) or 5s (reference)."""
    module = types.ModuleType("repro._ledger_fake_engine")
    cost = {"compiled": 1.0, "reference": 5.0}

    def run_iter(items, *, engine="compiled"):
        for item in items:
            clock.advance(cost[engine])
            yield item

    run_iter.__module__ = module.__name__
    module.run_iter = run_iter
    return module


def test_lazy_streams_through_zip_are_charged_to_their_engines():
    clock = FakeClock()
    module = _fake_engine_module(clock)
    sys.modules[module.__name__] = module
    recorder = spanrec.Recorder(clock=clock)
    probe = probes.Probe(module.__name__, "run_iter", probes._engine_layer("compiled"),
                         item="engine.compiled.instances")
    installation = probes.install(recorder, probes=(probe,))
    try:
        outer = recorder.open("caller", "executor.evaluate")
        compiled = module.run_iter(range(3))
        reference = module.run_iter(range(3), engine="reference")
        clock.advance(0.5)  # work between creating and consuming the streams
        pairs = list(zip(compiled, reference))
        recorder.close(outer)
    finally:
        installation.restore()
        del sys.modules[module.__name__]
    assert pairs == [(0, 0), (1, 1), (2, 2)]
    assert recorder.self_time["engine.compiled"] == 3.0
    assert recorder.self_time["oracle"] == 15.0
    assert recorder.self_time["executor.evaluate"] == 0.5
    assert recorder.counts["engine.compiled.instances"] == 3


def test_real_run_iter_streams_count_per_engine():
    from repro.execution import engine
    from repro.graphs.generators import cycle_graph
    from repro.machines.library import reference_machine
    from repro.machines.models import ProblemClass
    from repro.machines.state_machine import algorithm_from_machine

    algorithm = algorithm_from_machine(
        reference_machine(ProblemClass.VV, 2, rounds=2).as_state_machine()
    )
    graphs = [cycle_graph(n) for n in (4, 5, 6)]
    recorder = spanrec.Recorder()
    installation = probes.install(recorder)
    try:
        streams = [engine.run_iter(algorithm, graphs, engine=name)
                   for name in ("compiled", "reference")]
        rows = list(zip(*streams))
    finally:
        installation.restore()
    assert all(left.outputs == right.outputs for left, right in rows)
    assert recorder.counts["engine.compiled.instances"] == 3
    assert recorder.counts["oracle.instances"] == 3
    assert recorder.self_time["oracle"] > 0 and recorder.self_time["engine.compiled"] > 0
    assert engine.run_iter.__name__ == "run_iter" and not hasattr(engine.run_iter, "__wrapped__")


class FlakyWorkload:
    """Operations 1 and 3 fail: one by its outcome, one by a failed check."""

    def setup(self, context, index):
        return None

    def operation(self, context, state, index, trace_dir):
        if index == 3:
            raise harness.CheckFailed("injected")
        return harness.Outcome(wall=0.1, cpu=0.1, ok=index != 1, reason="injected")


def test_error_rate_counts_injected_failures():
    context = harness.Context(root=HERE.parent, work=HERE, seed=0)
    # Walls 0.1, 0.1, 0.1, 0 (the raising check), 0.1: the fifth would overrun.
    result = harness.measure(FlakyWorkload(), context, seconds=0.45, clock_start=time.perf_counter())
    assert result["attempted"] == 5
    assert result["failed"] == 2
    assert result["error_rate"] == 0.4
    assert result["correct"] is False
    assert result["samples"]["op_s"] == 3  # medians come from the successful operations


def test_deadline_kills_the_whole_process_group():
    context = harness.Context(root=HERE.parent, work=HERE, seed=0)
    script = (
        "import subprocess, sys, time\n"
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "print(child.pid, flush=True)\n"
        "time.sleep(60)\n"
    )
    started = time.perf_counter()
    outcome, stdout = harness.run_process([sys.executable, "-c", script], context, deadline=2.0)
    assert time.perf_counter() - started < 30
    assert not outcome.ok and "deadline" in outcome.reason
    grandchild = int(stdout.split()[0])
    time.sleep(0.2)
    assert not Path(f"/proc/{grandchild}").exists() or "Z" in _state(grandchild)

    late = harness.run_in_process(lambda: time.sleep(5), deadline=0.2)
    assert not late.ok and late.wall < 2


def _state(pid: int) -> str:
    try:
        return Path(f"/proc/{pid}/stat").read_text().split()[2]
    except OSError:
        return "Z"


if __name__ == "__main__":
    failures = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
                print(f"ok    {name}")
            except Exception as error:  # noqa: BLE001 - report every test
                failures += 1
                print(f"FAIL  {name}: {type(error).__name__}: {error}")
    raise SystemExit(1 if failures else 0)
