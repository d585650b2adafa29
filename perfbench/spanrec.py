"""Span recording and self-time arithmetic for the wall-clock ledger.

A span is one timed call into a layer of the program.  Spans nest per
thread: while a child span runs, its parent's clock stops, so a span's
*self time* is its wall time minus the time its child spans cover.  Self
time accrues to the span's layer; a span whose layer is ``None`` (an
experiment, say) keeps only its raw duration and leaves its self time
unclaimed.

A :class:`Recorder` keeps everything in memory.  The process that owns it
writes one record at the end (:meth:`Recorder.dump`); an operation made of
processes run one after another writes one record per process.  Forked
children -- the campaign's pool workers -- start from an empty recorder and
append one JSON line per finished root span to ``worker-<pid>.jsonl``, so
nothing is lost when the pool is terminated without running exit handlers.

:func:`ledger` puts the records back on the main process's timeline.  While
the main process waits on the pool (spans opened with ``wait=True``), the
part of the wait that worker root spans cover is split across the workers'
layers in proportion to their self time; the rest of the wait stays with
the waiting span's layer.  By construction, the layers' self times plus the
unclaimed time add up to the wall time of the operation.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter
from pathlib import Path

#: Key under which self time of spans without a layer accrues.
UNCLAIMED = ""


class Recorder:
    """In-memory span recorder for one process (see the module docstring)."""

    def __init__(self, clock=time.perf_counter, out_dir: str | os.PathLike | None = None):
        self.clock = clock
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.worker = False
        self._stacks: dict[int, list] = {}
        self._reset()
        if self.out_dir is not None:
            os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self.self_time: Counter = Counter()  # layer -> seconds
        self.wait_time: Counter = Counter()  # layer of a waiting span -> seconds
        self.durations: Counter = Counter()  # span name -> seconds of wall time
        self.counts: Counter = Counter()
        self.waits: list[tuple[float, float]] = []
        self.roots: list[tuple[float, float]] = []

    def _after_fork(self) -> None:
        # The forking thread's open spans belong to the parent.
        self._stacks = {}
        self._reset()
        self.worker = True

    def open(self, name: str, layer: str | None, wait: bool = False) -> list:
        now = self.clock()
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            self._accrue(stack[-1], now)
        frame = [name, UNCLAIMED if layer is None else layer, wait, now, now]
        stack.append(frame)
        return frame

    def _accrue(self, frame: list, now: float) -> None:
        _, layer, wait, _, segment_start = frame
        if wait:
            self.wait_time[layer] += now - segment_start
            self.waits.append((segment_start, now))
        else:
            self.self_time[layer] += now - segment_start

    def close(self, frame: list) -> None:
        now = self.clock()
        stack = self._stacks.get(threading.get_ident(), [])
        while stack:
            top = stack.pop()
            self._accrue(top, now)
            self.durations[top[0]] += now - top[3]
            if top is frame:
                break
        if stack:
            stack[-1][4] = now
            return
        self.roots.append((frame[3], now))
        if self.worker and self.out_dir is not None:
            self._flush()

    def current_layer(self) -> str | None:
        stack = self._stacks.get(threading.get_ident())
        return stack[-1][1] if stack else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def record(self) -> dict:
        return {
            "self": dict(self.self_time),
            "wait": dict(self.wait_time),
            "durations": dict(self.durations),
            "counts": dict(self.counts),
            "waits": self.waits,
            "roots": self.roots,
        }

    def _flush(self) -> None:
        line = json.dumps(self.record()) + "\n"
        path = self.out_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line)
        self._reset()

    def dump(self) -> None:
        """Write the main process's record (``main-<pid>.json``)."""
        path = self.out_dir / f"main-{os.getpid()}.json"
        path.write_text(json.dumps(self.record()), encoding="utf-8")


def load(out_dir: str | os.PathLike) -> tuple[dict, list[dict]]:
    """The main record and the worker records written under ``out_dir``.

    Records of several main processes (run one after another) are summed.
    """
    out_dir = Path(out_dir)
    main: dict = {"self": Counter(), "wait": Counter(), "durations": Counter(),
                  "counts": Counter(), "waits": [], "roots": []}
    for path in sorted(out_dir.glob("main-*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        for key in ("self", "wait", "durations", "counts"):
            main[key].update(record[key])
        main["waits"] += record["waits"]
        main["roots"] += record["roots"]
    workers = []
    for path in sorted(out_dir.glob("worker-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                workers.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # a worker killed mid-write; its other lines still count
    return main, workers


def _merged(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def overlap(first, second) -> float:
    """Length of the intersection of two unions of intervals."""
    a, b = _merged(first), _merged(second)
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        low = max(a[i][0], b[j][0])
        high = min(a[i][1], b[j][1])
        if high > low:
            total += high - low
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def ledger(main: dict, workers: list[dict], wall: float) -> dict:
    """Per-layer self time, durations and counts on the main timeline.

    Returns ``{"self": {layer: s}, "unclaimed": s, "durations": ...,
    "counts": ...}`` where the self times plus ``unclaimed`` equal ``wall``.
    """
    layers: Counter = Counter(main["self"])
    durations: Counter = Counter(main["durations"])
    counts: Counter = Counter(main["counts"])
    worker_self: Counter = Counter()
    roots: list = []
    for record in workers:
        worker_self.update(record["self"])
        durations.update(record["durations"])
        counts.update(record["counts"])
        roots.extend(record["roots"])
    waited = sum(main["wait"].values())
    covered = overlap(roots, main["waits"]) if worker_self else 0.0
    busy = sum(worker_self.values())
    if busy > 0:
        for layer, seconds in worker_self.items():
            layers[layer] += seconds * covered / busy
    if waited > 0:
        for layer, seconds in main["wait"].items():
            layers[layer] += (waited - covered) * seconds / waited
    layers.pop(UNCLAIMED, None)
    claimed = sum(layers.values())
    return {
        "self": dict(layers),
        "unclaimed": wall - claimed,
        "durations": dict(durations),
        "counts": dict(counts),
    }
