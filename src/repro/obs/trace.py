"""Span tracing: nested timing events with a ring buffer and a file sink.

A span is opened with the :func:`span` context manager::

    with span("engine.sweep.run", instances=12) as sp:
        ...
        sp.set(evaluations=evaluations)

When tracing is not configured :func:`span` returns one shared no-op span
and does nothing else, so instrumented code needs no gating of its own.
When configured, one JSON event is emitted at span *exit* carrying
monotonic start/end timestamps, the parent span id (spans nest per
thread), the pid, and any attributes.

Events go to a bounded in-memory ring buffer and, optionally, to a
JSON-lines file opened in append mode.  Each event is written as a single
``write()`` of one line, which on Linux is atomic for lines under the pipe
buffer size — forked campaign workers can therefore share one trace file.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Any

__all__ = [
    "Span",
    "span",
    "configure_tracing",
    "stop_tracing",
    "tracing_enabled",
    "trace_path",
    "ring_events",
    "clear_ring",
    "flush",
    "current_span_id",
]

DEFAULT_RING = 1024

_lock = threading.Lock()
_active = False
_ring: deque[dict[str, Any]] = deque(maxlen=DEFAULT_RING)
_sink = None
_sink_path: str | None = None
_ids = itertools.count(1)
_tls = threading.local()


class Span:
    """A traced span: entering starts the clock, exiting emits its event."""

    __slots__ = ("name", "span_id", "parent_id", "start", "attrs")

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes before the span closes."""

        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        stack = _stack()
        self.parent_id = stack[-1].span_id if stack else None
        self.span_id = f"{os.getpid()}-{next(_ids)}"
        self.start = time.monotonic()
        stack.append(self)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        _stack().pop()
        end = time.monotonic()
        _emit(
            {
                "name": self.name,
                "span": self.span_id,
                "parent": self.parent_id,
                "pid": os.getpid(),
                "thread": threading.current_thread().name,
                "t_start": self.start,
                "t_end": end,
                "dur_s": end - self.start,
                "wall": time.time(),
                "attrs": self.attrs,
            }
        )


class _NoopSpan:
    __slots__ = ()
    name = ""
    span_id = None
    parent_id = None
    attrs: dict[str, Any] = {}

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NOOP = _NoopSpan()


def tracing_enabled() -> bool:
    return _active


def trace_path() -> str | None:
    return _sink_path


def configure_tracing(path: str | None = None, ring: int = DEFAULT_RING) -> None:
    """Turn tracing on, optionally appending events to ``path``.

    Safe to call again (e.g. in a pool worker after fork): the previous
    sink handle is replaced by a fresh append-mode handle so buffered
    writes never interleave between processes.
    """

    global _active, _ring, _sink, _sink_path
    with _lock:
        if _sink is not None:
            try:
                _sink.close()
            except OSError:
                pass
            _sink = None
        _ring = deque(_ring, maxlen=ring)
        if path is not None:
            parent = os.path.dirname(os.fspath(path))
            if parent:
                os.makedirs(parent, exist_ok=True)
            _sink = open(path, "a", encoding="utf-8")
            _sink_path = os.fspath(path)
        else:
            _sink_path = None
        _active = True


def stop_tracing() -> None:
    global _active, _sink, _sink_path
    with _lock:
        _active = False
        if _sink is not None:
            try:
                _sink.flush()
                _sink.close()
            except OSError:
                pass
        _sink = None
        _sink_path = None


def flush() -> None:
    with _lock:
        if _sink is not None:
            _sink.flush()


def ring_events() -> list[dict[str, Any]]:
    with _lock:
        return list(_ring)


def clear_ring() -> None:
    with _lock:
        _ring.clear()


def _stack() -> list[Span]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def current_span_id() -> str | None:
    stack = getattr(_tls, "stack", None)
    if stack:
        return stack[-1].span_id
    return None


def _emit(event: dict[str, Any]) -> None:
    with _lock:
        _ring.append(event)
        if _sink is not None:
            try:
                _sink.write(json.dumps(event, sort_keys=True, default=str) + "\n")
                _sink.flush()
            except (OSError, ValueError):
                pass


def span(name: str, **attrs: Any) -> Span | _NoopSpan:
    """A span to open with ``with``; the shared no-op span when tracing is off."""

    if not _active:
        return _NOOP
    return Span(name, attrs)
