"""Run a ``repro`` entry point with the ledger's probes installed.

Usage::

    python perfbench/launch.py <trace-dir> <package> [args...]

behaves like ``python -m <package> [args...]``, except that the import of
``<package>.__main__`` is timed as the ``import`` layer, the probes of
:mod:`probes` are installed before ``main(args)`` runs, and the spans are
written under ``<trace-dir>`` (``main-<pid>.json`` plus one
``worker-<pid>.jsonl`` per pool worker) for :func:`spanrec.load`.
"""

from __future__ import annotations

import importlib
import sys

import probes
from spanrec import Recorder


def main(argv: list[str]) -> int:
    trace_dir, package, *args = argv
    recorder = Recorder(out_dir=trace_dir)
    frame = recorder.open("import", "import")
    entry = importlib.import_module(f"{package}.__main__")
    recorder.close(frame)
    probes.install(recorder)
    try:
        code = entry.main(args)
    except SystemExit as error:
        code = error.code
    finally:
        sys.stdout.flush()
        recorder.dump()
    return code if isinstance(code, int) else (0 if code is None else 1)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
