"""The wall-clock ledger: absolute end-to-end numbers for the repro program.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` measures the end-to-end metrics of one workload with no
probes installed; ``--trace 1`` runs one operation untraced and one with
the probes of ``probes.py`` installed, and reports the per-layer metrics.
The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it records the environment, the error rate, the sample
count of each metric and the wall time of each operation.  The metric
names, units and workloads are listed in ``BENCHMARK.json``; why each exists
is in ``perfbench/RATIONALE.md``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str]) -> int:
    clock_start = time.perf_counter()
    sys.path.insert(0, str(HERE))
    import harness
    from workloads import WORK_DIR, WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if importlib.util.find_spec("numpy") is None:
        print("error: NumPy is missing; the vector engines cannot be measured", file=sys.stderr)
        return 2

    work = ROOT / WORK_DIR / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    pythonpath = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    context = harness.Context(
        root=ROOT,
        work=work,
        seed=args.seed,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath)),
    )
    workload = WORKLOADS[args.workload]
    load_before = os.getloadavg()
    try:
        if args.trace:
            result = harness.measure_traced(workload, context)
        else:
            result = harness.measure(workload, context, args.seconds, clock_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        # Let the filesystem finish this run's deletes now, not during the
        # first operations of the next run.
        os.sync()

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": {
            **harness.environment(ROOT),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
        "error_rate": result["error_rate"],
        "failures": result["failures"],
        "samples": result["samples"],
        "walls_s": result["walls"],
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
