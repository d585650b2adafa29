#!/usr/bin/env python3
"""Run every benchmark and emit a machine-readable ``BENCH_<date>.json``.

The emitted file records, per benchmark module, the wall time of the pytest
run and the per-test timing statistics, plus two derived sections:

* ``pairs`` -- every engine-vs-seed benchmark pair (same test, same
  parameters, only the runner differs) with its speedup ``seed_mean /
  engine_mean``; and
* ``summary`` -- headline numbers: the speedups of the dedicated
  runner-bound pairs and rounds/second throughput for the multi-round
  execution benchmarks (tests exporting ``sync_rounds`` in ``extra_info``).

Usage::

    python benchmarks/run_all.py                    # full sizes
    python benchmarks/run_all.py --smoke            # tiny CI budget
    python benchmarks/run_all.py --out BENCH.json   # explicit output path

CI runs the smoke mode on every PR and uploads the JSON as an artifact, so
the performance trajectory is tracked from PR to PR.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

#: Engine/seed parameter spellings used by the paired benchmarks; the
#: cold/warm spellings pair the campaign store-temperature benchmarks the
#: same way (warm store = the optimised side).
_NEW_VALUES = {"engine", "compiled", "warm"}
_OLD_VALUES = {"seed", "reference", "cold"}

#: Per-file overrides of the pairing sides.  bench_sweep pairs the superposed
#: sweep engine *against* the compiled engine (which is the "new" side
#: everywhere else), so its spellings are remapped locally.
_FILE_SIDES = {
    "bench_sweep": ({"sweep"}, {"compiled", "reference"}),
    # bench_vector pairs the NumPy kernel against whichever engine is the
    # relevant oracle: sweep for the execution pairs, compiled for the
    # check_many pairs.
    "bench_vector": ({"vector"}, {"sweep", "compiled", "reference"}),
    # bench_store pairs the sqlite backend against the loose-object json
    # layout on identical record sets.
    "bench_store": ({"sqlite"}, {"json"}),
}

#: The modules the CI smoke path exercises (``--quick``): one engine-bound,
#: one logic-bound, the campaign and the correspondence benchmarks -- every
#: summary section stays populated while the wall time stays in CI budget.
QUICK_MODULES = (
    "bench_campaign",
    "bench_correspondence",
    "bench_execution",
    "bench_logic",
    "bench_store",
    "bench_sweep",
    "bench_vector",
)


def discover_benchmarks() -> list[Path]:
    return sorted(BENCH_DIR.glob("bench_*.py"))


def run_benchmark_file(path: Path, smoke: bool) -> tuple[dict, float]:
    """Run one benchmark module under pytest-benchmark, return (json, wall_s)."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        json_path = handle.name
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if smoke:
        env["REPRO_BENCH_SMOKE"] = "1"
    command = [
        sys.executable,
        "-m",
        "pytest",
        str(path),
        "-q",
        "--benchmark-only",
        f"--benchmark-json={json_path}",
        "--benchmark-warmup=off",
    ]
    if smoke:
        command += ["--benchmark-min-rounds=1", "--benchmark-max-time=0.1"]
    else:
        command += ["--benchmark-min-rounds=5", "--benchmark-max-time=2"]
    started = time.perf_counter()
    proc = subprocess.run(command, cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - started
    if proc.returncode == 5:
        # "No tests collected": the whole module skipped itself (e.g.
        # bench_vector on a numpy-free box).  That is a valid outcome, not
        # a failure -- report it as an empty module.
        print(f"[run_all] {path.name}: skipped (no tests collected)", flush=True)
        if os.path.exists(json_path):
            os.unlink(json_path)
        return {"benchmarks": []}, wall
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"benchmark {path.name} failed (exit {proc.returncode})")
    try:
        with open(json_path) as fh:
            data = json.load(fh)
    finally:
        os.unlink(json_path)
    return data, wall


def summarize_file(name: str, data: dict, wall: float) -> dict:
    tests = []
    for bench in data.get("benchmarks", []):
        stats = bench["stats"]
        entry = {
            "name": bench["name"],
            "params": bench.get("params") or {},
            "mean_s": stats["mean"],
            "median_s": stats["median"],
            "stddev_s": stats["stddev"],
            "rounds": stats["rounds"],
        }
        extra = bench.get("extra_info") or {}
        if "sync_rounds" in extra:
            entry["sync_rounds"] = extra["sync_rounds"]
            entry["rounds_per_sec"] = extra["sync_rounds"] / stats["mean"]
        for key in (
            "nodes",
            "tree_size",
            "dag_size",
            "instances",
            "occurrences",
            "evaluations",
            "executed_instances",
        ):
            if key in extra:
                entry[key] = extra[key]
        tests.append(entry)
    return {"wall_time_s": round(wall, 3), "tests": tests}


def _pair_key(test: dict, new_values: set, old_values: set) -> tuple:
    """Identity of a benchmark modulo the engine/seed parameter."""
    params = {
        key: value
        for key, value in test["params"].items()
        if value not in new_values | old_values
    }
    base_name = test["name"].split("[")[0]
    return base_name, tuple(sorted(params.items()))


def derive_pairs(benches: dict) -> list[dict]:
    pairs = []
    for file_name, payload in benches.items():
        new_values, old_values = _FILE_SIDES.get(file_name, (_NEW_VALUES, _OLD_VALUES))
        grouped: dict[tuple, dict[str, dict]] = {}
        for test in payload["tests"]:
            runner_values = [
                value
                for value in test["params"].values()
                if value in new_values | old_values
            ]
            if not runner_values:
                continue
            side = "new" if runner_values[0] in new_values else "old"
            grouped.setdefault(_pair_key(test, new_values, old_values), {})[side] = test
        for (base_name, params), sides in sorted(grouped.items()):
            if "new" in sides and "old" in sides:
                new, old = sides["new"], sides["old"]
                pairs.append(
                    {
                        "file": file_name,
                        "benchmark": base_name,
                        "params": dict(params),
                        "engine_mean_s": new["mean_s"],
                        "seed_mean_s": old["mean_s"],
                        "engine_median_s": new["median_s"],
                        "seed_median_s": old["median_s"],
                        # medians: robust to noisy-neighbour outlier rounds
                        "speedup": round(old["median_s"] / new["median_s"], 2),
                        "speedup_mean": round(old["mean_s"] / new["mean_s"], 2),
                    }
                )
    return pairs


def _geomean(values: list[float]) -> float:
    product = 1.0
    for value in values:
        product *= value
    return product ** (1 / len(values))


def derive_summary(benches: dict, pairs: list[dict]) -> dict:
    # The dedicated runner-bound pairs: pure execution workloads where the
    # only variable is the runner (multi-round loops, adversarial sweeps).
    runner_bound = [
        pair
        for pair in pairs
        if pair["benchmark"]
        in (
            "test_multi_round_execution_scales_linearly",
            "test_adversarial_numbering_sweep",
            "test_containment_execution_sweep",
        )
    ]
    # The logic-layer pairs: model checking and partition refinement, where
    # the only variable is the logic engine (compiled bitsets vs seed).
    logic_bound = [pair for pair in pairs if pair["file"] == "bench_logic"]
    throughput = []
    for file_name, payload in benches.items():
        for test in payload["tests"]:
            if "rounds_per_sec" in test:
                runner = [v for v in test["params"].values() if v in _NEW_VALUES | _OLD_VALUES]
                if runner and runner[0] in _OLD_VALUES:
                    continue
                throughput.append(
                    {
                        "file": file_name,
                        "name": test["name"],
                        "rounds_per_sec": round(test["rounds_per_sec"], 1),
                    }
                )
    speedups = [pair["speedup"] for pair in runner_bound]
    summary: dict = {
        "runner_bound_pairs": runner_bound,
        "logic_bound_pairs": logic_bound,
        "rounds_per_sec": throughput,
    }
    if speedups:
        summary["min_runner_speedup"] = min(speedups)
        summary["max_runner_speedup"] = max(speedups)
        summary["geomean_runner_speedup"] = round(_geomean(speedups), 2)
    logic_speedups = [pair["speedup"] for pair in logic_bound]
    if logic_speedups:
        summary["min_logic_speedup"] = min(logic_speedups)
        summary["max_logic_speedup"] = max(logic_speedups)
        summary["geomean_logic_speedup"] = round(_geomean(logic_speedups), 2)
    # The campaign pairs: cold full sweep vs warm content-addressed store.
    campaign_pairs = [pair for pair in pairs if pair["file"] == "bench_campaign"]
    if campaign_pairs:
        summary["campaign_pairs"] = campaign_pairs
        summary["geomean_warm_store_speedup"] = round(
            _geomean([pair["speedup"] for pair in campaign_pairs]), 2
        )
    # The storage backends: sqlite vs json on identical record sets (cold
    # put / warm resume / report fold at campaign scale).
    store_pairs = [pair for pair in pairs if pair["file"] == "bench_store"]
    if store_pairs:
        store_speedups = [pair["speedup"] for pair in store_pairs]
        summary["store_pairs"] = store_pairs
        summary["min_store_speedup"] = min(store_speedups)
        summary["max_store_speedup"] = max(store_speedups)
        summary["geomean_store_speedup"] = round(_geomean(store_speedups), 2)
    # The Theorem 2 pipeline: compiled vs seed round trips, plus the
    # DAG-vs-tree compression of the hash-consed Table 4/5 formulas.
    correspondence_pairs = [
        pair for pair in pairs if pair["file"] == "bench_correspondence"
    ]
    if correspondence_pairs:
        summary["correspondence_pairs"] = correspondence_pairs
        summary["geomean_correspondence_speedup"] = round(
            _geomean([pair["speedup"] for pair in correspondence_pairs]), 2
        )
    # The superposed sweep engine: sweep-vs-compiled pairs on the
    # E3/E9/correspondence-shaped adversarial numbering sweeps.
    sweep_pairs = [pair for pair in pairs if pair["file"] == "bench_sweep"]
    if sweep_pairs:
        sweep_speedups = [pair["speedup"] for pair in sweep_pairs]
        summary["sweep_pairs"] = sweep_pairs
        summary["min_sweep_speedup"] = min(sweep_speedups)
        summary["max_sweep_speedup"] = max(sweep_speedups)
        summary["geomean_sweep_speedup"] = round(_geomean(sweep_speedups), 2)
    # The vector kernel: vector-vs-sweep execution pairs and the
    # vector-vs-compiled 10^4-world check_many pairs, each with its own
    # geomean (CI asserts independent floors: >= 3x sweeps, >= 5x checks)
    # plus the combined headline geomean.
    vector_pairs = [pair for pair in pairs if pair["file"] == "bench_vector"]
    if vector_pairs:
        vector_sweep = [
            pair for pair in vector_pairs if "sweep" in pair["benchmark"]
        ]
        vector_check = [
            pair for pair in vector_pairs if "check" in pair["benchmark"]
        ]
        summary["vector_sweep_pairs"] = vector_sweep
        summary["vector_check_pairs"] = vector_check
        speedups = [pair["speedup"] for pair in vector_pairs]
        summary["min_vector_speedup"] = min(speedups)
        summary["max_vector_speedup"] = max(speedups)
        summary["geomean_vector_speedup"] = round(_geomean(speedups), 2)
        if vector_sweep:
            summary["geomean_vector_sweep_speedup"] = round(
                _geomean([pair["speedup"] for pair in vector_sweep]), 2
            )
        if vector_check:
            summary["geomean_vector_check_speedup"] = round(
                _geomean([pair["speedup"] for pair in vector_check]), 2
            )
    # One dedup entry per benchmark, not per runner side: both sides report
    # the identical sweep work accounting.
    dedup: dict[tuple, dict] = {}
    sweep_new, sweep_old = _FILE_SIDES["bench_sweep"]
    for test in benches.get("bench_sweep", {}).get("tests", []):
        if "evaluations" not in test or "occurrences" not in test:
            continue
        key = _pair_key(test, sweep_new, sweep_old)
        dedup.setdefault(
            key,
            {
                "benchmark": key[0],
                "params": dict(key[1]),
                "instances": test.get("instances"),
                "occurrences": test["occurrences"],
                "evaluations": test["evaluations"],
                "dedup_ratio": round(
                    test["occurrences"] / max(test["evaluations"], 1), 1
                ),
            },
        )
    if dedup:
        summary["sweep_dedup"] = sorted(
            dedup.values(), key=lambda entry: -entry["dedup_ratio"]
        )
    sizes = []
    for test in benches.get("bench_correspondence", {}).get("tests", []):
        if "tree_size" in test and "dag_size" in test:
            sizes.append(
                {
                    "name": test["name"],
                    "tree_size": test["tree_size"],
                    "dag_size": test["dag_size"],
                    "ratio": round(test["tree_size"] / max(test["dag_size"], 1), 1),
                }
            )
    if sizes:
        summary["correspondence_sizes"] = sizes
        summary["max_dag_compression"] = max(entry["ratio"] for entry in sizes)
    return summary


def collect_metrics_probe(smoke: bool) -> dict:
    """Re-run the ``bench_sweep`` workloads in-process with the telemetry
    registry enabled and return the resulting snapshot plus per-case dedup
    accounting derived *from the metrics counters alone*.

    This is the cross-check that keeps the observability layer honest: the
    ``sweep.occurrences``/``sweep.evaluations`` counters must reproduce the
    ``sweep_dedup`` figures the benchmarks report out of ``SweepStats``
    (same workloads, same sizes -- ``REPRO_BENCH_SMOKE`` is pinned to the
    run's smoke flag before the bench module is imported).
    """
    if smoke:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
    else:
        os.environ.pop("REPRO_BENCH_SMOKE", None)
    for entry in (str(REPO_ROOT / "src"), str(BENCH_DIR)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import bench_sweep  # noqa: PLC0415 - sized by REPRO_BENCH_SMOKE at import

    from repro import obs
    from repro.execution.sweep import run_sweep

    cases = [
        ("test_e3_exhaustive_adversary_sweep", {"label": label}, algorithm,
         bench_sweep.E3_INSTANCES)
        for label, algorithm in bench_sweep.E3_ALGORITHMS.items()
    ]
    for cls in bench_sweep.E9_CLASSES:
        from repro.machines.library import reference_machine
        from repro.machines.models import ProblemClass
        from repro.machines.state_machine import algorithm_from_machine

        algorithm = algorithm_from_machine(
            reference_machine(ProblemClass(cls), 3, rounds=2).as_state_machine()
        )
        cases.append(
            ("test_e9_regular_machine_sweep", {"cls": cls}, algorithm,
             bench_sweep.E9_INSTANCES)
        )
    cases += [
        ("test_correspondence_roundtrip_sweep", {"front": front}, algorithm,
         bench_sweep.CORRESPONDENCE_INSTANCES)
        for front, algorithm in bench_sweep.CORRESPONDENCE_FRONTS.items()
    ]

    obs.reset()
    obs.enable()
    dedup = []
    try:
        for benchmark_name, params, algorithm, instances in cases:
            before = obs.snapshot()
            run_sweep(algorithm, instances, require_halt=False)
            delta = obs.snapshot_delta(before, obs.snapshot())
            counters = delta.get("counters", {})
            occurrences = int(
                counters.get("sweep.occurrences", 0)
                + counters.get("sweep.replicated_occurrences", 0)
            )
            evaluations = int(counters.get("sweep.evaluations", 0))
            dedup.append(
                {
                    "benchmark": benchmark_name,
                    "params": params,
                    "instances": len(instances),
                    "occurrences": occurrences,
                    "evaluations": evaluations,
                    "dedup_ratio": round(occurrences / max(evaluations, 1), 1),
                }
            )
        snapshot = obs.snapshot()
    finally:
        obs.disable()
        obs.reset()
    return {
        "snapshot": snapshot,
        "sweep_dedup": sorted(dedup, key=lambda entry: -entry["dedup_ratio"]),
    }


def verify_dedup_metrics(probe_dedup: list[dict], summary_dedup: list[dict]) -> None:
    """The counter-derived dedup figures must match the SweepStats-derived
    ``summary["sweep_dedup"]`` figures within rounding (both sides round the
    ratio to one decimal; the raw counts must agree exactly)."""
    probe_by_key = {
        (entry["benchmark"], tuple(sorted(entry["params"].items()))): entry
        for entry in probe_dedup
    }
    for expected in summary_dedup:
        key = (expected["benchmark"], tuple(sorted(expected["params"].items())))
        measured = probe_by_key.get(key)
        if measured is None:
            raise SystemExit(
                f"metrics probe missing sweep_dedup case {key!r}; "
                f"probe has {sorted(probe_by_key)}"
            )
        for field in ("occurrences", "evaluations"):
            if measured[field] != expected[field]:
                raise SystemExit(
                    f"metrics probe disagrees with benchmark on {key!r}.{field}: "
                    f"counters say {measured[field]}, SweepStats said {expected[field]}"
                )
        if abs(measured["dedup_ratio"] - expected["dedup_ratio"]) > 0.1001:
            raise SystemExit(
                f"metrics probe dedup ratio for {key!r} is {measured['dedup_ratio']}, "
                f"benchmark reported {expected['dedup_ratio']}"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny size budget (CI smoke job)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke path: --smoke sizes, only {', '.join(QUICK_MODULES)}",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: BENCH_<date>.json in the repo root)",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="run a single bench module, e.g. --only bench_execution",
    )
    args = parser.parse_args()

    date = datetime.date.today().isoformat()
    out_path = Path(args.out) if args.out else REPO_ROOT / f"BENCH_{date}.json"

    if args.quick:
        args.smoke = True

    files = discover_benchmarks()
    if args.quick:
        files = [path for path in files if path.stem in QUICK_MODULES]
    if args.only:
        files = [path for path in files if path.stem == args.only]
        if not files:
            raise SystemExit(f"no benchmark module named {args.only!r}")

    benches: dict[str, dict] = {}
    for path in files:
        print(f"[run_all] {path.name} ...", flush=True)
        data, wall = run_benchmark_file(path, smoke=args.smoke)
        benches[path.stem] = summarize_file(path.stem, data, wall)
        print(f"[run_all] {path.name}: {wall:.1f}s", flush=True)

    pairs = derive_pairs(benches)
    summary = derive_summary(benches, pairs)
    report = {
        "date": date,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "smoke": args.smoke,
        "benches": benches,
        "pairs": pairs,
        "summary": summary,
    }
    # The telemetry cross-check rides along whenever the sweep benchmarks
    # ran.  ``metrics`` is a new, optional top-level section: consumers of
    # older BENCH_<date>.json files (and of files written with --only on a
    # non-sweep module) must not assume it is present.
    if "bench_sweep" in benches and summary.get("sweep_dedup"):
        print("[run_all] metrics probe (bench_sweep workloads) ...", flush=True)
        probe = collect_metrics_probe(smoke=args.smoke)
        verify_dedup_metrics(probe["sweep_dedup"], summary["sweep_dedup"])
        report["metrics"] = probe
        print(
            "[run_all] metrics probe: counters match sweep_dedup on "
            f"{len(probe['sweep_dedup'])} cases",
            flush=True,
        )
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"[run_all] wrote {out_path}")
    if pairs:
        for pair in pairs:
            tag = ",".join(f"{k}={v}" for k, v in pair["params"].items()) or "-"
            print(
                f"[run_all]   {pair['file']}::{pair['benchmark']}[{tag}] "
                f"speedup {pair['speedup']}x"
            )


if __name__ == "__main__":
    main()
