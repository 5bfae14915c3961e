"""The benchmark's command line.

``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` runs one
workload in this process and prints one JSON object as the last line of
standard output: the end-to-end metrics with tracing off, the per-layer
metrics with tracing on.

``python3 -m bench [--seed N] [--quick] [--label L]`` runs all four
workloads — ten untraced runs on consecutive seeds (one with ``--quick``),
then one traced run, each in a fresh interpreter — prints every metric by
name with its unit and sample counts, and writes
``bench/results/<label>.json`` and ``<label>.trace.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Dict, List, Optional

from bench import harness
from bench.harness import BENCH_DIR, ROOT, Options

RESULTS_DIR = BENCH_DIR / "results"
QUICK_SECONDS = 2.0
#: Untraced runs per workload, on consecutive seeds: what the committed
#: baseline holds and what ``compare.py`` takes its quartile spreads over.
REPEATS = 10


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", help="run this one workload and print its JSON line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny tables, 2 s windows")
    parser.add_argument("--label", default="latest", help="name of the results files")
    parser.add_argument("--detail", help="also write the workload's detail record here")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    arguments = parse(argv)
    harness.bootstrap()
    contract = harness.load_contract()
    seconds = arguments.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if arguments.quick else float(contract["run_seconds"])
    if arguments.workload is None:
        return run_all(arguments, contract, seconds)
    names = [w["name"] for w in contract["workloads"]]
    if arguments.workload not in names:
        raise SystemExit(f"bench: unknown workload {arguments.workload!r}; one of {names}")
    options = Options(
        arguments.workload, arguments.seed, seconds, bool(arguments.trace),
        arguments.quick,
    )
    return run_one(options, contract, arguments.detail)


# -- one workload, in this process ------------------------------------------


def run_one(options: Options, contract: dict, detail_path: Optional[str]) -> int:
    from bench import workloads

    outcome = workloads.run(options)
    declared = contract["per_layer" if options.trace else "end_to_end"]
    unknown = set(outcome.metrics) - {m["name"] for m in declared}
    if unknown:
        raise SystemExit(f"bench: metrics not in BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for metric in declared:
        if metric["name"] in outcome.metrics:
            value = outcome.metrics[metric["name"]]
        elif options.trace:
            value = 0.0  # a layer this workload never enters
        else:
            raise SystemExit(f"bench: {options.workload} lacks {metric['name']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = outcome.failed == 0
    line = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if detail_path is not None:
        with open(detail_path, "w") as handle:
            json.dump({**line, "detail": outcome.detail, "spans": outcome.spans}, handle)
    print(json.dumps(line), flush=True)
    return 0 if correct else 1


# -- every workload, each in a fresh interpreter ------------------------------


def run_all(arguments: argparse.Namespace, contract: dict, seconds: float) -> int:
    RESULTS_DIR.mkdir(exist_ok=True)
    harness.WORK_DIR.mkdir(exist_ok=True)
    repeats = 1 if arguments.quick else REPEATS
    report = {
        "label": arguments.label,
        "seed": arguments.seed,
        "quick": arguments.quick,
        "seconds": seconds,
        "repeats": repeats,
        "host": host_metadata(),
        "workloads": {},
    }
    traces: Dict[str, list] = {}
    status = 0
    for workload in contract["workloads"]:
        name = workload["name"]
        # Untraced runs on consecutive seeds, then one traced run.
        plan = [(0, arguments.seed + i) for i in range(repeats)]
        plan.append((1, arguments.seed))
        records = []
        for trace, seed in plan:
            print(f"== {name} (seed {seed}, trace {trace}) ...", flush=True)
            code, record = run_child(name, seed, seconds, trace, arguments.quick)
            if record is None:
                print(f"bench: {name} exited {code} without a result", file=sys.stderr)
                return code or 1
            status = status or code
            records.append(record)
        traces[name] = records[-1].pop("spans")
        for record in records[:-1]:
            del record["spans"]
        entry = {"end_to_end": {"runs": records[:-1]}, "per_layer": records[-1]}
        report["workloads"][name] = entry
        print_workload(name, workload["why"], entry, contract)
    with open(RESULTS_DIR / f"{arguments.label}.json", "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    with open(RESULTS_DIR / f"{arguments.label}.trace.json", "w") as handle:
        json.dump(traces, handle)
        handle.write("\n")
    print(f"wrote {RESULTS_DIR / arguments.label}.json and .trace.json")
    if status:
        print("bench: an output check failed", file=sys.stderr)
    return status


def run_child(name: str, seed: int, seconds: float, trace: int, quick: bool):
    """One workload in a fresh interpreter, so that neither caches nor the
    peak resident set leak from one workload into the next.  Returns the
    exit code and the detail record (``None`` when the child left none)."""
    detail_path = harness.WORK_DIR / f"{name}.{trace}.{os.getpid()}.json"
    command = [
        sys.executable, "-m", "bench",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--detail", str(detail_path),
    ] + (["--quick"] if quick else [])
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL)
    if not detail_path.exists():
        return completed.returncode, None
    with open(detail_path) as handle:
        record = json.load(handle)
    detail_path.unlink()
    return completed.returncode, record


def print_workload(name: str, why: str, entry: dict, contract: dict) -> None:
    runs, per_layer = entry["end_to_end"]["runs"], entry["per_layer"]
    detail = runs[0]["detail"]
    print(f"\n{name}: {why}")
    print(f"  sizes {detail['sizes']}, clients {detail['clients']}")
    print(f"  end to end (tracing off; median of {len(runs)} runs, "
          f"{[run['detail']['samples'] for run in runs]} operations, "
          f"attempted {sum(run['attempted'] for run in runs)}, "
          f"failed {sum(run['failed'] for run in runs)}):")
    for metric in contract["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        print(f"    {metric['name']:<28} {harness.median(values):>14.4f} {metric['unit']}")
    # Client-visible numbers only this workload has (BENCHMARK.json files
    # them under ``per_layer``: an end-to-end metric must exist everywhere).
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for key in runs[0]["detail"]["client_metrics"]:
        values = [run["detail"]["client_metrics"][key] for run in runs]
        print(f"    {key:<28} {harness.median(values):>14.4f} {units[key]}")
    failed_share = sum(run["failed"] for run in runs) / sum(run["attempted"] for run in runs)
    print(f"    {'failed_ops_share':<28} {failed_share:>14.4f} {units['failed_ops_share']}")
    samples = per_layer["detail"]["samples"]
    print(f"  per layer (traced run: {samples} untraced and "
          f"{per_layer['attempted'] - samples} traced operations, "
          f"failed {per_layer['failed']}):")
    for metric in contract["per_layer"]:
        record = per_layer["metrics"][metric["name"]]
        if record["value"]:
            print(f"    {metric['name']:<28} {record['value']:>14.4f} {record['unit']}")
    shares = per_layer["detail"]["layer_shares"]
    print("  share of one operation:")
    for layer, share in sorted(shares.items(), key=lambda item: -item[1]):
        print(f"    {layer:<44} {share * 100:>6.1f} %")


def host_metadata() -> dict:
    import numpy

    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass  # not a git checkout
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
    }


if __name__ == "__main__":
    sys.exit(main())
