"""Compare two results files: ``python3 bench/compare.py A.json B.json``.

One row per (workload, end-to-end metric) with both medians, the ratio
B/A with its base, and a verdict from the bounds in ``BENCHMARK.json``:

* ``unresolved`` — the spread between the repeated runs of either side
  (quartile distance over median) exceeds the bound, so the medians
  cannot be told apart to within it;
* ``worse`` / ``better`` — B's median is worse / better than A's by more
  than the bound;
* ``same`` — anything else.

The client-visible metrics only some workloads have (:data:`CLIENT_BOUNDS`)
get the same rows from the untraced runs' records.  A bound of 0 means the
metric must repeat: it is compared run by run, since run *i* of both
files has the same seed.

The other per-layer metrics have no bound: those that differ are listed
with both values, and the exact counts must be identical.  Exits non-zero
on any ``worse`` row or any exact count that differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import List, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: ISSUE 11's bounds for the end-to-end metrics that do not exist on every
#: workload.  BENCHMARK.json must file those under ``per_layer``, which
#: has no bounds, so they are fixed here.
CLIENT_BOUNDS = {
    "write_latency_p50_ms": 0.10,  # serve_mixed
    "wire_bytes_per_stmt": 0.0,  # shard_socket; an exact count
    "failed_ops_share": 0.0,
}

#: Per-layer metrics that are counts of the program's work on seeded
#: inputs with one client: they repeat exactly from run to run.
EXACT_METRICS = (
    "wire_bytes_per_stmt",
    "failed_ops_share",
    "testfd.yes_share",
    "cardinality.qerror_p50",
    "cardinality.qerror_max",
    "planner.eager_share",
    "rewrites.applied_per_stmt",
    "distribute.two_phase_share",
    "engine.total_work",
    "engine.groupby_input_rows",
    "engine.join_input_rows",
    "morsel.max_inflight_bytes",
    "exchange.rows_shipped",
    "exchange.payload_bytes",
    "shardrpc.wire_bytes",
    "shardrpc.calls",
    "shardrpc.retries",
    "shardrpc.timeouts",
    "shardrpc.failovers",
    "server.rejected",
    "server.aborts",
    "net.bytes_per_read",
)


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (0 for a single run and
    for a metric that is 0, like ``failed_ops_share`` when nothing fails)."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / middle


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    if bound == 0:
        if a == b:
            return "same"
        worsened = any(y > x if better == "lower" else y < x for x, y in zip(a, b))
        return "worse" if worsened else "better"
    if spread(a) > bound or spread(b) > bound:
        return "unresolved"
    base, other = statistics.median(a), statistics.median(b)
    worsening = (other - base) / base if better == "lower" else (base - other) / base
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def client_values(runs: List[dict], key: str) -> List[float]:
    """``key`` from each untraced run that has it (run.py keeps the
    workload's own client-visible numbers in the detail record)."""
    if key == "failed_ops_share":
        return [run["failed"] / run["attempted"] for run in runs]
    return [
        run["detail"]["client_metrics"][key]
        for run in runs
        if key in run["detail"]["client_metrics"]
    ]


def row(name: str, metric: dict, bound: float, a: List[float], b: List[float]) -> str:
    """Print one (workload, metric) row; returns its verdict."""
    outcome = verdict(a, b, metric["better"], bound)
    base, other = statistics.median(a), statistics.median(b)
    ratio = f"{other / base:.3f}" if base else "n/a"
    print(f"{name:<13} {metric['name']:<21} {base:>12.4f} {other:>12.4f} "
          f"{ratio:>7} {spread(a):>9.3f} {spread(b):>9.3f} {bound:>6.2f}  {outcome} "
          f"(base {base:.4f} {metric['unit']})")
    return outcome


def compare(a: dict, b: dict, contract: dict) -> int:
    status = 0
    print(f"A = {a['label']} ({a['host']['commit'][:12]}), "
          f"B = {b['label']} ({b['host']['commit'][:12]})")
    print(f"{'workload':<13} {'metric':<21} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    layers = {metric["name"]: metric for metric in contract["per_layer"]}
    for workload in contract["workloads"]:
        name = workload["name"]
        runs_a = a["workloads"][name]["end_to_end"]["runs"]
        runs_b = b["workloads"][name]["end_to_end"]["runs"]
        outcomes = [
            row(
                name, metric, metric["bound"],
                [run["metrics"][metric["name"]]["value"] for run in runs_a],
                [run["metrics"][metric["name"]]["value"] for run in runs_b],
            )
            for metric in contract["end_to_end"]
        ]
        for key, bound in CLIENT_BOUNDS.items():
            values_a, values_b = client_values(runs_a, key), client_values(runs_b, key)
            if values_a and values_b:
                outcomes.append(row(name, layers[key], bound, values_a, values_b))
        if "worse" in outcomes:
            status = 1
    print("\nper-layer metrics that differ (no bound; exact counts must not):")
    for workload in contract["workloads"]:
        name = workload["name"]
        layers_a = a["workloads"][name]["per_layer"]["metrics"]
        layers_b = b["workloads"][name]["per_layer"]["metrics"]
        for metric in contract["per_layer"]:
            key = metric["name"]
            value_a, value_b = layers_a[key]["value"], layers_b[key]["value"]
            if value_a == value_b:
                continue
            exact = key in EXACT_METRICS
            ratio = f"{value_b / value_a:.3f}" if value_a else "n/a"
            print(f"{name:<13} {key:<28} {value_a:>14.4f} {value_b:>14.4f} "
                  f"B/A {ratio}{'  EXACT COUNT DIFFERS' if exact else ''}")
            if exact:
                status = 1
    return status


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        contract = json.load(handle)
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    return compare(documents[0], documents[1], contract)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
