"""Smoke test of the benchmark itself.  Run it explicitly:

    python3 -m pytest bench/tests/test_bench_smoke.py -q

It is not part of tier-1 (``testpaths`` is ``tests``).  ``--quick`` mode —
tiny tables, 2 s windows — must finish in under a minute, emit exactly the
workloads and metrics ``BENCHMARK.json`` declares, repeat every exact
count from one run to the next on the same seed, and feed the program
different inputs for a different seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench.compare import EXACT_METRICS  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def quick(workload: str, seed: int, trace: int, tmp_path: Path) -> dict:
    detail = tmp_path / f"{workload}.{seed}.{trace}.json"
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "--quick", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--detail", str(detail)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode == 0, completed.stderr
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    record = json.loads(detail.read_text())
    assert line == {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    return record


def test_quick_mode_matches_the_contract_and_repeats_exactly(tmp_path):
    started = time.monotonic()
    first = {w: quick(w, 7, 1, tmp_path) for w in WORKLOADS}
    untraced = {w: quick(w, 7, 0, tmp_path) for w in WORKLOADS}
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"--quick took {elapsed:.0f} s for all four workloads"

    layer_names = {m["name"] for m in CONTRACT["per_layer"]}
    end_to_end_names = {m["name"] for m in CONTRACT["end_to_end"]}
    assert set(EXACT_METRICS) <= layer_names
    for workload in WORKLOADS:
        assert set(first[workload]["metrics"]) == layer_names
        assert set(untraced[workload]["metrics"]) == end_to_end_names
        for record in (first[workload], untraced[workload]):
            assert record["correct"] and record["failed"] == 0
            assert record["attempted"] >= 1
        assert all(v["value"] > 0 for v in untraced[workload]["metrics"].values())
        assert first[workload]["metrics"]["trace.coverage"]["value"] >= 0.85
        assert first[workload]["spans"], "the traced run recorded no spans"
    # The untraced record carries what compare.py gates for one workload only.
    assert untraced["shard_socket"]["detail"]["client_metrics"]["wire_bytes_per_stmt"] > 0

    # The same seed again: same inputs, and every exact count identical.
    second = {w: quick(w, 7, 1, tmp_path) for w in WORKLOADS}
    for workload in WORKLOADS:
        assert (first[workload]["detail"]["input_digest"]
                == second[workload]["detail"]["input_digest"])
        for name in EXACT_METRICS:
            assert (first[workload]["metrics"][name]
                    == second[workload]["metrics"][name]), (workload, name)

    # Another seed: other inputs.  The program is handed rows and SQL text
    # only; the seed reaches nothing but bench/datagen.py and the shuffles.
    other = {w: quick(w, 8, 0, tmp_path) for w in WORKLOADS}
    for workload in WORKLOADS:
        assert (other[workload]["detail"]["input_digest"]
                != first[workload]["detail"]["input_digest"])


def test_compare_verdicts():
    from bench.compare import verdict

    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, [v * 1.02 for v in steady], "lower", 0.10) == "same"
    assert verdict(steady, [v * 1.20 for v in steady], "lower", 0.10) == "worse"
    assert verdict(steady, [v * 0.80 for v in steady], "lower", 0.10) == "better"
    assert verdict(steady, [v * 0.80 for v in steady], "higher", 0.10) == "worse"
    noisy = [100.0, 140.0, 70.0, 125.0, 80.0]
    assert verdict(steady, noisy, "lower", 0.10) == "unresolved"
    # A bound of 0: an exact count, compared run by run (same seeds).
    counts = [201873.0, 198442.0, 203310.0]
    assert verdict(counts, list(counts), "lower", 0.0) == "same"
    assert verdict(counts, [counts[0], counts[1] + 1, counts[2]], "lower", 0.0) == "worse"
    assert verdict(counts, [v - 1 for v in counts], "lower", 0.0) == "better"
