"""Shard-parallel execution under the differential microscope.

Two sweeps guard the Exchange operator at scale:

* the **shard matrix** replays the whole differential workload under
  every shards × partitioning combination, demanding each engine's
  sharded output be bit-identical to its own unsharded run, and
* the **fault matrix** with the ``exchange`` pseudo-engine crashes the
  wire at every Exchange operator of every case, demanding the operator
  degrade to single-site execution with the answer unchanged.
"""

from __future__ import annotations

import pytest

from tests.engine.differential import (
    SHARD_MATRIX,
    failures,
    fault_failures,
    run_fault_matrix,
    run_shard_matrix,
)


def test_shard_matrix_bit_identical():
    sweeps = run_shard_matrix(quick=True)
    assert [label for label, __ in sweeps] == [
        "shards=1",
        "shards=2+hash",
        "shards=2+range",
        "shards=4+hash",
        "shards=4+range",
    ]
    for label, results in sweeps:
        assert results, label
        bad = failures(results)
        assert not bad, f"{label}: " + ", ".join(
            f"{r.name}[{r.config_label}]" for r in bad
        )


def test_shard_matrix_covers_every_combination():
    assert len(SHARD_MATRIX) == 5
    assert {overrides.get("partitioning") for overrides in SHARD_MATRIX} == {
        None,
        "hash",
        "range",
    }


@pytest.mark.faults
def test_fault_matrix_exchange_degrades_everywhere():
    """Every Exchange delivery point, crashed once: single-site fallback,
    identical rows, ≥1 recorded degradation, zero silent divergences."""
    outcomes = run_fault_matrix(
        quick=True, overrides={"shards": 2}, engines=("exchange",)
    )
    assert outcomes, "no Exchange operators found in the sharded sweep"
    bad = fault_failures(outcomes)
    assert not bad, ", ".join(
        f"{o.case}:{o.label}" for o in bad
    )


@pytest.mark.faults
def test_fault_matrix_all_engines_sharded():
    """The full kind sweep (row typed errors, vector degrades, exchange
    degrades) stays clean when every case runs sharded."""
    outcomes = run_fault_matrix(
        quick=True,
        overrides={"shards": 2},
        engines=("row", "vector", "exchange"),
    )
    bad = fault_failures(outcomes)
    assert not bad, ", ".join(f"{o.case}:{o.label}" for o in bad)
