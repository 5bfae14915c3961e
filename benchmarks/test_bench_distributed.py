"""Section 7, the distributed observation: "Instead of transferring all of
R1 to some other site to be joined with R2, we transfer only one row for
each group ... this may reduce the overall cost significantly."

Model: R1's tables live on site 1, R2's on site 2, the join runs at
site 2.  The standard plan ships every filtered R1 row; the eager plan
ships one row per group.  We print the transfer volumes and totals across
group counts and assert the eager savings dominate whenever groups ≪ |R1|.
"""

from __future__ import annotations

import pytest

from repro.algebra.ops import AggregateSpec, Join as JoinOp
from repro.core.query_class import GroupByJoinQuery
from repro.core.transform import build_eager_plan, build_standard_plan
from repro.costing.cardinality import CardinalityEstimator
from repro.costing.cost import CostModel, DistributedCostModel, NetworkWeights
from repro.engine.executor import ExecutorConfig, execute
from repro.expressions.builder import col, eq, sum_
from repro.fd.derivation import TableBinding
from repro.storage.partition import PartitionSpec
from repro.workloads.generators import TwoTableSpec, make_two_table

N_A = 5000
N_B = 50


def query():
    return GroupByJoinQuery(
        r1=[TableBinding("A", "A")],
        r2=[TableBinding("B", "B")],
        where=eq(col("A.BRef"), col("B.BId")),
        ga1=[],
        ga2=["B.BId", "B.Name"],
        aggregates=[AggregateSpec("s", sum_("A.Val"))],
    )


def shipped_subplans(standard_plan, eager_plan):
    """The R1-side subplan whose output crosses the wire, per plan."""
    # standard: Project <- Apply <- Group <- Join(left = R1 scan).
    standard_shipped = standard_plan.child.child.child.left
    # eager: Project <- Join(left = aggregated R1 block).
    join = eager_plan.child
    assert isinstance(join, JoinOp)
    return standard_shipped, join.left


def test_transfer_volumes_scale_with_groups():
    rows = []
    for groups in (10, 100, 1000):
        db = make_two_table(
            TwoTableSpec(n_a=N_A, n_b=N_B, a_groups=groups, bref_mode="correlated", seed=groups)
        )
        q = query()
        estimator = CardinalityEstimator(db)
        standard_plan = build_standard_plan(q)
        eager_plan = build_eager_plan(q)
        standard_shipped, eager_shipped = shipped_subplans(standard_plan, eager_plan)
        standard_rows = estimator.rows(standard_shipped)
        eager_rows = estimator.rows(eager_shipped)
        rows.append((groups, standard_rows, eager_rows))
        assert standard_rows == N_A
        # One row per (GKey-correlated BRef) group, never more than |A|.
        assert eager_rows <= standard_rows
        if groups <= 100:
            assert eager_rows < standard_rows / 10
    print("\n groups | rows shipped (standard) | rows shipped (eager)")
    for groups, s, e in rows:
        print(f" {groups:>6} | {s:>23.0f} | {e:>20.0f}")


@pytest.mark.parametrize("per_row_cost", [10.0, 100.0, 1000.0])
def test_eager_wins_whenever_network_dominates(per_row_cost):
    """As the per-row transfer charge grows, the eager plan's advantage
    grows linearly in (|R1| - groups)."""
    db = make_two_table(
        TwoTableSpec(n_a=N_A, n_b=N_B, a_groups=50, bref_mode="correlated", seed=5)
    )
    q = query()
    model = DistributedCostModel(
        CostModel(CardinalityEstimator(db)),
        NetworkWeights(per_row=per_row_cost),
    )
    standard_plan = build_standard_plan(q)
    eager_plan = build_eager_plan(q)
    standard_shipped, eager_shipped = shipped_subplans(standard_plan, eager_plan)
    standard_total = model.cost_with_transfer(standard_plan, standard_shipped)
    eager_total = model.cost_with_transfer(eager_plan, eager_shipped)
    saving = standard_total - eager_total
    print(
        f"\nper-row={per_row_cost}: standard={standard_total:.0f} "
        f"eager={eager_total:.0f} saving={saving:.0f}"
    )
    assert eager_total < standard_total
    # The transfer term alone accounts for ≈ (5000 - 50) × per_row_cost.
    assert saving > 0.8 * per_row_cost * (N_A - 50)


@pytest.mark.parametrize("groups", [10, 1000])
def test_measured_wire_matches_cost_model_ordering(groups):
    """Not just the abstract model: run both plans through the Exchange
    operator for real and meter the pickled bytes each one ships.

    The standard plan's only distributable region is the bare ``A`` scan,
    so the whole partition crosses the wire; the eager plan's below-join
    group-by runs under the Exchange and ships one partial row per BRef
    group.  The measured byte ordering must agree with the
    ``cost_with_transfer`` ordering the planner reasons from, and both
    sharded runs must still compute the same answer.
    """
    shards = 2
    db = make_two_table(
        TwoTableSpec(
            n_a=N_A, n_b=N_B, a_groups=groups, bref_mode="correlated", seed=groups
        )
    )
    db.set_partitioning("A", PartitionSpec("hash", "BRef", shards))
    q = query()
    standard_plan = build_standard_plan(q)
    eager_plan = build_eager_plan(q)
    standard_shipped, eager_shipped = shipped_subplans(standard_plan, eager_plan)
    model = DistributedCostModel(
        CostModel(CardinalityEstimator(db)), NetworkWeights(per_row=100.0)
    )
    modeled_saving = model.cost_with_transfer(
        standard_plan, standard_shipped
    ) - model.cost_with_transfer(eager_plan, eager_shipped)

    config = ExecutorConfig(shards=shards)
    standard_result, standard_stats = execute(db, build_standard_plan(q), config)
    eager_result, eager_stats = execute(db, build_eager_plan(q), config)

    assert eager_result.equals_multiset(standard_result)
    assert standard_stats.rows_shipped() == N_A
    # One partial row per BRef group (hash-partitioned on BRef, so no
    # group straddles shards); BRef takes at most min(groups, |B|) values.
    assert eager_stats.rows_shipped() <= min(groups, N_B)
    measured_saving = standard_stats.bytes_shipped() - eager_stats.bytes_shipped()
    assert measured_saving > 0
    assert (measured_saving > 0) == (modeled_saving > 0)


@pytest.mark.benchmark(group="distributed")
def test_bench_distributed_cost_model(benchmark):
    """Costing both plans plus transfers must be optimizer-cheap."""
    db = make_two_table(
        TwoTableSpec(n_a=N_A, n_b=N_B, a_groups=50, bref_mode="correlated", seed=6)
    )
    q = query()
    model = DistributedCostModel(CostModel(CardinalityEstimator(db)))
    standard_plan = build_standard_plan(q)
    eager_plan = build_eager_plan(q)
    standard_shipped, eager_shipped = shipped_subplans(standard_plan, eager_plan)

    def run():
        return (
            model.cost_with_transfer(standard_plan, standard_shipped),
            model.cost_with_transfer(eager_plan, eager_shipped),
        )

    standard_total, eager_total = benchmark(run)
    assert eager_total < standard_total
