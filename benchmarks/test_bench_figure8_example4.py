"""Figure 8 / Example 4: the regime where eager grouping *loses*.

Paper's numbers: |A| = 10000, |B| = 100; the join is selective and yields
only ~50 rows, grouped into ~10 groups (Plan 1).  Eager grouping first
collapses A into ~9000 groups and then joins 9000 × 100 (Plan 2) —
"Most likely, Plan 2 is more expensive than Plan 1."

We reproduce the cardinality flows and confirm (a) the engine's measured
work and (b) the cost model both rank Plan 1 ahead.
"""

from __future__ import annotations

import pytest

from repro.algebra.display import render_annotated
from repro.algebra.ops import AggregateSpec, fuse_group_apply
from repro.core.query_class import GroupByJoinQuery
from repro.core.transform import build_eager_plan, build_standard_plan
from repro.costing.cardinality import CardinalityEstimator
from repro.costing.cost import CostModel
from repro.engine.executor import execute
from repro.expressions.builder import col, eq, sum_
from repro.fd.derivation import TableBinding
from repro.workloads.generators import populate_example4


@pytest.fixture(scope="module")
def example4_db():
    return populate_example4(n_a=10000, n_b=100, a_groups=9000, match_rows=50, seed=4)


def example4_query():
    """Group on A's high-cardinality key column, join selectively to B."""
    return GroupByJoinQuery(
        r1=[TableBinding("A", "A")],
        r2=[TableBinding("B", "B")],
        where=eq(col("A.BRef"), col("B.BId")),
        ga1=["A.GKey"],
        ga2=["B.BId"],
        aggregates=[AggregateSpec("s", sum_("A.Val"))],
    )


def test_figure8_plan1_small_groupby(example4_db):
    """Plan 1: the selective join feeds only ~50 rows to the group-by."""
    plan = fuse_group_apply(build_standard_plan(example4_query()))
    result, stats = execute(example4_db, plan)
    assert stats.join_input_sizes() == [(10000, 100)]
    join_output = stats.groupby_input_rows()
    assert join_output < 200  # the paper's "50 rows" regime
    print(f"\nPlan 1: join output (group-by input) = {join_output}")
    print(render_annotated(plan, stats.cardinality_map()))


def test_figure8_plan2_explodes_groups(example4_db):
    """Plan 2: ~9000 eager groups, then a 9000 × 100 join."""
    plan = fuse_group_apply(build_eager_plan(example4_query()))
    result, stats = execute(example4_db, plan)
    ((left, right),) = stats.join_input_sizes()
    assert left > 8000  # ≈ 9000 A-side groups (GKey, BRef pairs ≥ GKey count)
    assert right == 100
    assert stats.groupby_input_rows() == 10000
    print(f"\nPlan 2: eager groups = {left}, join = {left} x {right}")
    print(render_annotated(plan, stats.cardinality_map()))


def test_figure8_plans_agree(example4_db):
    query = example4_query()
    plan1, __ = execute(example4_db, build_standard_plan(query))
    plan2, __ = execute(example4_db, build_eager_plan(query))
    assert plan1.equals_multiset(plan2)


def test_figure8_standard_wins_measured_and_estimated(example4_db):
    """Both the engine's work counters and the cost model rank Plan 1 first."""
    query = example4_query()
    __, standard_stats = execute(example4_db, build_standard_plan(query))
    __, eager_stats = execute(example4_db, build_eager_plan(query))
    assert standard_stats.total_work() < eager_stats.total_work()

    model = CostModel(CardinalityEstimator(example4_db))
    standard_cost = model.cost(build_standard_plan(query)).total
    eager_cost = model.cost(build_eager_plan(query)).total
    print(
        f"\nmeasured work: standard={standard_stats.total_work()} "
        f"eager={eager_stats.total_work()}"
    )
    print(f"estimated cost: standard={standard_cost:.0f} eager={eager_cost:.0f}")
    assert standard_cost < eager_cost


@pytest.mark.benchmark(group="figure8")
def test_bench_plan1_standard(benchmark, example4_db):
    plan = build_standard_plan(example4_query())
    benchmark.pedantic(lambda: execute(example4_db, plan)[0], rounds=3, iterations=1)


@pytest.mark.benchmark(group="figure8")
def test_bench_plan2_eager(benchmark, example4_db):
    plan = build_eager_plan(example4_query())
    benchmark.pedantic(lambda: execute(example4_db, plan)[0], rounds=3, iterations=1)
