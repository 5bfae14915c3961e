"""Cost model: the paper's qualitative calls must come out right."""

import pytest

from repro.core.transform import build_eager_plan, build_standard_plan
from repro.costing.cardinality import CardinalityEstimator
from repro.costing.cost import (
    CostModel,
    CostWeights,
    DistributedCostModel,
    NetworkWeights,
)
from repro.workloads.generators import TwoTableSpec, make_two_table
from repro.algebra.ops import AggregateSpec
from repro.core.query_class import GroupByJoinQuery
from repro.expressions.builder import col, eq, sum_
from repro.fd.derivation import TableBinding


def two_table_query():
    return GroupByJoinQuery(
        r1=[TableBinding("A", "A")],
        r2=[TableBinding("B", "B")],
        where=eq(col("A.BRef"), col("B.BId")),
        ga1=[],
        ga2=["B.BId", "B.Name"],
        aggregates=[AggregateSpec("s", sum_("A.Val"))],
    )


class TestFigure1Regime:
    """Dense join, few groups: eager must be estimated cheaper."""

    def test_eager_wins(self):
        db = make_two_table(TwoTableSpec(n_a=2000, n_b=20, a_groups=20, seed=1))
        model = CostModel(CardinalityEstimator(db))
        query = two_table_query()
        standard = model.cost(build_standard_plan(query)).total
        eager = model.cost(build_eager_plan(query)).total
        assert eager < standard


class TestFigure8Regime:
    """Selective join, many groups: standard must be estimated cheaper."""

    def test_standard_wins(self):
        db = make_two_table(
            TwoTableSpec(n_a=2000, n_b=20, a_groups=1800, match_fraction=0.01, seed=2)
        )
        model = CostModel(CardinalityEstimator(db))
        query = two_table_query()
        standard = model.cost(build_standard_plan(query)).total
        eager = model.cost(build_eager_plan(query)).total
        assert standard < eager


class TestModelMechanics:
    def test_cost_breakdown_covers_nodes(self):
        db = make_two_table(TwoTableSpec(n_a=100, n_b=10, a_groups=10, seed=3))
        model = CostModel(CardinalityEstimator(db))
        plan = build_standard_plan(two_table_query())
        cost = model.cost(plan)
        assert cost.total == pytest.approx(sum(cost.by_node.values()))
        assert cost.total > 0

    def test_join_algorithm_choice_changes_cost(self):
        db = make_two_table(TwoTableSpec(n_a=500, n_b=50, a_groups=50, seed=4))
        estimator = CardinalityEstimator(db)
        plan = build_standard_plan(two_table_query())
        hash_cost = CostModel(estimator, join_algorithm="hash").cost(plan).total
        nl_cost = CostModel(estimator, join_algorithm="nested_loop").cost(plan).total
        assert hash_cost < nl_cost  # 500×50 pairings dwarf linear hashing

    def test_bad_join_algorithm(self):
        db = make_two_table(TwoTableSpec(n_a=10, n_b=5, a_groups=5, seed=5))
        with pytest.raises(ValueError):
            CostModel(CardinalityEstimator(db), join_algorithm="psychic")

    def test_weights_scale_costs(self):
        db = make_two_table(TwoTableSpec(n_a=100, n_b=10, a_groups=10, seed=6))
        estimator = CardinalityEstimator(db)
        plan = build_standard_plan(two_table_query())
        cheap = CostModel(estimator, CostWeights(tuple_cpu=1.0)).cost(plan).total
        pricey = CostModel(estimator, CostWeights(tuple_cpu=10.0)).cost(plan).total
        assert pricey > cheap


class TestDistributedModel:
    """§7: shipping one row per group beats shipping every row."""

    def test_eager_slashes_communication(self):
        db = make_two_table(TwoTableSpec(n_a=2000, n_b=20, a_groups=20, seed=7))
        query = two_table_query()
        model = DistributedCostModel(
            CostModel(CardinalityEstimator(db)),
            NetworkWeights(per_row=100.0),
        )
        standard = build_standard_plan(query)
        eager = build_eager_plan(query)
        # Shipped subplan: the R1 side — raw A for standard, the aggregate
        # for eager (plan.child.left under the projection).
        standard_shipped = standard.child.child.child.left  # Apply<-Group<-Join.left
        from repro.algebra.ops import Join as JoinOp

        join = eager.child
        assert isinstance(join, JoinOp)
        eager_shipped = join.left
        standard_total = model.cost_with_transfer(standard, standard_shipped)
        eager_total = model.cost_with_transfer(eager, eager_shipped)
        assert eager_total < standard_total
        # The gap must be dominated by the transfer term.
        assert standard_total - eager_total > 0.5 * 100.0 * (2000 - 20)
