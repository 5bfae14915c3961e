"""Cardinality estimation against known data."""

import pytest

from repro.algebra.ops import (
    AggregateSpec,
    Apply,
    Group,
    Join,
    Product,
    Project,
    Relation,
    Select,
)
from repro.costing.cardinality import (
    CardinalityEstimator,
    CardinalityEstimator as Estimator,
    Statistics,
    TableStats,
    ColumnStats,
    collect_statistics,
)
from repro.expressions.builder import between, col, count, eq, gt, lit, lt


@pytest.fixture
def estimator(example1_db):
    return CardinalityEstimator(example1_db)


class TestCollectStatistics:
    def test_row_counts(self, example1_db):
        stats = collect_statistics(example1_db)
        assert stats.table("Employee").row_count == 200
        assert stats.table("Department").row_count == 10

    def test_distinct_counts(self, example1_db):
        stats = collect_statistics(example1_db)
        assert stats.table("Employee").columns["EmpID"].distinct == 200
        assert stats.table("Department").columns["DeptID"].distinct == 10

    def test_missing_table_defaults(self):
        assert Statistics().table("nope").row_count == 0


class TestNodeEstimates:
    def test_scan(self, estimator):
        assert estimator.rows(Relation("Employee", "E")) == 200

    def test_equality_selection(self, estimator):
        plan = Select(Relation("Employee", "E"), eq(col("E.DeptID"), lit(3)))
        # 200 rows / 10 distinct DeptIDs = 20.
        assert estimator.rows(plan) == pytest.approx(20, rel=0.01)

    def test_equi_join(self, estimator):
        plan = Join(
            Relation("Employee", "E"),
            Relation("Department", "D"),
            eq(col("E.DeptID"), col("D.DeptID")),
        )
        # 200 * 10 / max(10, 10) = 200.
        assert estimator.rows(plan) == pytest.approx(200, rel=0.01)

    def test_product(self, estimator):
        plan = Product(Relation("Employee", "E"), Relation("Department", "D"))
        assert estimator.rows(plan) == 2000

    def test_group_count_capped_by_input(self, estimator):
        plan = Apply(
            Group(Relation("Employee", "E"), ["E.EmpID"]),
            [AggregateSpec("n", count("E.DeptID"))],
        )
        assert estimator.rows(plan) <= 200

    def test_group_by_low_cardinality_column(self, estimator):
        plan = Apply(
            Group(Relation("Employee", "E"), ["E.DeptID"]),
            [AggregateSpec("n", count("E.EmpID"))],
        )
        assert estimator.rows(plan) == pytest.approx(10, rel=0.01)

    def test_distinct_projection(self, estimator):
        plan = Project(Relation("Employee", "E"), ["E.DeptID"], distinct=True)
        assert estimator.rows(plan) == pytest.approx(10, rel=0.01)

    def test_range_predicate_uses_default(self, estimator):
        plan = Select(Relation("Employee", "E"), gt(col("E.EmpID"), lit(100)))
        assert estimator.rows(plan) == pytest.approx(200 / 3, rel=0.01)

    def test_synthetic_statistics(self):
        from repro.catalog import Column, Database, TableSchema
        from repro.sqltypes import INTEGER

        db = Database()
        db.create_table(TableSchema("T", [Column("a", INTEGER)]))
        stats = Statistics(
            tables={"T": TableStats(row_count=1000, columns={"a": ColumnStats(50)})}
        )
        estimator = Estimator(db, stats)
        assert estimator.rows(Relation("T", "T")) == 1000
        plan = Select(Relation("T", "T"), eq(col("T.a"), lit(1)))
        assert estimator.rows(plan) == pytest.approx(20, rel=0.01)


class TestRangeDefaults:
    """Range predicates have no statistics behind them: System R's 1/3 per
    bound, (1/3)² × 2 = 2/9 for a BETWEEN and 7/9 for its negation."""

    def select(self, condition):
        return Select(Relation("Employee", "E"), condition)

    def test_column_above_constant(self, estimator):
        plan = self.select(gt(col("E.EmpID"), lit(100)))
        assert estimator.rows(plan) == pytest.approx(200 / 3)

    def test_flipped_comparison(self, estimator):
        """``c < col`` is priced as ``col > c``."""
        plan = self.select(lt(lit(100), col("E.EmpID")))
        assert estimator.rows(plan) == pytest.approx(200 / 3)

    def test_between(self, estimator):
        plan = self.select(between(col("E.EmpID"), 50, 150))
        assert estimator.rows(plan) == pytest.approx(200 * 2 / 9)

    def test_not_between(self, estimator):
        plan = self.select(between(col("E.EmpID"), 50, 150, negated=True))
        assert estimator.rows(plan) == pytest.approx(200 * 7 / 9)
