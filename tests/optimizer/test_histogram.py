"""Equi-depth histograms and their use in the estimator."""

import random

import pytest

from repro.algebra.ops import Relation, Select
from repro.catalog import Column, Database, TableSchema
from repro.costing.cardinality import CardinalityEstimator, collect_statistics
from repro.costing.histogram import Histogram
from repro.expressions.builder import between, col, gt, le, lit, lt
from repro.sqltypes import INTEGER, VARCHAR
from repro.sqltypes.values import NULL


class TestHistogramBuild:
    def test_uniform_data(self):
        histogram = Histogram.build(list(range(100)), buckets=10)
        assert histogram is not None
        assert len(histogram.counts) == 10
        assert sum(histogram.counts) == 100
        assert histogram.null_count == 0

    def test_nulls_counted_separately(self):
        histogram = Histogram.build([1, 2, NULL, 3, NULL], buckets=2)
        assert histogram.null_count == 2
        assert sum(histogram.counts) == 3

    def test_non_numeric_returns_none(self):
        assert Histogram.build(["a", "b"]) is None
        assert Histogram.build([True, False]) is None

    def test_all_null_returns_none(self):
        assert Histogram.build([NULL, NULL]) is None

    def test_fewer_values_than_buckets(self):
        histogram = Histogram.build([5, 7], buckets=10)
        assert histogram is not None
        assert sum(histogram.counts) == 2

    def test_constant_column(self):
        histogram = Histogram.build([4] * 20, buckets=5)
        assert histogram is not None
        assert histogram.selectivity_le(4) == pytest.approx(1.0)
        assert histogram.selectivity_lt(3) == pytest.approx(0.0)


class TestSelectivities:
    @pytest.fixture
    def uniform(self):
        return Histogram.build(list(range(1000)), buckets=10)

    def test_le_midpoint(self, uniform):
        assert uniform.selectivity_le(499) == pytest.approx(0.5, abs=0.02)

    def test_extremes(self, uniform):
        assert uniform.selectivity_le(-1) == 0.0
        assert uniform.selectivity_le(2000) == 1.0
        assert uniform.selectivity_ge(2000) == pytest.approx(0.0, abs=0.01)

    def test_between(self, uniform):
        assert uniform.selectivity_between(250, 749) == pytest.approx(0.5, abs=0.03)
        assert uniform.selectivity_between(700, 100) == 0.0

    def test_skewed_data(self):
        """90% of the mass at small values: the histogram sees the skew."""
        values = [1] * 900 + list(range(100, 200))
        histogram = Histogram.build(values, buckets=10)
        assert histogram.selectivity_le(50) == pytest.approx(0.9, abs=0.05)
        assert histogram.selectivity_gt(50) == pytest.approx(0.1, abs=0.05)

    def test_nulls_never_match(self):
        histogram = Histogram.build([1, 2, 3, NULL], buckets=2)
        # 3 of 4 rows are ≤ 3; the NULL row matches nothing.
        assert histogram.selectivity_le(3) == pytest.approx(0.75)


class TestEstimatorIntegration:
    @pytest.fixture
    def skewed_db(self):
        db = Database()
        db.create_table(
            TableSchema("T", [Column("v", INTEGER), Column("s", VARCHAR(5))])
        )
        rng = random.Random(0)
        for __ in range(900):
            db.insert("T", [rng.randint(0, 10), "lo"])
        for __ in range(100):
            db.insert("T", [rng.randint(500, 1000), "hi"])
        return db

    def test_histogram_beats_default_on_skew(self, skewed_db):
        plan = Select(Relation("T", "T"), gt(col("T.v"), lit(400)))
        # True answer: 100 of 1000 rows.
        plain = CardinalityEstimator(skewed_db, collect_statistics(skewed_db))
        with_hist = CardinalityEstimator(
            skewed_db, collect_statistics(skewed_db, histogram_buckets=20)
        )
        plain_error = abs(plain.rows(plan) - 100)
        hist_error = abs(with_hist.rows(plan) - 100)
        assert hist_error < plain_error
        assert with_hist.rows(plan) == pytest.approx(100, rel=0.35)

    def test_between_uses_histogram(self, skewed_db):
        plan = Select(Relation("T", "T"), between(col("T.v"), 500, 1000))
        with_hist = CardinalityEstimator(
            skewed_db, collect_statistics(skewed_db, histogram_buckets=20)
        )
        assert with_hist.rows(plan) == pytest.approx(100, rel=0.35)

    def test_flipped_comparison(self, skewed_db):
        """constant < column resolves through the same histogram."""
        plan = Select(Relation("T", "T"), lt(lit(400), col("T.v")))
        with_hist = CardinalityEstimator(
            skewed_db, collect_statistics(skewed_db, histogram_buckets=20)
        )
        assert with_hist.rows(plan) == pytest.approx(100, rel=0.35)

    def test_no_histogram_falls_back(self, skewed_db):
        plan = Select(Relation("T", "T"), gt(col("T.v"), lit(400)))
        plain = CardinalityEstimator(skewed_db, collect_statistics(skewed_db))
        assert plain.rows(plan) == pytest.approx(1000 / 3, rel=0.01)

    def test_histogram_survives_join_context(self, skewed_db):
        skewed_db.create_table(
            TableSchema("U", [Column("k", INTEGER)])
        )
        skewed_db.insert("U", [1])
        from repro.algebra.ops import Join
        from repro.expressions.builder import eq

        plan = Select(
            Join(Relation("T", "T"), Relation("U", "U"), None),
            gt(col("T.v"), lit(400)),
        )
        with_hist = CardinalityEstimator(
            skewed_db, collect_statistics(skewed_db, histogram_buckets=20)
        )
        assert with_hist.rows(plan) == pytest.approx(100, rel=0.35)
