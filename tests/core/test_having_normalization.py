"""normalize_having: the §9 relaxation, checked semantically."""

import pytest

from repro.algebra.ops import AggregateSpec
from repro.core.query_class import GroupByJoinQuery
from repro.core.testfd import test_fd
from repro.core.transform import build_standard_plan, normalize_having
from repro.engine.executor import execute
from repro.expressions.builder import col, count, eq, gt, sum_
from repro.fd.derivation import TableBinding
from repro.main_theorem import evaluate_both


def having_query(example1_query, having):
    return GroupByJoinQuery(
        example1_query.r1, example1_query.r2, example1_query.where,
        example1_query.ga1, example1_query.ga2, example1_query.aggregates,
        having=having,
    )


class TestNormalizeHaving:
    def test_aggregate_free_having_moves_to_where(self, example1_query):
        query = having_query(example1_query, gt(col("D.DeptID"), 3))
        normalized = normalize_having(query)
        assert normalized.having is None
        assert "D.DeptID > 3" in str(normalized.where)

    def test_aggregate_having_untouched(self, example1_query):
        query = having_query(example1_query, gt(count("E.EmpID"), 5))
        assert normalize_having(query) is query

    def test_no_having_untouched(self, example1_query):
        assert normalize_having(example1_query) is example1_query

    def test_normalized_query_is_transformable(self, example1_db, example1_query):
        query = having_query(example1_query, gt(col("D.DeptID"), 3))
        assert not test_fd(example1_db, query).decision  # HAVING blocks it
        normalized = normalize_having(query)
        assert test_fd(example1_db, normalized).decision

    def test_semantics_preserved(self, example1_db, example1_query):
        """HAVING-on-grouping-columns == WHERE, row for row."""
        query = having_query(example1_query, gt(col("D.DeptID"), 3))
        normalized = normalize_having(query)
        with_having, __ = execute(example1_db, build_standard_plan(query))
        folded, __ = execute(example1_db, build_standard_plan(normalized))
        assert with_having.equals_multiset(folded)
        assert 0 < with_having.cardinality < 10

    def test_normalized_eager_plan_agrees(self, example1_db, example1_query):
        query = having_query(example1_query, gt(col("D.DeptID"), 3))
        normalized = normalize_having(query)
        e1, e2 = evaluate_both(example1_db, normalized)
        assert e1.equals_multiset(e2)

    def test_mixed_having_stays(self, example1_query):
        """A HAVING mixing grouping columns and aggregates cannot fold."""
        from repro.expressions.builder import and_

        having = and_(gt(col("D.DeptID"), 3), gt(count("E.EmpID"), 1))
        query = having_query(example1_query, having)
        assert normalize_having(query) is query
