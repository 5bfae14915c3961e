"""SQL rendering: expressions, E1 round-trips, the E2 presentation."""

import pytest

from repro.core.partition import to_group_by_join_query
from repro.core.sqlgen import eager_sql, render_expression, standard_sql
from repro.core.transform import build_standard_plan
from repro.engine.executor import execute
from repro.expressions.builder import (
    add,
    and_,
    between,
    col,
    count,
    count_star,
    eq,
    host,
    in_,
    is_null_,
    like,
    lit,
    not_,
    null,
    or_,
    sum_,
)
from repro.main_theorem import evaluate_both
from repro.parser.binder import bind_select
from repro.parser.parser import parse_statement


class TestRenderExpression:
    @pytest.mark.parametrize(
        "expression,expected",
        [
            (lit(5), "5"),
            (lit("it's"), "'it''s'"),
            (lit(True), "TRUE"),
            (lit(False), "FALSE"),
            (null(), "NULL"),
            (host("m"), ":m"),
            (eq(col("A.x"), lit(1)), "A.x = 1"),
            (and_(eq(col("A.x"), 1), eq(col("B.y"), 2)), "(A.x = 1 AND B.y = 2)"),
            (or_(eq(col("A.x"), 1), eq(col("B.y"), 2)), "(A.x = 1 OR B.y = 2)"),
            (not_(eq(col("A.x"), 1)), "NOT (A.x = 1)"),
            (is_null_(col("A.x")), "A.x IS NULL"),
            (in_(col("A.x"), 1, 2), "A.x IN (1, 2)"),
            (between(col("A.x"), 1, 9), "A.x BETWEEN 1 AND 9"),
            (like(col("A.s"), "dra%"), "A.s LIKE 'dra%'"),
            (count_star(), "COUNT(*)"),
            (add(count("A.x"), sum_("A.y")), "(COUNT(A.x) + SUM(A.y))"),
        ],
    )
    def test_shapes(self, expression, expected):
        assert render_expression(expression) == expected

    def test_rendered_expression_reparses(self):
        """Anything we render must parse back to an equivalent predicate."""
        from repro.parser.parser import Parser

        expression = and_(
            or_(eq(col("A.x"), lit(1)), between(col("A.y"), 2, 5)),
            not_(like(col("A.s"), "x%")),
        )
        text = render_expression(expression)
        reparsed = Parser(text).parse_expression()
        assert render_expression(reparsed) == text


class TestStandardSqlRoundTrip:
    def test_example1_roundtrip(self, example1_db, example1_query):
        sql = standard_sql(example1_query)
        statement = parse_statement(sql)
        flat = bind_select(example1_db, statement)
        reparsed = to_group_by_join_query(flat)
        original, __ = execute(example1_db, build_standard_plan(example1_query))
        again, __ = execute(example1_db, build_standard_plan(reparsed))
        assert original.equals_multiset(again)

    def test_example3_roundtrip(self, printer_db, example3_query):
        sql = standard_sql(example3_query)
        reparsed = to_group_by_join_query(
            bind_select(printer_db, parse_statement(sql))
        )
        original, __ = execute(printer_db, build_standard_plan(example3_query))
        again, __ = execute(printer_db, build_standard_plan(reparsed))
        assert original.equals_multiset(again)

    def test_distinct_rendered(self, example1_query):
        from repro.core.query_class import GroupByJoinQuery

        query = GroupByJoinQuery(
            example1_query.r1, example1_query.r2, example1_query.where,
            example1_query.ga1, example1_query.ga2, example1_query.aggregates,
            sga1=(), sga2=("D.Name",), distinct=True,
        )
        assert standard_sql(query).startswith("SELECT DISTINCT")


class TestEagerPresentation:
    def test_example3_presentation_matches_paper(self, example3_query):
        """The rewritten query printed the way the paper prints it:
        a main query over R1' and R2', then their definitions."""
        text = eager_sql(example3_query)
        assert "FROM R1', R2'" in text
        assert "R1' (" in text and "R2' (" in text
        # R1' groups PrinterAuth ⋈ Printer on GA1+.
        assert "GROUP BY A.UserId, A.Machine" in text or (
            "GROUP BY" in text and "A.UserId" in text and "A.Machine" in text
        )
        # R2' filters UserAccount on C2.
        assert "U.Machine = 'dragon'" in text
        # The view columns carry the aggregate names.
        for name in ("TotUsage", "MaxSpeed", "MinSpeed"):
            assert name in text

    def test_example1_presentation(self, example1_query):
        text = eager_sql(example1_query)
        assert "R1'.cnt" in text
        assert "GROUP BY E.DeptID" in text
