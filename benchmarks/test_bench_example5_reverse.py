"""Example 5 / Section 8: the reverse transformation on an aggregated view.

The query joins the aggregated view ``UserInfo`` with ``UserAccount``
restricted to machine 'dragon'.  The naive order materializes the whole
view (grouping *all* users' rows); the reverse order joins first, so the
grouping sees only dragon rows — the paper's argument for why the reverse
can win when the join is selective.
"""

from __future__ import annotations

import pytest

from repro.core.transform import build_eager_plan, build_standard_plan, reverse
from repro.engine.executor import execute
from repro.parser.binder import execute_statement
from repro.parser.parser import parse_statement
from repro.parser.viewmerge import merge_aggregated_view

VIEW_SQL = (
    "CREATE VIEW UserInfo (UserId, Machine, TotUsage, MaxSpeed, MinSpeed) AS "
    "SELECT A.UserId, A.Machine, SUM(A.Usage), MAX(P.Speed), MIN(P.Speed) "
    "FROM PrinterAuth A, Printer P WHERE A.PNo = P.PNo "
    "GROUP BY A.UserId, A.Machine"
)

OUTER_SQL = (
    "SELECT U.UserId, U.UserName, I.TotUsage, I.MaxSpeed, I.MinSpeed "
    "FROM UserInfo I, UserAccount U "
    "WHERE I.UserId = U.UserId AND I.Machine = U.Machine "
    "AND U.Machine = 'dragon'"
)


@pytest.fixture(scope="module")
def merged(printer_db_bench):
    execute_statement(printer_db_bench, parse_statement(VIEW_SQL))
    outer = parse_statement(OUTER_SQL)
    return merge_aggregated_view(printer_db_bench, outer)


def test_example5_merge_recovers_paper_query(merged):
    """The merged query is the Example 3 query (the paper's rewriting)."""
    assert {b.alias for b in merged.r1} == {"A", "P"}
    assert {b.alias for b in merged.r2} == {"U"}
    assert merged.ga2 == ("U.UserId", "U.UserName")
    assert "'dragon'" in str(merged.where)


def test_example5_orders_agree(printer_db_bench, merged):
    view_order, __ = execute(printer_db_bench, build_eager_plan(merged))
    reversed_order, __ = execute(printer_db_bench, build_standard_plan(merged))
    assert view_order.equals_multiset(reversed_order)


def test_example5_reverse_gate(printer_db_bench, merged):
    """reverse() validates via TestFD before handing out the E1 plan."""
    plan = reverse(printer_db_bench, merged)
    result, __ = execute(printer_db_bench, plan)
    assert result.cardinality > 0


def test_example5_reverse_shrinks_grouping(printer_db_bench, merged):
    """The selective join cuts the group-by input versus materializing the
    view over every user — the Section 8 payoff."""
    __, view_stats = execute(printer_db_bench, build_eager_plan(merged))
    __, reverse_stats = execute(printer_db_bench, build_standard_plan(merged))
    view_grouped = view_stats.groupby_input_rows()
    reverse_grouped = reverse_stats.groupby_input_rows()
    print(f"\ngroup-by input: view order={view_grouped}, reverse={reverse_grouped}")
    assert reverse_grouped < view_grouped


@pytest.mark.benchmark(group="example5")
def test_bench_view_materialization_order(benchmark, printer_db_bench, merged):
    plan = build_eager_plan(merged)
    benchmark.pedantic(
        lambda: execute(printer_db_bench, plan)[0], rounds=3, iterations=1
    )


@pytest.mark.benchmark(group="example5")
def test_bench_reverse_order(benchmark, printer_db_bench, merged):
    plan = build_standard_plan(merged)
    benchmark.pedantic(
        lambda: execute(printer_db_bench, plan)[0], rounds=3, iterations=1
    )
