"""Example 3: the full TestFD walkthrough (steps a-h) and the rewritten query.

The paper traces TestFD on the printer-accounting query and prints the
closure after each step; we assert the same sets and then execute the
rewritten two-block query the paper derives (R1' ⋈ R2').
"""

from __future__ import annotations

import pytest

from repro.algebra.ops import AggregateSpec
from repro.core.query_class import GroupByJoinQuery
from repro.core.testfd import test_fd
from repro.core.transform import build_eager_plan, expand_predicates
from repro.engine.executor import execute
from repro.expressions.builder import and_, col, eq, lit, max_, min_, sum_
from repro.fd.derivation import TableBinding
from repro.main_theorem import evaluate_both


def example3_query():
    return GroupByJoinQuery(
        r1=[TableBinding("A", "PrinterAuth"), TableBinding("P", "Printer")],
        r2=[TableBinding("U", "UserAccount")],
        where=and_(
            eq(col("U.UserId"), col("A.UserId")),
            eq(col("U.Machine"), col("A.Machine")),
            eq(col("A.PNo"), col("P.PNo")),
            eq(col("U.Machine"), lit("dragon")),
        ),
        ga1=[],
        ga2=["U.UserId", "U.UserName"],
        aggregates=[
            AggregateSpec("TotUsage", sum_("A.Usage")),
            AggregateSpec("MaxSpeed", max_("P.Speed")),
            AggregateSpec("MinSpeed", min_("P.Speed")),
        ],
    )


def test_example3_partition_matches_paper(printer_db_bench):
    """R1 = (A, P), R2 = (U), GA1+ = (A.UserId, A.Machine),
    GA2+ = (U.UserId, U.Machine, U.UserName)."""
    query = example3_query()
    assert {b.alias for b in query.r1} == {"A", "P"}
    assert {b.alias for b in query.r2} == {"U"}
    assert set(query.ga1_plus) == {"A.UserId", "A.Machine"}
    assert set(query.ga2_plus) == {"U.UserId", "U.Machine", "U.UserName"}
    split = query.split()
    assert str(split.c1) == "A.PNo = P.PNo"
    assert str(split.c2) == "U.Machine = 'dragon'"
    print("\n" + query.describe())


def test_example3_testfd_trace(printer_db_bench):
    """Steps a-h: the closure sets match the paper's trace."""
    result = test_fd(printer_db_bench, example3_query())
    assert result.decision
    (trace,) = result.components
    # Step a/e: S = {U.UserId, U.UserName}.
    assert trace.seed == frozenset({"U.UserId", "U.UserName"})
    # Step b/f: + U.Machine (bound to 'dragon').
    assert trace.after_constants == trace.seed | {"U.Machine"}
    # Step c/g: the paper's closure (plus P's columns via the A.PNo = P.PNo
    # key step, which the paper's trace stops short of but TestFD may add).
    paper_closure = {
        "A.UserId", "A.Machine", "U.UserName", "U.Machine", "U.UserId",
    }
    assert paper_closure <= set(trace.closure)
    # Step d: primary key (U.Machine, U.UserId) of R2 found.
    assert trace.r2_keys_found
    # Step h: GA1+ = (A.Machine, A.UserId) covered.
    assert trace.ga1_plus_covered
    print("\nTestFD trace:")
    print(f"  seed (a/e):        {sorted(trace.seed)}")
    print(f"  + constants (b/f): {sorted(trace.after_constants)}")
    print(f"  closure (c/g):     {sorted(trace.closure)}")
    print(f"  key of R2 found (d): {trace.r2_keys_found}")
    print(f"  GA1+ covered (h):    {trace.ga1_plus_covered}")


def test_example3_rewritten_query_agrees(printer_db_bench):
    """The paper's rewritten form (R1' joined with R2') returns the same
    rows as the original, on real data."""
    e1, e2 = evaluate_both(printer_db_bench, example3_query())
    assert e1.equals_multiset(e2)
    assert e1.cardinality > 0


def test_example3_predicate_expansion(printer_db_bench):
    """The final remark: pushing A.Machine = 'dragon' into the R1 block
    shrinks the eager group-by input."""
    query = example3_query()
    expanded = expand_predicates(query)
    __, plain_stats = execute(printer_db_bench, build_eager_plan(query))
    __, expanded_stats = execute(printer_db_bench, build_eager_plan(expanded))
    plain_rows = plain_stats.groupby_input_rows()
    expanded_rows = expanded_stats.groupby_input_rows()
    print(f"\neager group-by input: {plain_rows} -> {expanded_rows} after expansion")
    assert expanded_rows < plain_rows
    eager_plain, __ = execute(printer_db_bench, build_eager_plan(query))
    eager_expanded, __ = execute(printer_db_bench, build_eager_plan(expanded))
    assert eager_plain.equals_multiset(eager_expanded)


@pytest.mark.benchmark(group="example3")
def test_bench_testfd_on_example3(benchmark, printer_db_bench):
    """TestFD itself must be fast — this is the paper's design goal."""
    query = example3_query()
    result = benchmark(lambda: test_fd(printer_db_bench, query))
    assert result.decision


@pytest.mark.benchmark(group="example3")
def test_bench_example3_eager_execution(benchmark, printer_db_bench):
    plan = build_eager_plan(expand_predicates(example3_query()))
    benchmark.pedantic(
        lambda: execute(printer_db_bench, plan)[0], rounds=3, iterations=1
    )
