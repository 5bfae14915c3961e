"""The analyzer over every seed query: integration fixtures and examples.

The acceptance bar for the verifier is *zero diagnostics on plans the seed
repo builds* — both access plans of every paper-example query, the example
scripts shipped in ``examples/``, and the plans the session actually
executes.  A diagnostic here is a false positive (or a real seed bug);
either way it must surface.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from repro.analysis.diagnostics import Severity
from repro.lint import lint_sql
from repro.analysis.verifier import analyze_plan, analyze_query
from repro.workloads.schemas import (
    make_printer_schema,
    make_retail_star,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def load_example(name):
    """Import an example script as a module without running its main()."""
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class TestIntegrationQueries:
    def test_example1_both_plans_clean(self, example1_db, example1_query):
        assert analyze_query(example1_db, example1_query) == []

    def test_example3_both_plans_clean(self, printer_db, example3_query):
        assert analyze_query(printer_db, example3_query) == []

    def test_session_reports_analyze_clean(self, example1_db):
        from repro.session import Session

        session = Session(example1_db)
        for policy in ("cost", "always_eager", "never_eager"):
            session.policy = policy
            report = session.report(
                "SELECT D.DeptID, D.Name, COUNT(E.EmpID) AS cnt "
                "FROM Employee E, Department D "
                "WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name"
            )
            diagnostics = analyze_plan(report.plan, example1_db)
            assert diagnostics == [], (policy, [str(d) for d in diagnostics])


class TestExampleScripts:
    def test_paper_demo_sql(self):
        report = lint_sql((EXAMPLES / "paper_demo.sql").read_text())
        assert report.ok, report.render()
        assert report.selects == 1

    def test_printer_accounting_queries(self):
        example = load_example("printer_accounting")
        db = make_printer_schema()
        script = ";\n".join(
            [example.EXAMPLE3_SQL, example.VIEW_SQL, example.OUTER_SQL]
        )
        report = lint_sql(script, database=db)
        assert report.ok, report.render()
        assert report.selects == 2  # EXAMPLE3 + OUTER (VIEW is DDL)

    def test_retail_reporting_queries(self):
        example = load_example("retail_reporting")
        db = make_retail_star()
        for name, sql in example.REPORTS:
            report = lint_sql(sql, database=db)
            assert report.ok, (name, report.render())

    def test_optimizer_crossover_query(self):
        from repro.workloads.generators import TwoTableSpec, make_two_table

        example = load_example("optimizer_crossover")
        db = make_two_table(
            TwoTableSpec(n_a=30, n_b=6, a_groups=3, seed=1)
        )
        assert analyze_query(db, example.selective_query()) == []

    def test_theorem_playground_scenarios(self):
        example = load_example("theorem_playground")
        for name, db, query in example.SCENARIOS:
            diagnostics = analyze_query(db, query)
            assert diagnostics == [], (name, [str(d) for d in diagnostics])

    def test_distributed_query_shape(self):
        from repro.algebra.ops import AggregateSpec
        from repro.core.query_class import GroupByJoinQuery
        from repro.expressions.builder import col, eq, sum_
        from repro.fd.derivation import TableBinding
        from repro.workloads.generators import TwoTableSpec, make_two_table

        db = make_two_table(
            TwoTableSpec(n_a=40, n_b=8, a_groups=4, bref_mode="correlated", seed=1)
        )
        query = GroupByJoinQuery(
            r1=[TableBinding("A", "A")],
            r2=[TableBinding("B", "B")],
            where=eq(col("A.BRef"), col("B.BId")),
            ga1=[],
            ga2=["B.BId", "B.Name"],
            aggregates=[AggregateSpec("s", sum_("A.Val"))],
        )
        assert analyze_query(db, query) == []

    def test_quickstart_sql(self):
        script = (
            "CREATE TABLE Department (DeptID INTEGER PRIMARY KEY, "
            "Name VARCHAR(30));"
            "CREATE TABLE Employee (EmpID INTEGER PRIMARY KEY, "
            "LastName VARCHAR(30) NOT NULL, FirstName VARCHAR(30), "
            "DeptID INTEGER REFERENCES Department (DeptID));"
            "SELECT D.DeptID, D.Name, COUNT(E.EmpID) AS headcount "
            "FROM Employee E, Department D WHERE E.DeptID = D.DeptID "
            "GROUP BY D.DeptID, D.Name;"
        )
        report = lint_sql(script)
        assert report.ok, report.render()


class TestInfoNotesAreBounded:
    def test_seed_plans_have_no_warnings_even_at_info(self, example1_db, example1_query):
        # INFO notes (N302 nullable-equality) may fire on seed queries; the
        # guarantee is that nothing at WARNING or above does.
        diagnostics = analyze_query(
            example1_db, example1_query, min_severity=Severity.INFO
        )
        assert all(d.severity < Severity.WARNING for d in diagnostics)
