"""``repro lint``: SQL-script linting and the CLI subcommands."""

from __future__ import annotations

import io

import pytest

from repro.analysis.diagnostics import Severity
from repro.lint import lint_sql, lint_workloads
from repro.cli import _explain_command, _lint_command, main

DEMO = "examples/paper_demo.sql"

GOOD_SCRIPT = """
CREATE TABLE Department (DeptID INTEGER PRIMARY KEY, Name VARCHAR(30));
CREATE TABLE Employee (
  EmpID INTEGER PRIMARY KEY,
  Name VARCHAR(30),
  DeptID INTEGER);
SELECT D.DeptID, D.Name, COUNT(E.EmpID) AS n
FROM Employee E, Department D
WHERE E.DeptID = D.DeptID
GROUP BY D.DeptID, D.Name;
"""

BROKEN_SCRIPT = """
CREATE TABLE T (A INTEGER PRIMARY KEY, B INTEGER);
SELECT T.A, T.Missing FROM T;
SELECT FROM nonsense;
SELECT T.B FROM T;
"""


class TestLintSql:
    def test_clean_script(self):
        report = lint_sql(GOOD_SCRIPT)
        assert report.ok
        assert report.diagnostics == []
        assert report.selects == 1
        assert report.statements == 3

    def test_paper_demo_is_clean(self):
        with open(DEMO) as handle:
            report = lint_sql(handle.read())
        assert report.ok, report.render()

    def test_broken_statements_get_l601_and_lint_continues(self):
        report = lint_sql(BROKEN_SCRIPT)
        assert not report.ok
        l601 = [d for d in report.diagnostics if d.rule_id == "L601"]
        assert len(l601) == 2  # the bad SELECTs; the good ones still linted
        assert report.statements == 4
        assert "statement[1]" in l601[0].path

    def test_statement_split_respects_strings_and_comments(self):
        script = (
            "CREATE TABLE T (A VARCHAR(10) PRIMARY KEY);\n"
            "-- a comment; with a semicolon\n"
            "INSERT INTO T VALUES ('x;y');\n"
            "SELECT T.A FROM T;\n"
        )
        report = lint_sql(script)
        assert report.ok, report.render()
        assert report.statements == 3

    def test_info_threshold_surfaces_n302(self):
        script = (
            "CREATE TABLE A (X INTEGER PRIMARY KEY, K INTEGER);\n"
            "CREATE TABLE B (Y INTEGER PRIMARY KEY, K INTEGER);\n"
            "SELECT A.X, B.Y FROM A, B WHERE A.K = B.K;\n"
        )
        assert lint_sql(script).ok
        noisy = lint_sql(script, min_severity=Severity.INFO)
        assert any(d.rule_id == "N302" for d in noisy.diagnostics)

    def test_render_mentions_counts(self):
        text = lint_sql(GOOD_SCRIPT).render()
        assert "3 statements" in text
        assert "clean" in text


class TestLintWorkloads:
    def test_builtin_workloads_are_clean(self):
        report = lint_workloads()
        assert report.ok, report.render()
        assert report.selects >= 3


class TestCliLint:
    def test_lint_clean_file_exits_zero(self):
        out = io.StringIO()
        assert _lint_command([DEMO], out) == 0
        assert "clean" in out.getvalue()

    def test_lint_broken_file_exits_one(self, tmp_path):
        bad = tmp_path / "bad.sql"
        bad.write_text(BROKEN_SCRIPT)
        out = io.StringIO()
        assert _lint_command([str(bad)], out) == 1
        assert "L601" in out.getvalue()

    def test_lint_missing_file_exits_two(self):
        assert _lint_command(["/no/such/file.sql"], io.StringIO()) == 2

    def test_lint_no_arguments_prints_usage(self):
        out = io.StringIO()
        assert _lint_command([], out) == 2
        assert "usage" in out.getvalue()

    def test_lint_rules_prints_catalogue(self):
        out = io.StringIO()
        assert _lint_command(["--rules"], out) == 0
        text = out.getvalue()
        for rule_id in ("A001", "G101", "G103", "N301", "T401", "C501", "L601"):
            assert rule_id in text

    def test_lint_workloads_flag(self):
        out = io.StringIO()
        assert _lint_command(["--workloads"], out) == 0
        assert "workloads" in out.getvalue()

    def test_main_dispatches_lint(self):
        assert main(["lint", DEMO]) == 0
        assert main(["lint", "--rules"]) == 0


class TestCliExplain:
    def test_explain_demo(self):
        out = io.StringIO()
        assert _explain_command([DEMO], out) == 0
        assert "strategy:" in out.getvalue()

    def test_explain_certify_prints_certificate(self):
        out = io.StringIO()
        assert _explain_command(["--certify", DEMO], out) == 0
        text = out.getvalue()
        assert "rewrite certificate" in text
        assert "FD1" in text and "FD2" in text

    def test_explain_no_arguments_prints_usage(self):
        out = io.StringIO()
        assert _explain_command([], out) == 2
        assert "usage" in out.getvalue()

    def test_main_dispatches_explain(self):
        assert main(["explain", DEMO]) == 0


class TestShellCertify:
    def test_dot_explain_certify(self):
        from repro.cli import Shell, feed_lines

        out = io.StringIO()
        shell = Shell(out=out)
        feed_lines(
            shell,
            [
                "CREATE TABLE D (K INTEGER PRIMARY KEY, N VARCHAR(10));",
                "CREATE TABLE E (I INTEGER PRIMARY KEY, K INTEGER);",
                "INSERT INTO D VALUES (1, 'a'), (2, 'b');",
                "INSERT INTO E VALUES (1, 1), (2, 1), (3, 2);",
                ".policy always_eager",
                ".explain --certify SELECT D.K, D.N, COUNT(E.I) AS n "
                "FROM E, D WHERE E.K = D.K GROUP BY D.K, D.N;",
            ],
        )
        text = out.getvalue()
        assert "rewrite certificate" in text
        assert "RowID(D)" in text
