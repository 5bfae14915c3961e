"""JSON lint output and the rewrite-auditing lint path."""

from __future__ import annotations

import io
import json

from repro.analysis.diagnostics import Severity
from repro.lint import lint_sql, lint_workloads
from repro.cli import _lint_command

CLEAN_SCRIPT = """\
CREATE TABLE Department (DeptID INTEGER PRIMARY KEY, Name VARCHAR(30));
CREATE TABLE Employee (
  EmpID INTEGER PRIMARY KEY,
  Name VARCHAR(30),
  DeptID INTEGER);

SELECT E.DeptID, COUNT(E.EmpID) AS n
FROM Employee E
GROUP BY E.DeptID
HAVING E.DeptID = 1;
"""

BROKEN_SCRIPT = """\
CREATE TABLE T (A INTEGER PRIMARY KEY, B INTEGER);

SELECT T.A, T.Missing FROM T;
"""


class TestPayload:
    def test_payload_shape_and_stable_codes(self):
        report = lint_sql(BROKEN_SCRIPT, path="broken.sql")
        payload = report.to_payload()
        assert payload["ok"] is False
        assert payload["file"] == "broken.sql"
        assert payload["statements"] == 2
        [diagnostic] = [
            d for d in payload["diagnostics"] if d["severity"] == "error"
        ]
        assert diagnostic["rule"] == "L601"
        assert diagnostic["file"] == "broken.sql"
        assert diagnostic["line"] == 3
        assert diagnostic["path"].startswith("statement[")
        json.dumps(payload)  # round-trips

    def test_rewrites_counter_in_payload(self):
        report = lint_sql(CLEAN_SCRIPT, rewrites=True)
        payload = report.to_payload()
        assert payload["ok"] is True
        assert payload["rewrites_certified"] >= 1

    def test_payload_omits_rewrites_when_not_requested(self):
        payload = lint_sql(CLEAN_SCRIPT).to_payload()
        assert "rewrites_certified" not in payload

    def test_workloads_lint_with_rewrites_is_clean(self):
        report = lint_workloads(min_severity=Severity.WARNING, rewrites=True)
        assert report.ok, report.render()
        assert report.rewrites_certified >= 1


class TestCli:
    def run(self, *arguments):
        out = io.StringIO()
        code = _lint_command(list(arguments), out)
        return code, out.getvalue()

    def test_format_json_emits_payload(self, tmp_path):
        script = tmp_path / "clean.sql"
        script.write_text(CLEAN_SCRIPT)
        code, output = self.run("--format", "json", "--rewrites", str(script))
        assert code == 0
        payload = json.loads(output)
        assert payload["ok"] is True
        assert payload["file"] == str(script)
        assert payload["rewrites_certified"] >= 1

    def test_format_json_equals_spelling(self, tmp_path):
        script = tmp_path / "clean.sql"
        script.write_text(CLEAN_SCRIPT)
        code, output = self.run("--format=json", str(script))
        assert code == 0
        assert json.loads(output)["ok"] is True

    def test_bad_format_value_is_usage_error(self, tmp_path):
        script = tmp_path / "clean.sql"
        script.write_text(CLEAN_SCRIPT)
        code, output = self.run("--format", "xml", str(script))
        assert code == 2

    def test_directory_argument_expands_to_sql_files(self, tmp_path):
        (tmp_path / "a.sql").write_text(CLEAN_SCRIPT)
        (tmp_path / "b.sql").write_text(BROKEN_SCRIPT)
        (tmp_path / "notes.txt").write_text("not sql")
        code, output = self.run("--format", "json", str(tmp_path))
        assert code == 1  # b.sql has an ERROR finding
        decoder = json.JSONDecoder()
        payloads, index = [], 0
        while index < len(output):
            payload, offset = decoder.raw_decode(output, index)
            payloads.append(payload)
            index = offset + 1
        assert [p["file"].endswith(("a.sql", "b.sql")) for p in payloads] == [
            True,
            True,
        ]
        assert [p["ok"] for p in payloads] == [True, False]

    def test_broken_script_sets_exit_code_and_line(self, tmp_path):
        script = tmp_path / "broken.sql"
        script.write_text(BROKEN_SCRIPT)
        code, output = self.run("--format", "json", str(script))
        assert code == 1
        payload = json.loads(output)
        lines = [d["line"] for d in payload["diagnostics"]]
        assert 3 in lines

    def test_repo_examples_and_workloads_lint_clean(self):
        code, output = self.run("--rewrites", "examples/", "workloads/")
        assert code == 0, output
        assert "certified rewrites analyzed" in output


class TestExplainAndShellRewrites:
    def test_explain_rewrites_lists_certificates(self):
        from repro.cli import _explain_command

        out = io.StringIO()
        code = _explain_command(
            ["--rewrites", "--certify", "examples/paper_demo.sql"], out
        )
        assert code == 0
        output = out.getvalue()
        assert "certified rewrites:" in output
        assert "rewrite projection_pruning at" in output

    def test_shell_rewrites_dot_command(self):
        from repro.cli import Shell

        out = io.StringIO()
        shell = Shell(out=out)
        shell.handle(".rewrites all")
        assert "predicate_pushdown" in out.getvalue()
        assert shell.session.executor_config.rewrites != ()
        shell.handle(".rewrites nonsense")
        assert "unknown rewrite rule" in out.getvalue()
        shell.handle(".rewrites none")
        assert shell.session.executor_config.rewrites == ()
