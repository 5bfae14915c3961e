"""One front half: a statement becomes its plan in ``plan_statement``, an
eager plan becomes licensed in ``certify``, a plan becomes runnable in
``prepare_plan`` — and the session, the lint driver, ``transform()`` and
``Executor.run`` are callers of those three, not second spellings.

The regression tests here failed when the session and the lint driver each
built their own plans: lint missed the HAVING fold the planner does, rewrote
a plan the session never runs, and the session ran an eager plan whose
certificate nobody had audited.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro.core.transform as core_transform
import repro.lint as lint_module
import repro.statement as statement_module
from repro.algebra.ops import fuse_group_apply
from repro.analysis import verifier
from repro.analysis.certificates import get_certificate
from repro.engine.executor import Executor, ExecutorConfig
from repro.errors import TransformationError
from repro.lint import lint_sql
from repro.parser.ast_nodes import SelectStatement
from repro.parser.binder import execute_statement
from repro.parser.parser import parse_script
from repro.session import Session
from tests.test_layering import PACKAGES, TREE, package_of

REPO = Path(__file__).resolve().parent.parent.parent

#: Three hundred employees over three departments: enough for the cost
#: policy (the lint driver's) to pick the eager plan where it is valid.
SCHEMA = """
CREATE TABLE Dept (DeptID INTEGER PRIMARY KEY, Name VARCHAR(20));
CREATE TABLE Emp (EmpID INTEGER PRIMARY KEY, DeptID INTEGER, Salary INTEGER);
INSERT INTO Dept VALUES (0, 'D0'), (1, 'D1'), (2, 'D2');
INSERT INTO Emp VALUES %s;
""" % ", ".join(f"({e}, {e % 3}, {50 + e})" for e in range(300))
#: An aggregate-free HAVING over the keyed dimension: the planner folds it
#: into WHERE, TestFD then says yes, the eager plan is valid.
KEYED_HAVING = (
    "SELECT D.DeptID, D.Name, COUNT(E.EmpID) AS n FROM Emp E, Dept D "
    "WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name HAVING D.DeptID > 0"
)
#: Grouped by a non-key: no eager plan, with or without the HAVING.
NON_KEY_HAVING = (
    "SELECT D.Name, COUNT(E.EmpID) AS n FROM Emp E, Dept D "
    "WHERE E.DeptID = D.DeptID GROUP BY D.Name HAVING D.Name > 'D0'"
)


def session_over(script: str, **session_arguments) -> Session:
    session = Session(**session_arguments)
    for statement in parse_script(script):
        execute_statement(session.database, statement)
    return session


def spy(monkeypatch, module, name: str, calls: list):
    """Record every call of ``module.name`` (arguments and result)."""
    original = getattr(module, name)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(module, name, recording)


# -- lint and the session look at the same plans ------------------------------


@pytest.mark.parametrize(
    "query, strategy", [(KEYED_HAVING, "eager"), (NON_KEY_HAVING, "standard")]
)
def test_lint_analyzes_and_audits_the_eager_plan_exactly_when_it_would_run(
    monkeypatch, query, strategy
):
    report = session_over(SCHEMA, policy="always_eager").report(query)
    assert report.strategy == strategy

    analyzed, audits = [], []
    spy(monkeypatch, lint_module, "analyze_plan", analyzed)
    spy(monkeypatch, verifier, "audit_certificate", audits)
    lint = lint_sql(SCHEMA + query + ";")
    assert lint.ok and lint.selects == 1, lint.render()

    certified = [
        args[0] for args, __, __ in analyzed if get_certificate(args[0]) is not None
    ]
    if strategy == "eager":
        assert len(analyzed) == 2 and len(certified) == 1  # E1 and E2
        assert [result for __, __, result in audits] == [[]]
        assert fuse_group_apply(certified[0]) == report.plan
    else:
        assert len(analyzed) == 1 and certified == [] and audits == []


def test_lint_rewrites_the_plan_that_would_run(monkeypatch):
    """The certificates of ``lint --rewrites`` are the session's own: same
    rules over the same before/after plans, starting from the chosen plan —
    for KEYED_HAVING the eager one with the HAVING already folded, where the
    parent's lint rewrote ``build_standard_plan(query)`` and so certified a
    predicate pushdown no session ever performs."""
    session = session_over(
        SCHEMA, executor_config=ExecutorConfig(rewrites="all")
    )
    report = session.report(KEYED_HAVING)
    assert report.strategy == "eager" and report.rewrites

    planned = []
    spy(monkeypatch, lint_module, "plan_statement", planned)
    lint = lint_sql(SCHEMA + KEYED_HAVING + ";", rewrites=True)
    assert lint.ok, lint.render()
    [(__, __, lint_plan)] = planned
    assert lint_plan.rewrites == report.rewrites
    assert lint.rewrites_certified == len(report.rewrites)
    assert lint_plan.rewrites[0].before == fuse_group_apply(report.choice.eager)
    assert "predicate_pushdown" not in [c.rule for c in report.rewrites]


def script_paths():
    return sorted((REPO / "workloads").glob("*.sql")) + [
        REPO / "examples" / "paper_demo.sql"
    ]


@pytest.mark.parametrize("rewrites", [(), "all"], ids=["plain", "rewrites"])
@pytest.mark.parametrize("path", script_paths(), ids=lambda path: path.name)
def test_the_session_runs_a_plan_the_lint_driver_analyzed(
    monkeypatch, path, rewrites
):
    """Each SELECT is reported twice on one session: the second report is
    the warm case, served from the session's plan memo."""
    script = path.read_text()
    lint_planned, lint_analyzed = [], []
    spy(monkeypatch, lint_module, "plan_statement", lint_planned)
    spy(monkeypatch, lint_module, "analyze_plan", lint_analyzed)
    assert lint_sql(script, rewrites=bool(rewrites)).ok

    config = ExecutorConfig(rewrites=rewrites)
    session = Session(executor_config=config)
    session_planned, executed, reports = [], [], []
    for statement in parse_script(script):
        if not isinstance(statement, SelectStatement):
            execute_statement(session.database, statement)
            continue
        with monkeypatch.context() as watched:
            spy(watched, statement_module, "plan_statement", session_planned)
            spy(watched, Executor, "run_prepared", executed)
            session.report_statement(statement)
            warm = session.report_statement(statement)
        fresh = Session(session.database, executor_config=config)
        reports.append((warm, fresh.report_statement(statement)))

    # Both sides went through plan_statement, once per SELECT, and nothing
    # reached the executor that plan_statement had not returned.
    selects = len(reports)
    assert selects and len(lint_planned) == len(session_planned) == selects
    assert len(executed) == 2 * selects
    analyzed = [fuse_group_apply(args[0]) for args, __, __ in lint_analyzed]
    for (__, __, ours), (__, __, theirs), (cold_args, __, __), (
        warm_args, __, __
    ) in zip(session_planned, lint_planned, executed[::2], executed[1::2]):
        handed_to_the_executor = cold_args[1]  # args[0] is the Executor
        assert handed_to_the_executor is ours.plan
        assert warm_args[1] is ours.plan
        assert handed_to_the_executor == theirs.plan
        assert handed_to_the_executor in analyzed
    # What a hit runs is what a fresh session plans, with the same answer.
    for warm, fresh in reports:
        assert warm.plan == fresh.plan
        assert warm.result.rows == fresh.result.rows
        assert warm.strategy == fresh.strategy
        assert [c.rule for c in warm.rewrites] == [c.rule for c in fresh.rewrites]


def test_a_statement_united_with_itself_keeps_both_sides_statistics(star):
    """``q UNION ALL q``: the right side is a hit on the plan the left side
    stored, so both run the same plan objects.  The merged statistics still
    read as two runs of ``q``, operator by operator, as when each side
    planned its own."""
    config = ExecutorConfig(engine="vector", rewrites="all")
    alone = Session(star, executor_config=config).report(PER_CUSTOMER)
    united = Session(star, executor_config=config).report(
        f"{PER_CUSTOMER} UNION ALL {PER_CUSTOMER}"
    )
    once = [alone.stats.nodes[node] for node in alone.stats.order]
    assert [united.stats.nodes[node] for node in united.stats.order] == once * 2
    assert united.stats.total_work() == 2 * alone.stats.total_work()
    assert united.result.rows == alone.result.rows * 2


def test_an_in_subquery_re_plans_when_its_table_gains_a_row(monkeypatch, star):
    """The subquery's current values are part of the statement the memo
    keys on: a row added to its table re-plans the subquery (its table
    changed) and then the statement (its values did)."""
    query = (
        "SELECT C.CustID, C.Name, SUM(S.Amount) AS total "
        "FROM Sales S, Customer C WHERE S.CustID = C.CustID "
        "AND C.CustID IN (SELECT P.ProdID FROM Product P) "
        "GROUP BY C.CustID, C.Name"
    )
    session = Session(star)
    planned = []
    spy(monkeypatch, statement_module, "plan_statement", planned)
    assert session.report(query).result.rows == [(1, "Ann", 10)]
    star.table("Product").insert((2, "Ink", "office"))
    after = session.report(query)
    assert len(planned) == 4  # subquery and statement, before and after
    session.report(query)
    assert len(planned) == 4
    assert sorted(after.result.rows) == [(1, "Ann", 10), (2, "Bob", 50)]
    assert after.result.rows == Session(star).report(query).result.rows


# -- the eager plan is audited before it runs ---------------------------------

PER_SEGMENT = (  # star_sql's TestFD-no statement: Segment is not a key
    "SELECT C.Segment, SUM(S.Amount) AS total, COUNT(S.SaleID) AS n "
    "FROM Sales S, Customer C WHERE S.CustID = C.CustID GROUP BY C.Segment"
)
PER_CUSTOMER = (
    "SELECT C.CustID, C.Name, SUM(S.Amount) AS total "
    "FROM Sales S, Customer C WHERE S.CustID = C.CustID "
    "GROUP BY C.CustID, C.Name"
)


@pytest.mark.parametrize("policy", ["always_eager", "cost"])
def test_a_forged_testfd_yes_is_stopped_by_the_audit(monkeypatch, star, policy):
    """The "treat a non-key as a key" mutant: TestFD answers YES for a
    grouping that determines no key of Customer.  The checker's own
    ``fd.closure`` re-derivation is what refuses — before any row moves."""
    honest = core_transform.test_fd

    def forged(database, query, **options):
        return replace(honest(database, query, **options), decision=True)

    monkeypatch.setattr(core_transform, "test_fd", forged)
    ran = []
    spy(monkeypatch, Executor, "run_prepared", ran)
    session = Session(star, policy=policy)
    with pytest.raises(TransformationError) as refused:
        session.report(PER_SEGMENT)
    assert "C501" in str(refused.value)
    assert "FD2 does not re-derive" in str(refused.value)
    assert ran == []
    # The same forgery on a query whose certificate does stand changes nothing.
    assert session.report(PER_CUSTOMER).strategy in ("eager", "standard")


def test_one_report_issues_once_audits_once_and_builds_each_plan_once(
    monkeypatch, star
):
    calls = {
        name: []
        for name in (
            "issue_certificate", "audit_certificate",
            "build_standard_plan", "build_eager_plan",
        )
    }
    for name, recorded in calls.items():
        # Every module that bound the name, so no spelling escapes the count.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro.") and hasattr(
                module, name
            ):
                spy(monkeypatch, module, name, recorded)

    config = ExecutorConfig(engine="vector", rewrites="all", verify=True)
    report = Session(star, executor_config=config).report(PER_CUSTOMER)
    assert report.choice.decision.valid and report.certificate is not None
    assert {name: len(recorded) for name, recorded in calls.items()} == {
        "issue_certificate": 1,
        "audit_certificate": 1,
        "build_standard_plan": 1,
        "build_eager_plan": 1,
    }


# -- one spelling each --------------------------------------------------------


def callers(name: str):
    """(module, enclosing function) of every call of ``name`` under src/repro."""
    found = set()

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call):
                callee = child.func
                called = getattr(callee, "id", getattr(callee, "attr", None))
                if called == name:
                    found.add((module, function))
            visit(child, module, function)

    for module, path in TREE.items():
        visit(ast.parse(path.read_text()), module, None)
    return found


@pytest.mark.parametrize(
    "name, only_caller",
    [
        ("issue_certificate", ("repro.analysis.verifier", "certify")),
        ("audit_certificate", ("repro.analysis.verifier", "certify")),
        ("apply_configured_rewrites", ("repro.optimizer.prepare", "prepare_plan")),
        ("distribute_plan", ("repro.optimizer.prepare", "prepare_plan")),
    ],
)
def test_each_step_is_called_from_one_function(name, only_caller):
    assert callers(name) == {only_caller}


@pytest.mark.parametrize(
    "name, home",
    [
        ("to_group_by_join_query", "repro.core"),
        ("merge_aggregated_view", "repro.parser"),
        ("build_join_tree", "repro.core"),
    ],
)
def test_statements_become_plans_in_one_module(name, home):
    """Outside the package that defines it, each builder of the front half
    has one calling module — there is no second spelling to drift."""
    outside = {
        module for module, __ in callers(name)
        if package_of(module, PACKAGES) != home
    }
    assert outside == {"repro.statement"}


def test_the_old_spellings_are_gone():
    session_source = TREE["repro.session"].read_text()
    for name in (
        "_run_group_query", "_run_flat_standard", "_run_ungrouped",
        "_maybe_rewrite", "_run_plan",
    ):
        assert name not in session_source
    assert "repro.analysis.linter" not in TREE
    import repro.analysis

    assert not {"lint_sql", "lint_workloads", "LintReport"} & set(dir(repro.analysis))
