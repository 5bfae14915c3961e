"""Rewrite certificates: issue, audit, tamper-detection, attachment."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.certificates import (
    RewriteCertificate,
    attach_certificate,
    audit_certificate,
    get_certificate,
    issue_certificate,
)
from repro.analysis.verifier import transform
from repro.core.transform import build_eager_plan, check_transformable
from repro.errors import TransformationError
from repro.workloads.schemas import make_employee_department


@pytest.fixture
def db():
    return make_employee_department()


@pytest.fixture
def certified(db, example1_query):
    decision = check_transformable(db, example1_query)
    assert decision.valid
    return issue_certificate(db, example1_query, decision.testfd)


def rule_ids(diagnostics):
    return {d.rule_id for d in diagnostics}


class TestIssue:
    def test_records_partition_and_grouping(self, certified):
        assert certified.r1 == (("E", "Employee"),)
        assert certified.r2 == (("D", "Department"),)
        assert certified.ga2 == ("D.DeptID", "D.Name")
        assert certified.ga1_plus == ("E.DeptID",)

    def test_records_catalog_keys(self, certified):
        assert certified.keys_for("E") == (("E.EmpID",),)
        assert certified.keys_for("D") == (("D.DeptID",),)

    def test_records_closure_per_component(self, certified):
        (component,) = certified.components
        assert set(component.seed) == {"D.DeptID", "D.Name"}
        assert component.equalities == (("E.DeptID", "D.DeptID"),)
        assert "E.DeptID" in component.closure

    def test_records_matching_e1_e2_schemas(self, certified):
        assert certified.e1_columns == certified.e2_columns
        assert certified.e1_columns == ("D.DeptID", "D.Name", "cnt")

    def test_fd_renderings(self, certified):
        assert "RowID(D)" in certified.fd2
        assert "E.DeptID" in certified.fd1

    def test_to_dict_is_json_serializable(self, certified):
        import json

        payload = json.dumps(certified.to_dict())
        assert "RowID(D)" in payload

    def test_render_mentions_theorem(self, certified):
        text = certified.render()
        assert "Theorem 4" in text
        assert "FD1" in text and "FD2" in text


class TestAudit:
    def test_valid_certificate_passes(self, db, example1_query, certified):
        assert audit_certificate(db, example1_query, certified) == []

    def test_tampered_closure_fails_c501(self, db, example1_query, certified):
        (component,) = certified.components
        forged = replace(
            component, closure=component.closure + ("D.Forged",)
        )
        tampered = replace(certified, components=(forged,))
        diagnostics = audit_certificate(db, example1_query, tampered)
        assert "C501" in rule_ids(diagnostics)

    def test_dropped_equality_fails_c501(self, db, example1_query, certified):
        # Without the join equality the closure cannot re-derive.
        (component,) = certified.components
        forged = replace(component, equalities=())
        tampered = replace(certified, components=(forged,))
        diagnostics = audit_certificate(db, example1_query, tampered)
        assert "C501" in rule_ids(diagnostics)

    def test_forged_keys_fail_c501(self, db, example1_query, certified):
        tampered = replace(
            certified,
            keys_by_alias=(
                (("D", (("D.Name",),))),
                (("E", (("E.EmpID",),))),
            ),
        )
        diagnostics = audit_certificate(db, example1_query, tampered)
        assert "C501" in rule_ids(diagnostics)

    def test_wrong_tables_fail_c501(self, db, example1_query, certified):
        tampered = replace(certified, r2=(("D", "Employee"),))
        diagnostics = audit_certificate(db, example1_query, tampered)
        assert "C501" in rule_ids(diagnostics)

    def test_wrong_grouping_fails_c501(self, db, example1_query, certified):
        tampered = replace(certified, ga2=("D.DeptID",))
        diagnostics = audit_certificate(db, example1_query, tampered)
        assert "C501" in rule_ids(diagnostics)

    def test_stale_schema_fails_c501(self, db, example1_query, certified):
        # Recorded E1/E2 schemas no longer match the rebuilt plans.
        tampered = replace(certified, e1_columns=("D.DeptID", "ghost"))
        diagnostics = audit_certificate(db, example1_query, tampered)
        assert "C501" in rule_ids(diagnostics)

    def test_e1_e2_divergence_fails_c502(
        self, db, example1_query, certified, monkeypatch
    ):
        # The plan builders cannot diverge for a well-formed query, so
        # simulate a builder bug: the eager plan silently loses a column.
        import importlib

        from repro.algebra.ops import Project

        # audit_certificate's own binding of the builder is what it calls
        transform_mod = importlib.import_module("repro.analysis.certificates")
        original = transform_mod.build_eager_plan

        def broken(query, project_r2=True):
            plan = original(query, project_r2)
            assert isinstance(plan, Project)
            return Project(plan.child, plan.columns[:-1], plan.distinct)

        monkeypatch.setattr(transform_mod, "build_eager_plan", broken)
        diagnostics = audit_certificate(db, example1_query, certified)
        assert "C502" in rule_ids(diagnostics)


class TestAttachment:
    def test_attach_and_get(self, db, example1_query, certified):
        plan = build_eager_plan(example1_query)
        assert get_certificate(plan) is None
        attach_certificate(plan, certified)
        assert get_certificate(plan) is certified

    def test_attachment_does_not_change_equality(self, db, example1_query, certified):
        plain = build_eager_plan(example1_query)
        carrying = build_eager_plan(example1_query)
        attach_certificate(carrying, certified)
        assert plain == carrying

    def test_transform_attaches_certificate(self, db, example1_query):
        plan = transform(db, example1_query)
        certificate = get_certificate(plan)
        assert certificate is not None
        assert audit_certificate(db, example1_query, certificate) == []

    def test_transform_still_raises_on_invalid(self, example1_query):
        from repro.catalog import (
            Column,
            Database,
            PrimaryKeyConstraint,
            TableSchema,
        )
        from repro.sqltypes import INTEGER, VARCHAR

        # Department without a key: FD2 can no longer be established.
        no_key_db = Database()
        no_key_db.create_table(
            TableSchema(
                "Department",
                [Column("DeptID", INTEGER), Column("Name", VARCHAR(30))],
            )
        )
        no_key_db.create_table(
            TableSchema(
                "Employee",
                [Column("EmpID", INTEGER), Column("DeptID", INTEGER)],
                [PrimaryKeyConstraint(["EmpID"])],
            )
        )
        with pytest.raises(TransformationError):
            transform(no_key_db, example1_query)


class TestPlannerAndSession:
    def test_planner_attaches_certificate_to_eager_plan(self, db, example1_query):
        from repro.optimizer.planner import Planner
        from repro.workloads.generators import populate_employee_department

        populate_employee_department(db, n_employees=60, n_departments=6, seed=2)
        choice = Planner(db, policy="always_eager").choose(example1_query)
        assert choice.strategy == "eager"
        assert get_certificate(choice.plan) is not None

    def test_session_report_exposes_certificate(self):
        from repro.session import Session

        session = Session()
        session.execute(
            "CREATE TABLE Department (DeptID INTEGER PRIMARY KEY, "
            "Name VARCHAR(30))"
        )
        session.execute(
            "CREATE TABLE Employee (EmpID INTEGER PRIMARY KEY, "
            "Name VARCHAR(30), DeptID INTEGER)"
        )
        for dept in (1, 2):
            session.execute(f"INSERT INTO Department VALUES ({dept}, 'D{dept}')")
        for emp in range(1, 9):
            session.execute(
                f"INSERT INTO Employee VALUES ({emp}, 'E{emp}', {emp % 2 + 1})"
            )
        session.policy = "always_eager"
        report = session.report(
            "SELECT D.DeptID, D.Name, COUNT(E.EmpID) AS n "
            "FROM Employee E, Department D "
            "WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name"
        )
        assert report.strategy == "eager"
        assert report.certificate is not None
        explained = report.explain(certify=True)
        assert "rewrite certificate" in explained
        assert "FD2" in explained

    def test_explain_certify_without_certificate(self):
        from repro.session import Session

        session = Session()
        session.execute("CREATE TABLE T (A INTEGER PRIMARY KEY, B INTEGER)")
        session.execute("INSERT INTO T VALUES (1, 2)")
        report = session.report("SELECT T.A, T.B FROM T")
        assert report.certificate is None
        assert "no rewrite certificate" in report.explain(certify=True)
