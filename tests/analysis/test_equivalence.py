"""The plan-equivalence checker (analysis.equivalence).

The checker must accept every certificate the rewriter issues — and
reject *forged* ones.  The forgeries below are deliberately-broken
rewrites: results-changing plans wrapped in an official-looking
certificate.  Each must be caught with its stable diagnostic code.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.algebra.ops import (
    AggregateSpec,
    GroupApply,
    Join,
    Product,
    Project,
    Relation,
    Select,
)
from repro.analysis.certificates import RuleCertificate
from repro.analysis.diagnostics import Severity
from repro.analysis.equivalence import verify_rewrite
from repro.expressions.builder import and_, col, count, eq, gt, is_null_, lit, or_
from repro.optimizer.rewrites import apply_rewrites
from repro.workloads.generators import populate_employee_department
from repro.workloads.schemas import make_employee_department


@pytest.fixture
def db():
    database = make_employee_department()
    populate_employee_department(database, n_employees=40, n_departments=5)
    return database


def errors(diagnostics):
    return [d for d in diagnostics if d.severity >= Severity.ERROR]


def rule_ids(diagnostics):
    return {d.rule_id for d in errors(diagnostics)}


def group_by_dept():
    return GroupApply(
        Relation("Employee", "E"),
        ["E.DeptID"],
        [AggregateSpec("n", count(col("E.EmpID")))],
    )


def pushdown_cert(db, predicate=None):
    plan = Select(
        group_by_dept(), predicate if predicate is not None else eq(col("E.DeptID"), lit(1))
    )
    outcome = apply_rewrites(plan, db, ("predicate_pushdown",))
    assert outcome.changed
    [cert] = outcome.certificates
    return cert


class TestGenuineCertificatesVerify:
    def test_pushdown(self, db):
        assert errors(verify_rewrite(db, pushdown_cert(db))) == []

    def test_reorder_and_pruning(self, db):
        plan = Select(
            GroupApply(
                Select(
                    Product(Relation("Employee", "E"), Relation("Department", "D")),
                    and_(
                        eq(col("E.DeptID"), col("D.DeptID")),
                        eq(col("D.DeptID"), lit(1)),
                    ),
                ),
                ["D.DeptID"],
                [AggregateSpec("n", count(col("E.EmpID")))],
            ),
            eq(col("D.DeptID"), lit(1)),
        )
        outcome = apply_rewrites(plan, db, "all")
        assert outcome.changed
        for cert in outcome.certificates:
            assert errors(verify_rewrite(db, cert)) == [], cert.rule


class TestForgedSchemaChange:
    def test_dropped_output_column_is_r700(self, db):
        before = Project(Relation("Employee", "E"), ["E.EmpID", "E.DeptID"])
        after = Project(Relation("Employee", "E"), ["E.EmpID"])
        forged = RuleCertificate(
            rule="projection_pruning",
            path="$",
            before=before,
            after=after,
            premises=(("pruned", "E.DeptID"),),
        )
        assert rule_ids(verify_rewrite(db, forged)) == {"R700"}


class TestForgedPushdown:
    def test_wrong_predicate_pushed_is_r701(self, db):
        cert = pushdown_cert(db)
        # The rewriter pushed DeptID = 1; forge an after-plan that pushes
        # DeptID = 2 instead (different groups survive).
        forged_after = GroupApply(
            Select(Relation("Employee", "E"), eq(col("E.DeptID"), lit(2))),
            ["E.DeptID"],
            [AggregateSpec("n", count(col("E.EmpID")))],
        )
        forged = replace(cert, after=forged_after)
        assert "R701" in rule_ids(verify_rewrite(db, forged))

    def test_non_key_predicate_pushed_is_rejected(self, db):
        cert = pushdown_cert(db)
        # Push a filter on a non-grouping column: conjunct accounting and
        # the keys-only guard both break.
        forged_after = GroupApply(
            Select(Relation("Employee", "E"), eq(col("E.EmpID"), lit(1))),
            ["E.DeptID"],
            [AggregateSpec("n", count(col("E.EmpID")))],
        )
        forged = replace(cert, after=forged_after)
        assert "R701" in rule_ids(verify_rewrite(db, forged))

    def test_forged_null_rejection_premise_is_r701(self, db):
        # NULL-preserving predicate: DeptID = 1 OR DeptID IS NULL.
        predicate = or_(
            eq(col("E.DeptID"), lit(1)), is_null_(col("E.DeptID"))
        )
        cert = pushdown_cert(db, predicate)
        tampered = tuple(
            (name, value.replace("preserving", "rejecting"))
            if name == "null-rejection"
            else (name, value)
            for name, value in cert.premises
        )
        assert tampered != cert.premises
        forged = replace(cert, premises=tampered)
        assert "R701" in rule_ids(verify_rewrite(db, forged))

    def test_aggregate_conjunct_pushed_is_rejected(self, db):
        plan = Select(
            group_by_dept(),
            and_(eq(col("E.DeptID"), lit(1)), gt(col("n"), lit(0))),
        )
        outcome = apply_rewrites(plan, db, ("predicate_pushdown",))
        [cert] = outcome.certificates
        # Forge an after-plan that pushed the HAVING conjunct too: the
        # residual disappears and n does not resolve below the group-by.
        forged_after = GroupApply(
            Select(
                Relation("Employee", "E"),
                and_(eq(col("E.DeptID"), lit(1)), gt(col("n"), lit(0))),
            ),
            ["E.DeptID"],
            [AggregateSpec("n", count(col("E.EmpID")))],
        )
        forged = replace(cert, after=forged_after)
        assert "R701" in rule_ids(verify_rewrite(db, forged))


class TestForgedPruning:
    def test_pruned_live_column_is_r702(self, db):
        before = Project(
            Join(
                Relation("Employee", "E"),
                Relation("Department", "D"),
                eq(col("E.DeptID"), col("D.DeptID")),
            ),
            ["E.EmpID"],
        )
        # Forge: prune E.DeptID below the join even though the join
        # condition reads it.
        after = Project(
            Join(
                Project(Relation("Employee", "E"), ["E.EmpID"]),
                Relation("Department", "D"),
                eq(col("E.DeptID"), col("D.DeptID")),
            ),
            ["E.EmpID"],
        )
        forged = RuleCertificate(
            rule="projection_pruning",
            path="$",
            before=before,
            after=after,
            premises=(("pruned", "E: kept [E.EmpID]"),),
        )
        assert rule_ids(verify_rewrite(db, forged)) >= {"R702"}


class TestForgedReorder:
    def reorder_cert(self, db):
        plan = GroupApply(
            Select(
                Product(Relation("Employee", "E"), Relation("Department", "D")),
                and_(
                    eq(col("E.DeptID"), col("D.DeptID")),
                    eq(col("D.DeptID"), lit(1)),
                ),
            ),
            ["D.DeptID"],
            [AggregateSpec("n", count(col("E.EmpID")))],
        )
        outcome = apply_rewrites(plan, db, ("join_reordering",))
        assert outcome.changed
        [cert] = outcome.certificates
        return cert

    def test_dropped_conjunct_is_r703(self, db):
        cert = self.reorder_cert(db)
        # Forge an after-plan whose region lost the DeptID = 1 filter.
        forged_after = GroupApply(
            Join(
                Relation("Department", "D"),
                Relation("Employee", "E"),
                eq(col("E.DeptID"), col("D.DeptID")),
            ),
            ["D.DeptID"],
            [AggregateSpec("n", count(col("E.EmpID")))],
        )
        forged = replace(cert, after=forged_after)
        assert "R703" in rule_ids(verify_rewrite(db, forged))

    def test_forged_cost_premise_is_r703(self, db):
        cert = self.reorder_cert(db)
        tampered = tuple(
            (name, "0.000001") if name == "cost-after" else (name, value)
            for name, value in cert.premises
        )
        forged = replace(cert, premises=tampered)
        assert "R703" in rule_ids(verify_rewrite(db, forged))

    def test_order_exposed_reorder_is_rejected(self, db):
        cert = self.reorder_cert(db)
        # Strip the insulating GroupApply from the after-plan: the same
        # region now sits at the root where row order is observable.
        # (Stripping the wrapper also changes the root schema, so the
        # schema gate R700 may catch it before the insulation gate R703 —
        # either way the forgery must not verify.)
        region = cert.after.child
        forged = replace(cert, after=region)
        ids = rule_ids(verify_rewrite(db, forged))
        assert ids and ids <= {"R700", "R703"}


class TestDiagnosticsQuality:
    def test_findings_carry_breadcrumbs_and_hints(self, db):
        cert = pushdown_cert(db)
        forged_after = GroupApply(
            Select(Relation("Employee", "E"), eq(col("E.DeptID"), lit(2))),
            ["E.DeptID"],
            [AggregateSpec("n", count(col("E.EmpID")))],
        )
        findings = errors(verify_rewrite(db, replace(cert, after=forged_after)))
        assert findings
        for diagnostic in findings:
            assert diagnostic.path.startswith("$")
            assert diagnostic.message
