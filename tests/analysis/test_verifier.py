"""The plan verifier: rule ids fire on hand-broken plans, stay silent on
seed plans."""

from __future__ import annotations

import pytest

from repro.algebra.ops import (
    AggregateSpec,
    Apply,
    Group,
    GroupApply,
    Join,
    Project,
    Relation,
    Select,
    Sort,
    fuse_group_apply,
)
from repro.analysis.diagnostics import Severity
from repro.analysis.verifier import analyze_plan, analyze_query, transform
from repro.core.transform import build_eager_plan, build_standard_plan
from repro.expressions.builder import col, count, eq, null, sum_
from repro.workloads.schemas import make_employee_department


@pytest.fixture
def db():
    return make_employee_department()


def rule_ids(diagnostics):
    return {d.rule_id for d in diagnostics}


def eager_shape(aggregates):
    """An eager-shaped plan (aggregate below join) built by hand, so it
    carries no rewrite certificate."""
    return Project(
        Join(
            Apply(Group(Relation("Employee", "E"), ["E.DeptID"]), aggregates),
            Relation("Department", "D"),
            eq(col("E.DeptID"), col("D.DeptID")),
        ),
        ["D.DeptID", "cnt"],
    )


class TestCleanPlans:
    def test_standard_plan_is_clean(self, db, example1_query):
        plan = build_standard_plan(example1_query)
        assert analyze_plan(plan, db) == []

    def test_certified_eager_plan_is_clean(self, db, example1_query):
        plan = transform(db, example1_query)
        assert analyze_plan(plan, db) == []

    def test_fused_plans_are_clean(self, db, example1_query):
        for plan in (
            build_standard_plan(example1_query),
            build_eager_plan(example1_query),
        ):
            fused = fuse_group_apply(plan)
            diagnostics = analyze_plan(fused, db)
            # The unfused eager plan would flag G103; the verifier is
            # checked against the certified path in TestPushdown.
            assert rule_ids(diagnostics) <= {"G103"}

    def test_analyze_query_clean_including_audit(self, db, example1_query):
        assert analyze_query(db, example1_query) == []


class TestScopeRules:
    def test_a001_unbound_projected_column(self, db):
        plan = Project(Relation("Employee", "E"), ["E.EmpID", "E.Salary"])
        diagnostics = analyze_plan(plan, db)
        assert rule_ids(diagnostics) == {"A001"}
        assert "E.Salary" in diagnostics[0].message

    def test_a001_unbound_column_in_condition(self, db):
        plan = Select(Relation("Employee", "E"), eq(col("E.Salary"), 3))
        assert "A001" in rule_ids(analyze_plan(plan, db))

    def test_a002_unknown_table(self, db):
        plan = Project(Relation("Salaries", "S"), ["S.Amount"])
        assert "A002" in rule_ids(analyze_plan(plan, db))

    def test_a003_duplicate_output_columns(self, db):
        plan = Join(
            Relation("Employee", "E"),
            Relation("Employee", "E"),
            None,
        )
        assert "A003" in rule_ids(analyze_plan(plan, db))

    def test_a004_ambiguous_bare_reference(self, db):
        joined = Join(
            Relation("Employee", "E"), Relation("Department", "D"), None
        )
        plan = Project(joined, ["DeptID"])
        assert "A004" in rule_ids(analyze_plan(plan, db))

    def test_sort_columns_checked(self, db):
        plan = Sort(Relation("Employee", "E"), ["E.Nope"])
        assert "A001" in rule_ids(analyze_plan(plan, db))


class TestGroupedDiscipline:
    def test_g101_apply_without_group(self, db):
        plan = Apply(
            Relation("Employee", "E"),
            [AggregateSpec("cnt", count("E.EmpID"))],
        )
        assert "G101" in rule_ids(analyze_plan(plan, db))

    def test_g102_unbound_grouping_column(self, db):
        plan = Group(Relation("Employee", "E"), ["E.Salary"])
        assert "G102" in rule_ids(analyze_plan(plan, db))

    def test_g102_not_duplicated_through_apply(self, db):
        plan = Apply(
            Group(Relation("Employee", "E"), ["E.Salary"]),
            [AggregateSpec("cnt", count("E.EmpID"))],
        )
        diagnostics = [
            d for d in analyze_plan(plan, db) if d.rule_id == "G102"
        ]
        assert len(diagnostics) == 1


class TestPushdown:
    def test_g103_uncertified_sum_below_join(self, db):
        plan = eager_shape([AggregateSpec("cnt", sum_("E.EmpID"))])
        diagnostics = analyze_plan(plan, db)
        assert "G103" in rule_ids(diagnostics)

    def test_g103_fires_for_count_and_avg_not_min_max(self, db):
        from repro.expressions.builder import max_, min_

        count_plan = eager_shape([AggregateSpec("cnt", count("E.EmpID"))])
        assert "G103" in rule_ids(analyze_plan(count_plan, db))
        minmax = eager_shape(
            [
                AggregateSpec("cnt", min_("E.EmpID")),
            ]
        )
        assert "G103" not in rule_ids(analyze_plan(minmax, db))

    def test_g103_suppressed_by_certificate(self, db, example1_query):
        plan = transform(db, example1_query)  # attaches the certificate
        assert "G103" not in rule_ids(analyze_plan(plan, db))

    def test_g103_suppressed_by_explicit_certificate(self, db, example1_query):
        from repro.analysis.certificates import issue_certificate
        from repro.core.transform import check_transformable

        decision = check_transformable(db, example1_query)
        certificate = issue_certificate(db, example1_query, decision.testfd)
        plan = build_eager_plan(example1_query)
        assert "G103" not in rule_ids(
            analyze_plan(plan, db, certificate=certificate)
        )

    def test_aggregate_above_join_is_fine(self, db, example1_query):
        plan = build_standard_plan(example1_query)
        assert "G103" not in rule_ids(analyze_plan(plan, db))


class TestNullSafetyAndTypes:
    def test_n301_null_literal_comparison(self, db):
        plan = Select(Relation("Employee", "E"), eq(col("E.DeptID"), null()))
        assert "N301" in rule_ids(analyze_plan(plan, db))

    def test_n302_nullable_equality_is_info(self, db):
        plan = Join(
            Relation("Employee", "E"),
            Relation("Employee", "F"),
            eq(col("E.DeptID"), col("F.DeptID")),
        )
        # Hidden at the default WARNING threshold...
        assert "N302" not in rule_ids(analyze_plan(plan, db))
        # ...but reported when asked for INFO notes.
        assert "N302" in rule_ids(
            analyze_plan(plan, db, min_severity=Severity.INFO)
        )

    def test_t401_cross_category_comparison(self, db):
        plan = Select(Relation("Employee", "E"), eq(col("E.LastName"), 3))
        assert "T401" in rule_ids(analyze_plan(plan, db))

    def test_t403_sum_over_string(self, db):
        plan = GroupApply(
            Relation("Employee", "E"),
            ["E.DeptID"],
            [AggregateSpec("s", sum_("E.LastName"))],
        )
        assert "T403" in rule_ids(analyze_plan(plan, db))

    def test_diagnostics_ordered_most_severe_first(self, db):
        plan = Select(
            Project(Relation("Employee", "E"), ["E.Nope"]),
            eq(col("E.DeptID"), null()),
        )
        diagnostics = analyze_plan(plan, db)
        severities = [d.severity for d in diagnostics]
        assert severities == sorted(severities, reverse=True)


class TestExecutorVerify:
    def test_verify_rejects_broken_plan(self, db):
        from repro.engine.executor import Executor, ExecutorConfig
        from repro.errors import PlanVerificationError

        plan = Project(Relation("Employee", "E"), ["E.Salary"])
        executor = Executor(db, ExecutorConfig(verify=True))
        with pytest.raises(PlanVerificationError) as excinfo:
            executor.run(plan)
        assert any(d.rule_id == "A001" for d in excinfo.value.diagnostics)

    def test_verify_accepts_good_plan(self, db, example1_query):
        from repro.engine.executor import Executor, ExecutorConfig
        from repro.workloads.generators import populate_employee_department

        populate_employee_department(db, n_employees=20, n_departments=4, seed=5)
        plan = transform(db, example1_query)
        result, __ = Executor(db, ExecutorConfig(verify=True)).run(plan)
        assert result.cardinality > 0

    def test_verify_off_by_default(self, db):
        from repro.engine.executor import Executor
        from repro.errors import PlanVerificationError, ReproError

        plan = Project(Relation("Employee", "E"), ["E.Salary"])
        try:
            Executor(db).run(plan)
        except PlanVerificationError:
            pytest.fail("verify ran without opt-in")
        except ReproError:
            pass  # runtime failure is fine; pre-flight must not have run
