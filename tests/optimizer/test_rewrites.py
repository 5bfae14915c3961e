"""The certified rewrite pass (optimizer.rewrites)."""

from __future__ import annotations

import pytest

from repro.algebra.ops import (
    AggregateSpec,
    GroupApply,
    Join,
    Product,
    Project,
    Relation,
    Select,
    Sort,
)
from repro.engine.executor import ExecutorConfig, execute
from repro.expressions.builder import and_, col, count, eq, gt, lit, sum_
from repro.optimizer.rewrites import (
    REWRITE_RULES,
    apply_rewrites,
    normalize_rewrites,
    rewrites_applied,
)
from repro.workloads.generators import populate_employee_department
from repro.workloads.schemas import make_employee_department


@pytest.fixture
def db():
    database = make_employee_department()
    populate_employee_department(database, n_employees=60, n_departments=6)
    return database


def group_by_dept():
    return GroupApply(
        Relation("Employee", "E"),
        ["E.DeptID"],
        [AggregateSpec("n", count(col("E.EmpID")))],
    )


def star_join():
    return Select(
        Product(Relation("Employee", "E"), Relation("Department", "D")),
        and_(
            eq(col("E.DeptID"), col("D.DeptID")),
            eq(col("D.DeptID"), lit(1)),
        ),
    )


class TestNormalizeRewrites:
    def test_all_and_none_spellings(self):
        assert normalize_rewrites("all") == REWRITE_RULES
        assert normalize_rewrites(None) == ()
        assert normalize_rewrites("") == ()
        assert normalize_rewrites("none") == ()
        assert normalize_rewrites("off") == ()

    def test_comma_string_and_canonical_order(self):
        spec = "projection_pruning, predicate_pushdown"
        assert normalize_rewrites(spec) == (
            "predicate_pushdown",
            "projection_pruning",
        )

    def test_iterable_dedup(self):
        names = ["predicate_pushdown", "predicate_pushdown"]
        assert normalize_rewrites(names) == ("predicate_pushdown",)

    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown rewrite rule"):
            normalize_rewrites("bogus")

    def test_executor_config_stays_in_sync(self):
        # One rule list, one parser: the optimizer re-exports what
        # ExecutorConfig.__post_init__ calls.
        import repro.engine.executor as executor_module
        from repro.algebra import rewrite_rules

        assert REWRITE_RULES is rewrite_rules.REWRITE_RULES
        assert normalize_rewrites is rewrite_rules.normalize_rewrites
        assert executor_module.normalize_rewrites is normalize_rewrites
        assert ExecutorConfig(rewrites="all").rewrites is REWRITE_RULES
        for rule in REWRITE_RULES:
            assert ExecutorConfig(rewrites=rule).rewrites == (rule,)
        with pytest.raises(ValueError):
            ExecutorConfig(rewrites="bogus")


class TestPredicatePushdown:
    def test_key_predicate_moves_below_group(self, db):
        plan = Select(group_by_dept(), eq(col("E.DeptID"), lit(1)))
        outcome = apply_rewrites(plan, db, ("predicate_pushdown",))
        assert outcome.changed
        [cert] = outcome.certificates
        assert cert.rule == "predicate_pushdown"
        # The group-by input is now the filtered scan.
        group = outcome.plan
        assert isinstance(group, GroupApply)
        assert isinstance(group.child, Select)
        assert cert.premise_values("pushed")
        assert not cert.premise_values("residual") or cert.premise_values(
            "residual"
        ) == ("",)

    def test_results_identical_after_pushdown(self, db):
        plan = Select(group_by_dept(), eq(col("E.DeptID"), lit(1)))
        outcome = apply_rewrites(plan, db, ("predicate_pushdown",))
        before, __ = execute(db, plan)
        after, __ = execute(db, outcome.plan)
        assert before.equals_multiset(after)

    def test_aggregate_conjunct_stays_as_residual(self, db):
        plan = Select(
            group_by_dept(),
            and_(eq(col("E.DeptID"), lit(1)), gt(col("n"), lit(0))),
        )
        outcome = apply_rewrites(plan, db, ("predicate_pushdown",))
        assert outcome.changed
        # HAVING n > 0 must stay above the group-by.
        assert isinstance(outcome.plan, Select)
        [cert] = outcome.certificates
        assert any("n > 0" in v for v in cert.premise_values("residual"))

    def test_pushdown_sees_through_projection_chain(self, db):
        plan = Select(
            Project(group_by_dept(), ["E.DeptID", "n"]),
            eq(col("E.DeptID"), lit(2)),
        )
        outcome = apply_rewrites(plan, db, ("predicate_pushdown",))
        assert outcome.changed
        before, __ = execute(db, plan)
        after, __ = execute(db, outcome.plan)
        assert before.equals_multiset(after)

    def test_pure_having_on_aggregate_is_untouched(self, db):
        plan = Select(group_by_dept(), gt(col("n"), lit(3)))
        outcome = apply_rewrites(plan, db, ("predicate_pushdown",))
        assert not outcome.changed

    def test_null_rejection_premise_recorded(self, db):
        plan = Select(group_by_dept(), eq(col("E.DeptID"), lit(1)))
        outcome = apply_rewrites(plan, db, ("predicate_pushdown",))
        [cert] = outcome.certificates
        values = cert.premise_values("null-rejection")
        assert values and any("rejecting" in v for v in values)


class TestJoinReordering:
    def test_reorder_fires_below_group_and_improves_cost(self, db):
        plan = GroupApply(
            star_join(),
            ["D.DeptID"],
            [AggregateSpec("n", count(col("E.EmpID")))],
        )
        outcome = apply_rewrites(plan, db, ("join_reordering",))
        assert outcome.changed
        [cert] = outcome.certificates
        assert cert.rule == "join_reordering"
        [cost_before] = cert.premise_values("cost-before")
        [cost_after] = cert.premise_values("cost-after")
        assert float(cost_after) < float(cost_before)
        assert cert.premise_values("order-insulation")
        before, __ = execute(db, plan)
        after, __ = execute(db, outcome.plan)
        assert before.equals_multiset(after)

    def test_no_reorder_in_order_sensitive_position(self, db):
        # The region is the plan root: no Project/GroupApply ancestor
        # insulates row order, so the rule must not fire.
        outcome = apply_rewrites(star_join(), db, ("join_reordering",))
        assert not outcome.changed

    def test_no_reorder_under_sort(self, db):
        plan = Sort(star_join(), ["E.EmpID"])
        outcome = apply_rewrites(plan, db, ("join_reordering",))
        assert not outcome.changed


class TestProjectionPruning:
    def test_scan_narrowed_below_join(self, db):
        plan = Project(
            GroupApply(
                Join(
                    Relation("Employee", "E"),
                    Relation("Department", "D"),
                    eq(col("E.DeptID"), col("D.DeptID")),
                ),
                ["D.DeptID"],
                [AggregateSpec("n", count(col("E.EmpID")))],
            ),
            ["D.DeptID", "n"],
        )
        outcome = apply_rewrites(plan, db, ("projection_pruning",))
        assert outcome.changed
        [cert] = outcome.certificates
        assert cert.rule == "projection_pruning"
        notes = cert.premise_values("pruned")
        assert any("E.LastName" in note for note in notes)
        before, __ = execute(db, plan)
        after, __ = execute(db, outcome.plan)
        assert before.equals_multiset(after)

    def test_no_pruning_when_everything_live(self, db):
        plan = Project(Relation("Department", "D"), ["D.DeptID", "D.Name"])
        outcome = apply_rewrites(plan, db, ("projection_pruning",))
        assert not outcome.changed


class TestApplyRewrites:
    def test_marker_prevents_double_application(self, db):
        plan = Select(group_by_dept(), eq(col("E.DeptID"), lit(1)))
        outcome = apply_rewrites(plan, db, "all")
        assert rewrites_applied(outcome.plan) == REWRITE_RULES
        assert rewrites_applied(plan) is None

    def test_certificates_chain_before_after(self, db):
        plan = Select(
            GroupApply(
                star_join(),
                ["D.DeptID"],
                [AggregateSpec("n", count(col("E.EmpID")))],
            ),
            eq(col("D.DeptID"), lit(1)),
        )
        outcome = apply_rewrites(plan, db, "all")
        assert len(outcome.certificates) >= 2
        for first, second in zip(outcome.certificates, outcome.certificates[1:]):
            assert first.after == second.before

    def test_executor_config_end_to_end(self, db):
        plan = Select(
            GroupApply(
                star_join(),
                ["D.DeptID"],
                [AggregateSpec("n", count(col("E.EmpID")))],
            ),
            eq(col("D.DeptID"), lit(1)),
        )
        base, __ = execute(db, plan)
        for engine in ("row", "vector"):
            rewritten, __ = execute(
                db, plan, ExecutorConfig(engine=engine, rewrites="all")
            )
            assert base.equals_multiset(rewritten)

    def test_disabled_pass_is_identity(self, db):
        plan = Select(group_by_dept(), eq(col("E.DeptID"), lit(1)))
        outcome = apply_rewrites(plan, db, ())
        assert not outcome.changed

    def test_to_dict_is_json_ready(self, db):
        import json

        plan = Select(group_by_dept(), eq(col("E.DeptID"), lit(1)))
        outcome = apply_rewrites(plan, db, "all")
        for cert in outcome.certificates:
            payload = cert.to_dict()
            json.dumps(payload)
            assert payload["rule"] in REWRITE_RULES
            assert payload["path"].startswith("$")
