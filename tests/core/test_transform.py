"""E1/E2 plan construction, Lemma 1, predicate expansion, validity gating."""

import pytest

from repro.algebra.ops import (
    AggregateSpec,
    Apply,
    Group,
    GroupApply,
    Join,
    Project,
    walk_plan,
)
from repro.analysis.verifier import transform
from repro.core.query_class import GroupByJoinQuery
from repro.core.transform import (
    build_eager_plan,
    build_standard_plan,
    check_transformable,
    expand_predicates,
    reverse,
)
from repro.engine.executor import execute
from repro.errors import TransformationError
from repro.expressions.builder import and_, col, count, eq, gt, lit, sum_
from repro.expressions.normalize import split_conjuncts
from repro.fd.derivation import TableBinding
from repro.main_theorem import evaluate_both


class TestPlanShapes:
    def test_standard_plan_groups_above_join(self, example1_query):
        plan = build_standard_plan(example1_query)
        # Root is the projection, below it the Apply/Group, below the join.
        assert isinstance(plan, Project)
        apply_node = plan.child
        assert isinstance(apply_node, Apply)
        assert isinstance(apply_node.child, Group)
        assert isinstance(apply_node.child.child, Join)

    def test_eager_plan_groups_below_join(self, example1_query):
        plan = build_eager_plan(example1_query)
        assert isinstance(plan, Project)
        join = plan.child
        assert isinstance(join, Join)
        # Left input is the aggregated R1 block.
        assert isinstance(join.left, Apply)
        assert isinstance(join.left.child, Group)
        assert join.left.child.grouping_columns == example1_query.ga1_plus

    def test_eager_r2_projection(self, example1_query):
        plan = build_eager_plan(example1_query)
        join = plan.child
        assert isinstance(join.right, Project)
        assert set(join.right.columns) == set(example1_query.ga2_plus)

    def test_lemma1_projection_irrelevant(self, example1_db, example1_query):
        """Lemma 1: E2 (with π^A[GA2+]) ≡ E2' (without it)."""
        with_projection, __ = execute(
            example1_db, build_eager_plan(example1_query, project_r2=True)
        )
        without_projection, __ = execute(
            example1_db, build_eager_plan(example1_query, project_r2=False)
        )
        assert with_projection.equals_multiset(without_projection)

    def test_plans_agree_on_example1(self, example1_db, example1_query):
        e1, e2 = evaluate_both(example1_db, example1_query)
        assert e1.equals_multiset(e2)

    def test_plans_agree_on_example3(self, printer_db, example3_query):
        e1, e2 = evaluate_both(printer_db, example3_query)
        assert e1.equals_multiset(e2)

    def test_distinct_final_projection(self, example1_db, example1_query):
        query = GroupByJoinQuery(
            example1_query.r1, example1_query.r2, example1_query.where,
            example1_query.ga1, example1_query.ga2, example1_query.aggregates,
            sga1=(), sga2=("D.Name",), distinct=True,
        )
        e1, e2 = evaluate_both(example1_db, query)
        assert e1.equals_multiset(e2)
        plan = build_standard_plan(query)
        assert plan.distinct


class TestTransformGate:
    def test_transform_returns_eager_plan(self, example1_db, example1_query):
        plan = transform(example1_db, example1_query)
        group_applies = [
            n for n in walk_plan(plan) if isinstance(n, (Apply, GroupApply))
        ]
        assert group_applies  # grouping is below the join

    def test_transform_raises_when_unprovable(self):
        from repro.catalog import Column, Database, TableSchema
        from repro.sqltypes import INTEGER

        db = Database()
        db.create_table(TableSchema("B", [Column("k", INTEGER)]))  # no key!
        db.create_table(
            TableSchema("A", [Column("k", INTEGER), Column("v", INTEGER)])
        )
        query = GroupByJoinQuery(
            r1=[TableBinding("A", "A")],
            r2=[TableBinding("B", "B")],
            where=eq(col("A.k"), col("B.k")),
            ga1=[], ga2=["B.k"],
            aggregates=[AggregateSpec("s", sum_("A.v"))],
        )
        with pytest.raises(TransformationError):
            transform(db, query)

    def test_check_transformable_reports_reason(self, example1_db, example1_query):
        decision = check_transformable(example1_db, example1_query)
        assert decision.valid
        assert decision.testfd is not None

    def test_reverse_gate(self, printer_db, example3_query):
        """Section 8: the reverse rewrite is valid for the Example 5 query."""
        plan = reverse(printer_db, example3_query)
        # The reverse produces the standard (group-after-join) plan.
        assert isinstance(plan, Project)
        assert isinstance(plan.child, Apply)


class TestPredicateExpansion:
    def test_dragon_constant_propagates(self, example3_query):
        """Example 3's closing remark: A.Machine = 'dragon' can be added."""
        expanded = expand_predicates(example3_query)
        conjuncts = set(map(str, split_conjuncts(expanded.where)))
        assert "A.Machine = 'dragon'" in conjuncts

    def test_expansion_preserves_results(self, printer_db, example3_query):
        expanded = expand_predicates(example3_query)
        original, __ = execute(printer_db, build_standard_plan(example3_query))
        rewritten, __ = execute(printer_db, build_standard_plan(expanded))
        assert original.equals_multiset(rewritten)
        eager, __ = execute(printer_db, build_eager_plan(expanded))
        assert original.equals_multiset(eager)

    def test_expansion_shrinks_eager_group_input(self, printer_db, example3_query):
        """The point of the expansion: the R1 block groups fewer rows."""
        __, stats_plain = execute(printer_db, build_eager_plan(example3_query))
        expanded = expand_predicates(example3_query)
        __, stats_expanded = execute(printer_db, build_eager_plan(expanded))
        assert (
            stats_expanded.groupby_input_rows() < stats_plain.groupby_input_rows()
        )

    def test_no_expansion_when_nothing_to_add(self, example1_query):
        assert expand_predicates(example1_query) is example1_query

    def test_idempotent(self, example3_query):
        once = expand_predicates(example3_query)
        twice = expand_predicates(once)
        assert set(map(str, split_conjuncts(once.where))) == set(
            map(str, split_conjuncts(twice.where))
        )
