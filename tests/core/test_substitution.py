"""Column substitution and partition search (Section 9)."""

import pytest

from repro.algebra.ops import AggregateSpec
from repro.catalog import Column, Database, PrimaryKeyConstraint, TableSchema
from repro.core.partition import (
    FlatQuery,
    default_partition,
    enumerate_partitions,
    to_group_by_join_query,
)
from repro.core.substitution import equivalent_queries, find_transformable
from repro.core.transform import build_standard_plan
from repro.engine.executor import execute
from repro.errors import TransformationError
from repro.expressions.builder import and_, col, count, eq, sum_
from repro.fd.derivation import TableBinding
from repro.main_theorem import evaluate_both
from repro.sqltypes import INTEGER, VARCHAR


def three_table_db():
    """A(id, k, v) -- B(k, name) -- C(k, w): B keyed, A/C fact-like."""
    db = Database()
    db.create_table(
        TableSchema(
            "B",
            [Column("k", INTEGER), Column("name", VARCHAR(10))],
            [PrimaryKeyConstraint(["k"])],
        )
    )
    db.create_table(
        TableSchema(
            "A",
            [Column("id", INTEGER), Column("k", INTEGER), Column("v", INTEGER)],
            [PrimaryKeyConstraint(["id"])],
        )
    )
    db.create_table(
        TableSchema(
            "C",
            [Column("id", INTEGER), Column("k", INTEGER), Column("w", INTEGER)],
            [PrimaryKeyConstraint(["id"])],
        )
    )
    for i in range(1, 5):
        db.insert("B", [i, f"b{i}"])
    for i in range(1, 9):
        db.insert("A", [i, (i % 4) + 1, i])
        db.insert("C", [i, (i % 4) + 1, i * 2])
    return db


def flat_two_table():
    return FlatQuery(
        bindings=[TableBinding("A", "A"), TableBinding("B", "B")],
        where=eq(col("A.k"), col("B.k")),
        group_by=("B.k", "B.name"),
        select_group_columns=("B.k", "B.name"),
        aggregates=(AggregateSpec("s", sum_("A.v")),),
    )


class TestPartitioning:
    def test_default_partition_by_aggregation_columns(self):
        r1, r2 = default_partition(flat_two_table())
        assert [b.alias for b in r1] == ["A"]
        assert [b.alias for b in r2] == ["B"]

    def test_no_partition_when_all_tables_aggregate(self):
        flat = FlatQuery(
            bindings=[TableBinding("A", "A"), TableBinding("B", "B")],
            where=eq(col("A.k"), col("B.k")),
            group_by=("B.k",),
            select_group_columns=("B.k",),
            aggregates=(
                AggregateSpec("s", sum_("A.v")),
                AggregateSpec("n", count("B.name")),
            ),
        )
        with pytest.raises(TransformationError):
            default_partition(flat)

    def test_count_star_defaults_to_non_grouping_tables(self):
        from repro.expressions.builder import count_star

        flat = FlatQuery(
            bindings=[TableBinding("A", "A"), TableBinding("B", "B")],
            where=eq(col("A.k"), col("B.k")),
            group_by=("B.k",),
            select_group_columns=("B.k",),
            aggregates=(AggregateSpec("n", count_star()),),
        )
        r1, r2 = default_partition(flat)
        assert [b.alias for b in r1] == ["A"]

    def test_enumerate_partitions_r1_superset(self):
        flat = FlatQuery(
            bindings=[
                TableBinding("A", "A"),
                TableBinding("B", "B"),
                TableBinding("C", "C"),
            ],
            where=and_(eq(col("A.k"), col("B.k")), eq(col("C.k"), col("B.k"))),
            group_by=("B.k",),
            select_group_columns=("B.k",),
            aggregates=(AggregateSpec("s", sum_("A.v")),),
        )
        partitions = list(enumerate_partitions(flat))
        r1_sets = [frozenset(b.alias for b in r1) for r1, __ in partitions]
        assert frozenset({"A"}) in r1_sets
        assert frozenset({"A", "C"}) in r1_sets
        # R2 never empty: {A, B, C} is not a valid R1.
        assert frozenset({"A", "B", "C"}) not in r1_sets

    def test_to_group_by_join_query_with_override(self):
        flat = flat_two_table()
        query = to_group_by_join_query(flat, r1=[TableBinding("A", "A")])
        assert query.ga2 == ("B.k", "B.name")

    def test_override_must_cover_aggregation_tables(self):
        flat = flat_two_table()
        with pytest.raises(TransformationError):
            to_group_by_join_query(flat, r1=[TableBinding("B", "B")])


class TestEquivalentQueries:
    def test_original_always_first(self):
        variants = list(equivalent_queries(flat_two_table()))
        assert variants[0] is flat_two_table() or variants[0].where is not None

    def test_substitution_moves_aggregation_column(self):
        """SUM(A.k) can be rewritten SUM(B.k) via the join equality."""
        flat = FlatQuery(
            bindings=[TableBinding("A", "A"), TableBinding("B", "B")],
            where=eq(col("A.k"), col("B.k")),
            group_by=("B.name",),
            select_group_columns=("B.name",),
            aggregates=(AggregateSpec("s", sum_("A.k")),),
        )
        variants = list(equivalent_queries(flat))
        assert len(variants) == 2
        assert "B.k" in str(variants[1].aggregates[0].expression)

    def test_variants_produce_equal_results(self):
        db = three_table_db()
        flat = FlatQuery(
            bindings=[TableBinding("A", "A"), TableBinding("B", "B")],
            where=eq(col("A.k"), col("B.k")),
            group_by=("B.name",),
            select_group_columns=("B.name",),
            aggregates=(AggregateSpec("s", sum_("A.k")),),
        )
        results = []
        for variant in equivalent_queries(flat):
            query = to_group_by_join_query(variant)
            result, __ = execute(db, build_standard_plan(query))
            results.append(result)
        for other in results[1:]:
            assert results[0].equals_multiset(other)


class TestFindTransformable:
    def test_direct_hit(self):
        db = three_table_db()
        query = find_transformable(db, flat_two_table())
        assert query is not None
        e1, e2 = evaluate_both(db, query)
        assert e1.equals_multiset(e2)

    def test_substitution_search_none_when_hopeless(self):
        """No keys anywhere: nothing to find."""
        db = Database()
        db.create_table(TableSchema("A", [Column("k", INTEGER), Column("v", INTEGER)]))
        db.create_table(TableSchema("B", [Column("k", INTEGER)]))
        flat = FlatQuery(
            bindings=[TableBinding("A", "A"), TableBinding("B", "B")],
            where=eq(col("A.k"), col("B.k")),
            group_by=("B.k",),
            select_group_columns=("B.k",),
            aggregates=(AggregateSpec("s", sum_("A.v")),),
        )
        assert find_transformable(db, flat) is None

    def test_partition_search_moves_table_into_r1(self):
        """Group by B.k with aggregates on A and a C table equi-joined on a
        *non-key* of C: with C in R2, FD2 fails; moving C into R1 fixes it."""
        db = three_table_db()
        flat = FlatQuery(
            bindings=[
                TableBinding("A", "A"),
                TableBinding("B", "B"),
                TableBinding("C", "C"),
            ],
            where=and_(eq(col("A.k"), col("B.k")), eq(col("C.k"), col("B.k"))),
            group_by=("B.k", "B.name"),
            select_group_columns=("B.k", "B.name"),
            aggregates=(AggregateSpec("s", sum_("A.v")),),
        )
        query = find_transformable(db, flat)
        assert query is not None
        assert "C" in {b.alias for b in query.r1}
        e1, e2 = evaluate_both(db, query)
        assert e1.equals_multiset(e2)
