"""R1/R2 partitioning of a flat query (Section 3)."""

import pytest

from repro.algebra.ops import AggregateSpec
from repro.core.partition import (
    FlatQuery,
    default_partition,
    to_group_by_join_query,
)
from repro.errors import TransformationError
from repro.expressions.builder import col, count, eq, sum_
from repro.fd.derivation import TableBinding


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

    def test_to_group_by_join_query_with_override(self):
        flat = flat_two_table()
        query = to_group_by_join_query(flat, r1=[TableBinding("A", "A")])
        assert query.ga2 == ("B.k", "B.name")

    def test_override_must_cover_aggregation_tables(self):
        flat = flat_two_table()
        with pytest.raises(TransformationError):
            to_group_by_join_query(flat, r1=[TableBinding("B", "B")])
