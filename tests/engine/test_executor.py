"""Executor: plan evaluation, configuration knobs, statistics recording."""

import pytest

from repro.algebra.ops import (
    AggregateSpec,
    Apply,
    Group,
    Join,
    Product,
    Project,
    Relation,
    Select,
)
from repro.catalog import Column, Database, PrimaryKeyConstraint, TableSchema
from repro.engine.dataset import rowid_column
from repro.engine.executor import Executor, ExecutorConfig, execute
from repro.expressions.builder import col, count, eq, gt, host
from repro.sqltypes import INTEGER, VARCHAR
from repro.sqltypes.values import NULL


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        TableSchema(
            "T",
            [Column("id", INTEGER), Column("g", INTEGER), Column("v", INTEGER)],
            [PrimaryKeyConstraint(["id"])],
        )
    )
    database.create_table(
        TableSchema(
            "S",
            [Column("g", INTEGER), Column("name", VARCHAR(10))],
            [PrimaryKeyConstraint(["g"])],
        )
    )
    for i in range(1, 7):
        database.insert("T", [i, (i % 2) + 1, i * 10])
    database.insert("S", [1, "one"])
    database.insert("S", [2, "two"])
    return database


class TestBasicOperators:
    def test_scan(self, db):
        result, stats = execute(db, Relation("T", "T"))
        assert result.cardinality == 6
        assert result.columns[0] == "T.id"
        assert stats.by_kind("scan")[0].output_cardinality == 6

    def test_select(self, db):
        plan = Select(Relation("T", "T"), gt(col("T.v"), 30))
        result, __ = execute(db, plan)
        assert result.cardinality == 3

    def test_project_all_keeps_duplicates(self, db):
        plan = Project(Relation("T", "T"), ["T.g"])
        result, __ = execute(db, plan)
        assert result.cardinality == 6

    def test_project_distinct(self, db):
        plan = Project(Relation("T", "T"), ["T.g"], distinct=True)
        result, __ = execute(db, plan)
        assert result.cardinality == 2

    def test_join(self, db):
        plan = Join(Relation("T", "T"), Relation("S", "S"), eq(col("T.g"), col("S.g")))
        result, __ = execute(db, plan)
        assert result.cardinality == 6
        assert "S.name" in result.columns

    def test_product(self, db):
        result, __ = execute(db, Product(Relation("T", "T"), Relation("S", "S")))
        assert result.cardinality == 12

    def test_group_apply(self, db):
        plan = Apply(
            Group(Relation("T", "T"), ["T.g"]),
            [AggregateSpec("n", count("T.id"))],
        )
        result, __ = execute(db, plan)
        assert result.cardinality == 2
        assert sorted(row[1] for row in result.rows) == [3, 3]

    def test_bare_group_sorts(self, db):
        result, __ = execute(db, Group(Relation("T", "T"), ["T.v"]))
        values = [row[2] for row in result.rows]
        assert values == sorted(values)


class TestConfig:
    def test_join_algorithms_agree(self, db):
        plan = Join(Relation("T", "T"), Relation("S", "S"), eq(col("T.g"), col("S.g")))
        results = []
        for algorithm in ("nested_loop", "hash", "sort_merge", "auto"):
            result, __ = execute(db, plan, ExecutorConfig(join_algorithm=algorithm))
            results.append(result)
        for other in results[1:]:
            assert results[0].equals_multiset(other)

    def test_aggregation_strategies_agree(self, db):
        plan = Apply(
            Group(Relation("T", "T"), ["T.g"]),
            [AggregateSpec("n", count("T.id"))],
        )
        hashed, __ = execute(db, plan, ExecutorConfig(aggregation="hash"))
        sorted_, __ = execute(db, plan, ExecutorConfig(aggregation="sort"))
        assert hashed.equals_multiset(sorted_)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ExecutorConfig(join_algorithm="quantum")
        with pytest.raises(ValueError):
            ExecutorConfig(aggregation="psychic")

    def test_expose_rowids(self, db):
        result, __ = execute(db, Relation("T", "T"), ExecutorConfig(expose_rowids=True))
        assert rowid_column("T") in result.columns
        rowids = [row[result.index_of(rowid_column("T"))] for row in result.rows]
        assert len(set(rowids)) == 6

    def test_host_variables(self, db):
        plan = Select(Relation("T", "T"), eq(col("T.g"), host("wanted")))
        executor = Executor(db, params={"wanted": 1})
        result, __ = executor.run(plan)
        assert result.cardinality == 3


class TestStats:
    def test_join_input_sizes(self, db):
        plan = Join(Relation("T", "T"), Relation("S", "S"), eq(col("T.g"), col("S.g")))
        __, stats = execute(db, plan)
        assert stats.join_input_sizes() == [(6, 2)]

    def test_groupby_input_rows(self, db):
        plan = Apply(
            Group(
                Join(Relation("T", "T"), Relation("S", "S"), eq(col("T.g"), col("S.g"))),
                ["S.g"],
            ),
            [AggregateSpec("n", count("T.id"))],
        )
        __, stats = execute(db, plan)
        assert stats.groupby_input_rows() == 6

    def test_summary_mentions_total(self, db):
        __, stats = execute(db, Relation("T", "T"))
        assert "total work" in stats.summary()

    def test_cardinality_map_feeds_display(self, db):
        from repro.algebra.display import render_annotated
        from repro.algebra.ops import fuse_group_apply

        plan = fuse_group_apply(
            Select(Relation("T", "T"), gt(col("T.v"), 30))
        )
        __, stats = execute(db, plan)
        text = render_annotated(plan, stats.cardinality_map())
        assert "->" in text
