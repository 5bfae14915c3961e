"""Spill-to-disk parity: bounded memory must not change any answer.

Each test runs the same plan twice per backend — unlimited memory versus
a budget tight enough to force the blocking operator to disk — and
asserts the spilled execution reproduces the in-memory one *exactly*:
identical row sequence (not just multiset), identical ordering metadata,
identical per-operator stats signature, plus nonzero spill counters so a
silently-skipped spill can't pass.
"""

from dataclasses import replace

import pytest

from repro.algebra.ops import AggregateSpec, Apply, Group, Join, Relation, Sort
from repro.catalog import Column, Database, PrimaryKeyConstraint, TableSchema
from repro.engine.executor import Executor, ExecutorConfig
from tests.engine.differential import stats_signature
from repro.errors import MemoryLimitExceeded
from repro.expressions.builder import col, count, eq, sum_
from repro.sqltypes import INTEGER, VARCHAR


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.create_table(
        TableSchema(
            "D",
            [Column("k", INTEGER), Column("n", VARCHAR(8))],
            [PrimaryKeyConstraint(["k"])],
        )
    )
    database.create_table(
        TableSchema(
            "E",
            [Column("id", INTEGER), Column("k", INTEGER), Column("v", INTEGER)],
            [PrimaryKeyConstraint(["id"])],
        )
    )
    for k in range(1, 21):
        database.insert("D", [k, f"d{k}"])
    for i in range(1, 241):
        database.insert("E", [i, (i % 20) + 1, (i * 7) % 101])
    return database


JOIN_PLAN = Join(
    Relation("E", "E"), Relation("D", "D"), eq(col("E.k"), col("D.k"))
)
GROUP_PLAN = Apply(
    Group(Relation("E", "E"), ["E.k"]),
    [
        AggregateSpec("cnt", count(col("E.id"))),
        AggregateSpec("total", sum_(col("E.v"))),
    ],
)
SORT_PLAN = Sort(Relation("E", "E"), ["E.v", "E.id"], descending=[True, False])


def run_pair(db, plan, budget_bytes, **knobs):
    """(unbounded result+stats, budgeted result+stats) for one engine."""
    base = ExecutorConfig(**knobs)
    tight = replace(base, memory_limit_bytes=budget_bytes)
    return Executor(db, base).run(plan), Executor(db, tight).run(plan)


def assert_identical(free, spilled, exact=True):
    """``exact=False`` for vector hash grouping, whose in-memory kernel
    emits an unguaranteed group order (hash output carries no ordering);
    everywhere else the spilled run must be the identical permutation."""
    (free_result, free_stats), (spill_result, spill_stats) = free, spilled
    if exact:
        assert spill_result.rows == free_result.rows  # exact order
    else:
        assert spill_result.equals_multiset(free_result)
    assert spill_result.columns == free_result.columns
    assert spill_result.ordering == free_result.ordering
    assert stats_signature(spill_stats) == stats_signature(free_stats)
    assert spill_stats.spill_count > 0, "budget never actually spilled"
    assert spill_stats.spilled_rows > 0
    assert free_stats.spill_count == 0


@pytest.mark.parametrize("engine", ["row", "vector"])
class TestSpillParity:
    def test_grace_hash_join(self, db, engine):
        free, spilled = run_pair(
            db, JOIN_PLAN, 2048, engine=engine, join_algorithm="hash"
        )
        assert_identical(free, spilled)

    def test_sort_merge_join_external_runs(self, db, engine):
        free, spilled = run_pair(
            db, JOIN_PLAN, 2048, engine=engine, join_algorithm="sort_merge"
        )
        assert_identical(free, spilled)

    def test_hash_group_partitions(self, db, engine):
        free, spilled = run_pair(
            db, GROUP_PLAN, 2048, engine=engine, aggregation="hash"
        )
        assert_identical(free, spilled, exact=engine == "row")

    def test_sort_group_external_sort(self, db, engine):
        free, spilled = run_pair(
            db, GROUP_PLAN, 2048, engine=engine, aggregation="sort"
        )
        assert_identical(free, spilled)

    def test_order_by_external_sort(self, db, engine):
        free, spilled = run_pair(db, SORT_PLAN, 2048, engine=engine)
        assert_identical(free, spilled)

    def test_spill_disabled_raises_typed_error(self, db, engine):
        config = ExecutorConfig(
            engine=engine, memory_limit_bytes=2048, spill=False
        )
        with pytest.raises(MemoryLimitExceeded) as excinfo:
            Executor(db, config).run(JOIN_PLAN)
        assert "memory budget" in str(excinfo.value)


class TestCrossEngineSpill:
    def test_both_engines_make_identical_spill_decisions(self, db):
        results = {}
        for engine in ("row", "vector"):
            config = ExecutorConfig(engine=engine, memory_limit_bytes=2048)
            result, stats = Executor(db, config).run(GROUP_PLAN)
            results[engine] = (result, stats)
        row_result, row_stats = results["row"]
        vec_result, vec_stats = results["vector"]
        assert vec_result.rows == row_result.rows
        assert vec_result.ordering == row_result.ordering
        assert vec_stats.spill_count == row_stats.spill_count
        assert vec_stats.spilled_rows == row_stats.spilled_rows
