"""NaN is one group, whatever object holds it.

``=ⁿ`` puts every NaN — a float NaN or a quiet ``Decimal`` NaN, minted
fresh per row or shared by all of them — in one group, as PostgreSQL
does.  Python cannot give that for free: ``nan == nan`` is false, and a
dict or a tuple comparison checks identity first, so a shared NaN object
collides with itself and fresh ones never do.  Each engine × morsel ×
shard × aggregation cell below must see exactly one NaN group, holding
every NaN row.  Sorting (sort-based grouping, ORDER BY) orders NaN above
every number, as PostgreSQL does: ``<`` against a NaN is always false, so
a raw sort would scatter NaN and non-NaN keys alike.  ``=`` agrees: NaN =
NaN is TRUE in every join algorithm on both engines, fresh or shared.  So
do ``<``, ``<=``, ``>``, ``>=`` and ``BETWEEN``: they order a float or a
Decimal NaN as the sort does.
"""

from __future__ import annotations

import math
from decimal import Decimal

import pytest

import repro.engine.joins as joins
from repro.catalog.catalog import Database
from repro.catalog.schema import Column, TableSchema
from repro.engine.executor import ExecutorConfig
from repro.session import Session
from repro.sqltypes.datatypes import FLOAT, INTEGER, DecimalType
from repro.sqltypes.values import (
    NULL,
    group_key,
    sort_key,
    sql_compare_eq,
    sql_compare_ne,
)
from repro.storage.partition import PartitionSpec, stable_shard

ROWS = 60
SHARED = float("nan")


def _nan_rows(shared: bool):
    """``(k, v)`` rows: every fourth ``k`` is NaN, the rest 0.0 / 1.0 / 2.0."""
    for i in range(ROWS):
        nan = SHARED if shared else float("nan")
        yield (nan if i % 4 == 0 else float(i % 3)), i


def _database(shared: bool, shards: int) -> Database:
    db = Database()
    db.create_table(TableSchema("T", [Column("k", FLOAT), Column("v", INTEGER)]))
    db.create_table(TableSchema("D", [Column("id", INTEGER), Column("tag", INTEGER)]))
    for k, v in _nan_rows(shared):
        db.table("T").insert([k, v])
    for i in range(ROWS):
        db.table("D").insert([i, i % 2])
    if shards > 1:
        db.set_partitioning("T", PartitionSpec("hash", "k", shards))
    return db


QUERIES = {
    "scan": "SELECT T.k, COUNT(*) AS n, SUM(T.v) AS s FROM T GROUP BY T.k",
    "join": (
        "SELECT T.k, COUNT(*) AS n, SUM(T.v) AS s FROM T, D "
        "WHERE T.v = D.id GROUP BY T.k"
    ),
    "ordered": (
        "SELECT T.k, COUNT(*) AS n, SUM(T.v) AS s FROM T GROUP BY T.k "
        "ORDER BY T.k"
    ),
}
NAN_ROWS = [v for k, v in _nan_rows(shared=False) if k != k]
#: The aggregation axis: hash grouping keeps the bare query ids.
CASES = [
    pytest.param(aggregation, query, id=f"{prefix}{query}")
    for aggregation, prefix in (("hash", ""), ("sort", "sort-"))
    for query in sorted(QUERIES)
]


@pytest.mark.parametrize("aggregation, query", CASES)
@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("morsel_size", [1, 7, 1024, None], ids=str)
@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
def test_every_nan_is_one_group(shared, morsel_size, shards, aggregation, query):
    db = _database(shared, shards)
    results = {}
    for engine in ("row", "vector"):
        config = ExecutorConfig(
            engine=engine, morsel_size=morsel_size, shards=shards,
            aggregation=aggregation,
        )
        result = Session(db, executor_config=config).report(QUERIES[query]).result
        nan_groups = [row for row in result.rows if math.isnan(row[0])]
        assert [(n, s) for __, n, s in nan_groups] == [
            (len(NAN_ROWS), sum(NAN_ROWS))
        ], engine
        assert len(result.rows) == 4, engine
        if query == "ordered":  # NaN sorts above every number, as in PostgreSQL
            assert [k for k, __, __ in result.rows[:3]] == [0.0, 1.0, 2.0], engine
            assert math.isnan(result.rows[3][0]), engine
        results[engine] = result
    assert results["row"].equals_multiset(results["vector"])


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("morsel_size", [1, None], ids=str)
@pytest.mark.parametrize("engine", ["row", "vector"])
def test_min_and_max_read_nan_in_sort_order(engine, morsel_size, shards):
    """MAX of a NaN-bearing group is NaN and MIN skips it, on both engines:
    the row engine folds with ``sort_key``, the vector one merges with it."""
    db = _database(shared=False, shards=shards)
    config = ExecutorConfig(engine=engine, morsel_size=morsel_size, shards=shards)
    result = Session(db, executor_config=config).report(
        "SELECT D.tag, MIN(T.k) AS lo, MAX(T.k) AS hi FROM T, D "
        "WHERE T.v = D.id GROUP BY D.tag ORDER BY D.tag"
    ).result
    (tag0, lo0, hi0), (tag1, lo1, hi1) = result.rows
    assert (tag0, lo0, tag1, lo1, hi1) == (0, 0.0, 1, 0.0, 2.0)
    assert math.isnan(hi0)


def _join_database(shared: bool, shards: int) -> Database:
    """``T(k, v)`` and ``U(k, w)``: four NaN rows and one ``1.0`` row each."""
    db = Database()
    for name, second in (("T", "v"), ("U", "w")):
        db.create_table(TableSchema(name, [Column("k", FLOAT), Column(second, INTEGER)]))
        for i in range(4):
            db.table(name).insert([SHARED if shared else float("nan"), i])
        db.table(name).insert([1.0, 9])
        if shards > 1:
            db.set_partitioning(name, PartitionSpec("hash", "k", shards))
    return db


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
@pytest.mark.parametrize("join", ["hash", "nested_loop", "sort_merge", "auto"])
def test_every_nan_key_joins_every_nan_key(join, shared, shards):
    """NaN = NaN is TRUE, whatever the join algorithm and whatever object
    holds the NaN: the 4 × 4 NaN pairs and the one ``1.0`` pair join."""
    db = _join_database(shared, shards)
    for engine in ("row", "vector"):
        config = ExecutorConfig(engine=engine, join_algorithm=join, shards=shards)
        result = Session(db, executor_config=config).report(
            "SELECT T.v, COUNT(*) AS n FROM T, U WHERE T.k = U.k GROUP BY T.v"
        ).result
        assert sorted(result.rows) == [(0, 4), (1, 4), (2, 4), (3, 4), (9, 1)], engine


@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
def test_a_spilled_hash_join_joins_every_nan_key(shared, monkeypatch):
    """The grace path partitions by key hash: every NaN must land in one
    partition and key one bucket there."""
    graced = []
    real = joins._grace_hash_join
    monkeypatch.setattr(
        joins, "_grace_hash_join", lambda *a: graced.append(1) or real(*a)
    )
    config = ExecutorConfig(
        engine="row", join_algorithm="hash", memory_limit_bytes=600, spill=True
    )
    result = Session(_join_database(shared, 1), executor_config=config).report(
        "SELECT T.v, COUNT(*) AS n FROM T, U WHERE T.k = U.k GROUP BY T.v"
    ).result
    assert graced
    assert sorted(result.rows) == [(0, 4), (1, 4), (2, 4), (3, 4), (9, 1)]


#: ``WHERE`` clauses over ``T(k)`` = {NaN, NaN, 1, 2} (and its self-join
#: ``A``, ``B``) and the rows each keeps: NaN sorts above every number and
#: equals every NaN.
COMPARISONS = {
    "k = k": 4,
    "k <= k": 4,
    "k >= k": 4,
    "k < k": 0,
    "k > k": 0,
    "k > 1.5": 3,
    "k < 1.5": 1,
    "k >= 1": 4,
    "k BETWEEN 0 AND 5": 2,
    "k NOT BETWEEN 0 AND 5": 2,
    "A.k >= B.k": 11,
    "A.k < B.k": 5,
    "A.k <= B.k": 11,
    "A.k > B.k": 5,
}


@pytest.mark.parametrize("compare", sorted(COMPARISONS))
@pytest.mark.parametrize("kind", ["float", "decimal"])
@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
def test_every_comparison_orders_nan_as_the_sort_does(shared, kind, compare):
    if kind == "float":
        datatype, shared_nan, fresh_nan = FLOAT, SHARED, lambda: float("nan")
        numbers = [1.0, 2.0]
    else:
        shared_decimal = Decimal("NaN")
        datatype, shared_nan, fresh_nan = DecimalType(18, 1), shared_decimal, lambda: Decimal("NaN")
        numbers = [Decimal(1), Decimal(2)]
    db = Database()
    db.create_table(TableSchema("T", [Column("k", datatype)]))
    for value in [shared_nan if shared else fresh_nan() for __ in range(2)] + numbers:
        db.table("T").insert([value])
    source = "T A, T B" if "A." in compare else "T"
    sql = f"SELECT COUNT(*) AS n FROM {source} WHERE {compare}"
    for engine in ("row", "vector"):
        result = Session(db, executor_config=ExecutorConfig(engine=engine)).report(sql)
        assert result.result.rows == [(COMPARISONS[compare],)], engine


def test_equality_on_nan_is_true_and_its_negation_false():
    nans = [float("nan"), SHARED, Decimal("NaN")]
    for left in nans:
        for right in nans:
            assert sql_compare_eq(left, right).is_true()
            assert sql_compare_ne(left, right).is_false()
    assert sql_compare_eq(SHARED, 1.0).is_false()
    assert sql_compare_ne(SHARED, 1.0).is_true()
    assert sql_compare_eq(1, 1.0).is_true()


def test_group_key_equates_every_nan_and_nothing_else():
    nans = [float("nan"), SHARED, -float("nan"), Decimal("NaN"), Decimal("-NaN")]
    assert len({group_key((nan,)) for nan in nans}) == 1
    others = [0.0, 1, "nan", NULL, math.inf]
    assert all(group_key((nans[0],)) != group_key((other,)) for other in others)


def test_sort_key_orders_every_nan_last_and_equal():
    nans = [float("nan"), SHARED, -float("nan"), Decimal("NaN"), Decimal("-NaN")]
    numbers = [-math.inf, -1, 0.0, Decimal("2.5"), 3, math.inf]
    values = [NULL] + numbers + nans
    for shuffled in (values, values[::-1], nans + numbers + [NULL]):
        ordered = sorted(shuffled, key=lambda value: sort_key((value,)))
        assert ordered[0] is NULL
        assert ordered[1:7] == numbers
        assert all(value != value for value in ordered[7:])
    assert len({sort_key((nan,)) for nan in nans}) == 1
    assert all(sort_key((nans[0],)) != sort_key((other,)) for other in numbers)


def test_every_nan_lands_on_one_shard():
    nans = [float("nan"), SHARED, -float("nan"), Decimal("NaN"), Decimal("-NaN")]
    for shards in (2, 3, 4, 7):
        assert len({stable_shard(nan, shards) for nan in nans}) == 1
