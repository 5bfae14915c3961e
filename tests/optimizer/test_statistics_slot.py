"""Statistics are scanned once per table version, not once per estimator.

``collect_statistics`` serves each table's :class:`TableStats` from the
table's ``derived`` slot: the planner, the rewriter, the distributor and
the certificate auditors of one statement — and of every later statement
until the table mutates — read one snapshot.  These tests count calls of
the private per-table scan, walk every mutation path's invalidation, and
pin the properties sharing depends on: read-only values, nothing extra in
a pickled table.
"""

import dataclasses
import pickle
import sys
import threading

import pytest

import repro.costing.cardinality as cardinality
from repro.algebra.ops import Relation, Select
from repro.catalog import (
    Column,
    Database,
    ForeignKeyConstraint,
    PrimaryKeyConstraint,
    TableSchema,
)
from repro.costing.cardinality import (
    CardinalityEstimator,
    ColumnStats,
    Statistics,
    TableStats,
    collect_statistics,
)
from repro.engine.executor import ExecutorConfig
from repro.engine.vector.batch import ColumnBatch
from repro.engine.vector.columnar import table_to_batch
from repro.errors import ConstraintViolation
from repro.expressions.builder import col, gt, lit
from repro.session import Session
from repro.sqltypes import INTEGER
from repro.storage.partition import PartitionSpec, partition_table
from repro.workloads import make_retail_star, populate_retail

REGION_CATEGORY = (
    "SELECT St.Region, P.Category, SUM(S.Amount) AS revenue "
    "FROM Sales S, Store St, Product P "
    "WHERE S.StoreID = St.StoreID AND S.ProdID = P.ProdID "
    "GROUP BY St.Region, P.Category"
)


@pytest.fixture
def scans(statistics_scans):
    return statistics_scans


@pytest.fixture
def star():
    database = make_retail_star()
    populate_retail(
        database, n_sales=300, n_customers=20, n_products=8, n_stores=4, seed=5
    )
    return database


@pytest.fixture
def parent_child():
    database = Database()
    database.create_table(
        TableSchema("P", [Column("id", INTEGER)], [PrimaryKeyConstraint(["id"])])
    )
    database.create_table(
        TableSchema(
            "C",
            [Column("id", INTEGER), Column("pid", INTEGER)],
            [
                PrimaryKeyConstraint(["id"]),
                ForeignKeyConstraint(["pid"], "P", ["id"]),
            ],
        )
    )
    for i in range(1, 4):
        database.insert("P", [i])
    for i in range(1, 7):
        database.insert("C", [i, 1 + i % 3])
    return database


def ndv(database, table, column):
    return collect_statistics(database).table(table).columns[column].distinct


class TestOneScanPerTableVersion:
    def test_statement_scans_each_table_at_most_once_then_never(self, star, scans):
        session = Session(
            star, executor_config=ExecutorConfig(engine="vector", rewrites="all")
        )
        cold = session.report(REGION_CATEGORY)
        # Planner, join reordering, R703 audits: one snapshot between them.
        assert sorted(scans) == sorted(set(scans))
        assert set(scans) <= set(star.tables)
        assert {"Sales", "Store", "Product"} <= set(scans)
        del scans[:]
        warm = session.report(REGION_CATEGORY)
        assert scans == []
        assert warm.result.equals_multiset(cold.result)
        # A second session over the same tables is warm too: the slot is
        # the table's, not the session's.
        Session(star, executor_config=session.executor_config).report(
            REGION_CATEGORY
        )
        assert scans == []

    def test_sharded_statement_reuses_the_snapshot(self, star, scans):
        session = Session(
            star,
            executor_config=ExecutorConfig(engine="vector", shards=2),
        )
        session.report(REGION_CATEGORY)  # Planner + distribute_plan + R704
        assert sorted(scans) == sorted(set(scans))

    def test_served_statistics_equal_a_fresh_scan(self, star):
        served = collect_statistics(star)
        for name, table in star.tables.items():
            assert served.tables[name] == cardinality._scan_table(table)


class TestInvalidation:
    def test_insert(self, parent_child, scans):
        assert ndv(parent_child, "P", "id") == 3
        parent_child.insert("P", [4])
        del scans[:]
        assert ndv(parent_child, "P", "id") == 4
        assert scans == ["P"]  # C did not change: its entry stays warm

    def test_failed_insert_that_rolls_back(self, parent_child, scans):
        before = collect_statistics(parent_child).table("C")
        with pytest.raises(ConstraintViolation):
            parent_child.insert("C", [99, 999])  # no such parent
        del scans[:]
        after = collect_statistics(parent_child).table("C")
        assert scans == ["C"]  # the rollback bumped the version
        assert after == before  # ...and left no trace of the row

    def test_delete_rowids(self, parent_child):
        assert ndv(parent_child, "C", "id") == 6
        table = parent_child.table("C")
        table.delete_rowids({table.rows()[0].rowid})
        assert ndv(parent_child, "C", "id") == 5
        assert collect_statistics(parent_child).table("C").row_count == 5

    def test_clear(self, parent_child):
        assert ndv(parent_child, "C", "pid") == 3
        parent_child.table("C").clear()
        stats = collect_statistics(parent_child).table("C")
        assert stats.row_count == 0
        assert stats.columns["pid"].distinct == 1  # NDVs are floored at 1

    def test_restore(self, parent_child):
        table = parent_child.table("C")
        saved = table.snapshot()
        table.delete_rowids({row.rowid for row in table.rows()[:4]})
        assert collect_statistics(parent_child).table("C").row_count == 2
        table.restore(saved)
        assert collect_statistics(parent_child).table("C").row_count == 6

    def test_clone_starts_empty_and_leaves_the_original_warm(
        self, parent_child, scans
    ):
        collect_statistics(parent_child)
        original = parent_child.table("P")
        clone = original.clone()
        clone.insert([4])
        shadow = parent_child.snapshot_view()
        shadow.tables["P"] = clone
        del scans[:]
        assert ndv(shadow, "P", "id") == 4
        assert ndv(parent_child, "P", "id") == 3
        assert scans == ["P"]  # the clone's miss; the original was served


class TestSharedValues:
    def test_explicit_statistics_bypass_the_slot(self, star, scans):
        what_if = Statistics(
            {"Sales": TableStats(10**6, {"Amount": ColumnStats(50)})}
        )
        estimator = CardinalityEstimator(star, what_if)
        assert scans == []
        assert estimator.statistics is what_if
        plan = Select(Relation("Sales", "S"), gt(col("S.Amount"), lit(1)))
        assert estimator.rows(plan) == pytest.approx(10**6 / 3)
        # ...and what-if numbers never leak into what the tables serve.
        assert collect_statistics(star).table("Sales").row_count == 300

    def test_served_statistics_reject_mutation(self, star):
        sales = collect_statistics(star).table("Sales")
        with pytest.raises(dataclasses.FrozenInstanceError):
            sales.row_count = 0
        with pytest.raises(TypeError):
            sales.columns["Amount"] = ColumnStats(1)
        with pytest.raises(TypeError):
            del sales.columns["Amount"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            sales.columns["Amount"].distinct = 1

    def test_statistics_pickle_round_trip(self, star):
        served = collect_statistics(star)
        assert pickle.loads(pickle.dumps(served)) == served

    def test_two_threads_missing_at_once_share_one_scan(
        self, star, scans, monkeypatch
    ):
        # The second reader arrives while the first is still scanning: it
        # waits for that scan and takes its value instead of scanning too.
        real = cardinality._scan_table
        scanning = threading.Event()
        second_is_waiting = threading.Event()

        def slow_scan(table):
            if table.name == "Sales":
                scanning.set()
                assert second_is_waiting.wait(timeout=10)
            return real(table)

        monkeypatch.setattr(cardinality, "_scan_table", slow_scan)
        results = []

        def miss():
            results.append(collect_statistics(star))

        first = threading.Thread(target=miss)
        first.start()
        assert scanning.wait(timeout=10)
        second = threading.Thread(target=miss)
        second.start()
        # Every other table is served; Sales is held by the first reader.
        second.join(timeout=0.2)
        assert second.is_alive() and len(results) == 0
        second_is_waiting.set()
        for thread in (first, second):
            thread.join(timeout=20)
        assert not first.is_alive() and not second.is_alive()
        assert len(results) == 2 and results[0] == results[1]
        assert results[0].table("Sales") is results[1].table("Sales")
        assert scans.count("Sales") == 1
        monkeypatch.setattr(cardinality, "_scan_table", real)
        assert collect_statistics(star) == results[0]

    def test_readers_racing_on_one_frozen_table(self, star):
        # More readers than cores, a tiny switch interval: every reader
        # must get the one true value whoever's build ends up in the slot.
        for table in star.tables.values():
            table.freeze()
        expected = {
            name: cardinality._scan_table(table)
            for name, table in star.tables.items()
        }
        wrong = []
        start = threading.Barrier(8, timeout=10)

        def reader():
            start.wait()
            for __ in range(50):
                if collect_statistics(star).tables != expected:
                    wrong.append("statistics")
                batch = table_to_batch(star.table("Sales"), "S")
                if not isinstance(batch, ColumnBatch) or batch.length != 300:
                    wrong.append("batch")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for __ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestNothingDerivedIsPickled:
    def test_pickle_is_byte_identical_with_and_without_entries(self, star):
        table = star.table("Sales")
        bare = pickle.dumps(table, protocol=4)
        collect_statistics(star)
        table_to_batch(table, "S", expose_rowids=True)
        twins = partition_table(table, PartitionSpec("hash", "CustID", 2))
        assert pickle.dumps(table, protocol=4) == bare

        twin_bare = pickle.dumps(twins[0], protocol=4)
        table_to_batch(twins[0], "S")
        assert pickle.dumps(twins[0], protocol=4) == twin_bare

    def test_unpickled_table_starts_empty_and_works(self, star, scans):
        table = star.table("Store")
        collect_statistics(star)
        copy = pickle.loads(pickle.dumps(table))
        assert len(copy) == len(table) and copy.version == table.version
        other = Database()
        other.tables["Store"] = copy
        del scans[:]
        assert collect_statistics(other).table("Store") == collect_statistics(
            star
        ).table("Store")
        assert scans == ["Store"]
