"""Worker-resident partitions: a delivery names its partition, it does not
ship it.

What keeps that sound is what these tests hold: an id names immutable
content and nothing else (two databases' identically named tables never
meet), the store is bounded (the oldest partition goes, and comes back on
next use with the same answer), and the in-process store survives the
server's threads.  Both wires run the same miss → attach → run steps, so
everything here runs in-process; the socket-only cases (a killed worker, a
dead primary, network faults on the message that carries the twin) are
``TestResidency`` in ``test_shardrpc.py``.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.algebra.ops import AggregateSpec, Exchange, GroupApply, Relation
from repro.catalog.catalog import Database
from repro.catalog.schema import Column, TableSchema
from repro.engine import exchange, shardrpc, wire
from repro.engine.executor import ExecutorConfig, execute
from repro.engine.wire import PARTITION_STORE_SIZE, PartitionStore
from repro.expressions.builder import count, sum_
from repro.server.server import Server
from repro.session import Session
from repro.sqltypes.datatypes import INTEGER

PLAN = GroupApply(
    Relation("T", "T"),
    ("T.k",),
    (AggregateSpec("c", count("T.v")), AggregateSpec("s", sum_("T.v"))),
)
NODE = Exchange(PLAN, keys=("T.k",), shards=2, merge=True)


def make_db(offset, name="T"):
    """60 rows; every database built here has the same name and version."""
    db = Database()
    db.create_table(TableSchema(name, [Column("k", INTEGER), Column("v", INTEGER)]))
    table = db.table(name)
    for i in range(60):
        table.insert([i % 7, i * 3 + offset])
    return db


@pytest.fixture
def store(monkeypatch):
    """A cold in-process store."""
    fresh = PartitionStore()
    monkeypatch.setattr(exchange, "_RESIDENT", fresh)
    return fresh


@pytest.fixture
def socket_pool():
    shardrpc.shutdown_pool()
    yield
    shardrpc.shutdown_pool()


def run(db, transport_name="memory"):
    config = ExecutorConfig(shards=2, transport=transport_name)
    result, stats = execute(db, NODE, config=config)
    assert stats.degradations == 0
    return list(result.rows), stats.exchanges[-1]


@pytest.mark.parametrize(
    "transport_name",
    ["memory", pytest.param("socket", marks=pytest.mark.transport)],
)
def test_two_databases_with_one_table_name_never_meet(
    store, socket_pool, transport_name
):
    """Same name, same version, same spec, one pool: a store keyed on
    ``(name, version, spec)`` would answer the second from the first."""
    first, second = make_db(0), make_db(1000)
    assert first.table("T").version == second.table("T").version
    expected = [list(execute(db, PLAN)[0].rows) for db in (first, second)]
    assert expected[0] != expected[1]
    for __ in range(2):  # cold, then each beside the other's resident twin
        for db, rows in zip((first, second), expected):
            assert run(db, transport_name)[0] == rows


def test_more_partitions_than_the_bound(store):
    """The oldest partition is evicted, re-seeded on its next use, and
    answers as before; the store never holds more than its bound."""
    databases = [make_db(offset) for offset in range(PARTITION_STORE_SIZE // 2 + 1)]
    first_answers = []
    for db in databases:
        rows, stats = run(db)
        first_answers.append(rows)
        assert stats.reseeds == 2
        assert len(store) <= PARTITION_STORE_SIZE
    assert len(store) == PARTITION_STORE_SIZE
    rows, stats = run(databases[-1])  # the newest: still resident
    assert (rows, stats.reseeds) == (first_answers[-1], 0)
    rows, stats = run(databases[0])  # the oldest: evicted, loaded again
    assert (rows, stats.reseeds) == (first_answers[0], 2)
    assert len(store) == PARTITION_STORE_SIZE


def join_all(threads):
    """Run ``threads`` to the end under a switch interval short enough to
    interleave them inside the store's few bytecodes."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


@pytest.mark.concurrency
def test_store_insertion_and_eviction_from_four_threads(store, monkeypatch):
    """Without the store's lock this raises "dictionary changed size
    during iteration" (or evicts one key twice) within a few thousand
    insertions."""
    monkeypatch.setattr(wire, "PARTITION_STORE_SIZE", 4)
    problems = []

    def hammer(thread):
        try:
            for i in range(5000):
                store.put(f"{thread}-{i}", i)
                if len(store) > 4:
                    problems.append(f"{len(store)} partitions resident")
        except Exception as error:  # the test's finding, not its crash
            problems.append(repr(error))

    join_all([threading.Thread(target=hammer, args=(t,)) for t in range(4)])
    assert not problems, problems[:5]
    assert len(store) == 4


@pytest.mark.concurrency
def test_two_sessions_over_more_partitions_than_the_bound(store, monkeypatch):
    """Two server sessions read five sharded tables — ten partitions, a
    bound of four — in opposite orders, so every read inserts and evicts
    while the other thread does: no lost answer, no error out of the store,
    never more than the bound resident."""
    monkeypatch.setattr(wire, "PARTITION_STORE_SIZE", 4)
    database = Database()
    names = [f"T{i}" for i in range(5)]
    for i, name in enumerate(names):
        database.tables[name] = make_db(i, name).table(name)
    queries = {
        name: f"SELECT {name}.k, COUNT({name}.v), SUM({name}.v) "
        f"FROM {name} GROUP BY {name}.k"
        for name in names
    }
    server = Server(database, executor_config=ExecutorConfig(shards=2))
    expected = {
        name: sorted(Session(database).query(sql).rows)
        for name, sql in queries.items()
    }
    problems, reseeds = [], [0, 0]

    def reader(index):
        session = server.open_session()
        order = names if index == 0 else names[::-1]
        try:
            for __ in range(30):
                for name in order:
                    report = session.report(queries[name])
                    if sorted(report.result.rows) != expected[name]:
                        problems.append(f"{name}: wrong rows")
                    if len(store) > 4:
                        problems.append(f"{len(store)} partitions resident")
                    reseeds[index] += sum(e.reseeds for e in report.stats.exchanges)
        except Exception as error:  # the test's finding, not its crash
            problems.append(repr(error))

    join_all([threading.Thread(target=reader, args=(i,)) for i in range(2)])
    assert not problems, problems[:5]
    assert min(reseeds) > 10  # the bound was exceeded, over and over
