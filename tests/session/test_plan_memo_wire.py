"""The plan memo over the socket wire, with real shard worker processes.

A hit hands the executor the plan the cold report ran, Exchange and all, so
it must ship exactly what the cold report shipped.  A write to the
partitioned table re-plans the statement, and the new version's partitions
reach the workers through the ``missing`` path, as they do without a memo:
residency is the wire's business, not the planner's.
"""

from __future__ import annotations

import pytest

import repro.statement as statement_module
from repro.catalog.catalog import Database
from repro.catalog.schema import Column, TableSchema
from repro.engine.executor import ExecutorConfig
from repro.engine.shardrpc import shutdown_pool
from repro.session import Session
from repro.sqltypes.datatypes import INTEGER
from repro.storage.partition import PartitionSpec
from tests.session.test_front_half import spy

pytestmark = pytest.mark.transport

QUERY = "SELECT T.k, COUNT(T.v) AS c, SUM(T.v) AS s FROM T GROUP BY T.k"


@pytest.fixture(scope="module", autouse=True)
def clean_pool():
    shutdown_pool()
    yield
    shutdown_pool()


def test_a_hit_ships_what_the_cold_report_shipped(monkeypatch):
    database = Database()
    database.create_table(
        TableSchema("T", [Column("k", INTEGER), Column("v", INTEGER)])
    )
    for i in range(60):
        database.table("T").insert([i % 7, i * 3])
    database.set_partitioning("T", PartitionSpec("hash", "k", 2))
    session = Session(
        database,
        executor_config=ExecutorConfig(
            engine="vector", shards=2, transport="socket", rpc_timeout_seconds=2.0
        ),
    )
    planned = []
    spy(monkeypatch, statement_module, "plan_statement", planned)

    def twice():
        expected = Session(database).report(QUERY).result  # row engine, one site
        reports = [session.report(QUERY), session.report(QUERY)]
        for report in reports:
            assert report.result.equals_multiset(expected)
        return reports

    reports = twice()
    session.execute("INSERT INTO T VALUES (3, 999)")
    reports += twice()

    # Planned cold, then once more after the write; every other report a
    # hit.  The even calls are the unsharded reference sessions'.
    assert len(planned) == 4
    assert reports[0].plan is reports[1].plan is planned[1][2].plan
    assert reports[2].plan is reports[3].plan is planned[3][2].plan
    assert reports[2].plan is not reports[0].plan
    exchanges = [report.stats.exchanges for report in reports]
    assert all(len(per_report) == 1 for per_report in exchanges)
    shipped = [per_report[0].bytes_shipped for per_report in exchanges]
    assert shipped[1] == shipped[0] and shipped[3] == shipped[2]
    assert [per_report[0].reseeds for per_report in exchanges] == [2, 0, 2, 0]
    assert all(per_report[0].transport == "socket" for per_report in exchanges)
