"""A server's sessions plan through one memo.

:class:`repro.server.server.Server` hands every read's session its one
:class:`repro.statement.PlanMemo`.  A read's cancellation token and
admitted budget are outside the memo's key, and every snapshot of an
unchanged catalog shares its stamp, so a statement one session planned is
warm for every other: only a write to a table the plan reads, or DDL,
re-plans.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import pytest

import repro.statement as statement_module
from repro.engine.executor import ExecutorConfig
from repro.parser.binder import execute_statement
from repro.parser.parser import parse_statement
from repro.server.snapshot import replay
from repro.session import Session
from repro.sqltypes.values import group_key
from repro.statement import PLAN_MEMO_SIZE
from tests.server.test_server import build_server
from tests.session.test_front_half import spy
from tests.session.test_plan_memo import STEPS, count_everywhere

#: Every front-half step runs for it cold: the rewrites and the Exchange.
CONFIG = ExecutorConfig(engine="vector", rewrites="all", shards=2)
PER_DEPT = (
    "SELECT Dept.DeptID, COUNT(Emp.EmpID) FROM Emp, Dept "
    "WHERE Emp.DeptID = Dept.DeptID GROUP BY Dept.DeptID"
)
#: Reads Emp alone: a write to Dept leaves its plan standing.
EMP_ONLY = "SELECT Emp.DeptID, MIN(Emp.Salary) FROM Emp GROUP BY Emp.DeptID"


@pytest.fixture
def planned(monkeypatch):
    calls = []
    spy(monkeypatch, statement_module, "plan_statement", calls)
    return calls


def replans(session, planned, sql) -> int:
    before = len(planned)
    session.report(sql)
    return len(planned) - before


def test_a_second_session_runs_no_front_half_step(monkeypatch):
    """Each read carries its own token and admitted budget; neither is in
    the key."""
    server = build_server(executor_config=CONFIG, default_query_bytes=1 << 24)
    calls = count_everywhere(monkeypatch, STEPS)
    first, second = server.open_session(), server.open_session()
    cold = first.report(PER_DEPT)
    assert all(calls.values()), {name: len(c) for name, c in calls.items()}
    for recorded in calls.values():
        recorded.clear()
    warm = second.report(PER_DEPT)
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(STEPS, 0)
    assert warm.plan is cold.plan
    assert warm.result.rows == cold.result.rows


def test_writes_and_ddl_through_the_server_re_plan_what_they_touch(planned):
    server = build_server(executor_config=CONFIG)
    first, second = server.open_session(), server.open_session()
    for sql in (PER_DEPT, EMP_ONLY):
        assert replans(first, planned, sql) == 1
        assert replans(second, planned, sql) == 0

    second.execute("INSERT INTO Emp VALUES (100, 0, 999)")
    for sql in (PER_DEPT, EMP_ONLY):
        assert replans(first, planned, sql) == 1
        assert replans(second, planned, sql) == 0
    assert second.query(PER_DEPT).rows == first.query(PER_DEPT).rows

    first.execute("INSERT INTO Dept VALUES (7, 700)")
    assert replans(first, planned, EMP_ONLY) == 0
    assert replans(second, planned, PER_DEPT) == 1
    assert replans(first, planned, PER_DEPT) == 0

    second.execute(
        "CREATE VIEW Busy AS SELECT Emp.DeptID, COUNT(Emp.EmpID) FROM Emp "
        "GROUP BY Emp.DeptID"
    )
    assert replans(first, planned, EMP_ONLY) == 1
    assert replans(second, planned, EMP_ONLY) == 0


@pytest.mark.concurrency
def test_threaded_reads_through_the_shared_memo_match_the_serial_replay():
    """Four threads (more than CI's cores) of fifty reads each under a short
    switch interval: the hot statements hit between writes, a pool of more
    statements than the memo holds keeps it evicting, and an INSERT into
    Emp every tenth op invalidates them all.  Each read equals the serial
    replay of the write log at its pinned epoch."""
    server = build_server(executor_config=ExecutorConfig(engine="vector"))
    setup = [sql for __, sql in server.catalog.log_upto(server.catalog.epoch)]
    cold = [
        "SELECT Emp.DeptID, COUNT(Emp.EmpID) AS n FROM Emp GROUP BY Emp.DeptID "
        f"HAVING COUNT(Emp.EmpID) > {threshold}"
        for threshold in range(PLAN_MEMO_SIZE + 8)
    ]
    observed, failures = [], []
    lock = threading.Lock()
    start = threading.Barrier(4)

    def worker(index: int) -> None:
        session = server.open_session()
        start.wait()
        try:
            for op in range(50):
                if op % 10 == index:
                    session.execute(
                        f"INSERT INTO Emp VALUES ({1000 + 100 * index + op}, "
                        f"{op % 3}, {op})"
                    )
                sql = (
                    (PER_DEPT, EMP_ONLY)[index % 2] if op % 2
                    else cold[(13 * op + index) % len(cold)]
                )
                report = session.report(sql)
                with lock:
                    observed.append((sql, report.snapshot_epoch, report.result.rows))
        except Exception as error:  # reported below, not lost in the thread
            failures.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == [] and len(observed) == 200
    assert len(server.plans) <= PLAN_MEMO_SIZE

    # One replay, advanced through the log in epoch order (server/chaos.py's
    # oracle): its own session and memo, over a database it mutates.
    log = server.catalog.log_upto(server.catalog.epoch)[len(setup):]
    database = replay(setup, [])
    replayed = Session(database)
    applied = 0
    for sql, epoch, rows in sorted(observed, key=lambda read: read[1]):
        while applied < len(log) and log[applied][0] <= epoch:
            execute_statement(database, parse_statement(log[applied][1]))
            applied += 1
        expected = replayed.query(sql).rows
        assert Counter(map(group_key, rows)) == Counter(map(group_key, expected))
