"""Server and ServerSession: sessions, snapshots, cancel, TCP front-end."""

from __future__ import annotations

import re
import socket
import threading
import time

import pytest

from repro.engine.executor import ExecutorConfig
from repro.engine.retry import call_with_backoff
from repro.errors import AdmissionRejected, QueryCancelled
from repro.server.net import ReproServer
from repro.server.server import Server


def build_server(**kwargs) -> Server:
    server = Server(**kwargs)
    admin = server.open_session(tenant="admin", session_id="setup")
    admin.execute(
        "CREATE TABLE Dept (DeptID INTEGER PRIMARY KEY, Budget INTEGER)"
    )
    admin.execute(
        "CREATE TABLE Emp (EmpID INTEGER PRIMARY KEY, DeptID INTEGER, "
        "Salary INTEGER, FOREIGN KEY (DeptID) REFERENCES Dept)"
    )
    for d in range(3):
        admin.execute(f"INSERT INTO Dept VALUES ({d}, {100 * d})")
    for e in range(30):
        admin.execute(f"INSERT INTO Emp VALUES ({e}, {e % 3}, {50 + e})")
    admin.close()
    return server


def test_reports_carry_snapshot_epoch():
    server = build_server()
    session = server.open_session()
    report = session.report("SELECT COUNT(Emp.EmpID) FROM Emp")
    assert report.snapshot_epoch == server.catalog.epoch
    assert report.result.rows == [(30,)]


def test_readers_pin_while_writers_proceed():
    server = build_server()
    reader = server.open_session()
    writer = server.open_session()
    snap = reader.snapshot()
    writer.execute("INSERT INTO Emp VALUES (100, 0, 999)")
    # A fresh query sees the write; the pinned snapshot does not.
    assert reader.query("SELECT COUNT(Emp.EmpID) FROM Emp").rows == [(31,)]
    from repro.session import Session

    assert (
        Session(snap.database).query("SELECT COUNT(Emp.EmpID) FROM Emp").rows
        == [(30,)]
    )


def test_sessions_listing_and_close():
    server = build_server()
    a = server.open_session(tenant="alice")
    b = server.open_session(tenant="bob")
    ids = [s.id for s in server.sessions()]
    assert a.id in ids and b.id in ids
    b.close()
    assert [s.id for s in server.sessions()] == [a.id]
    with pytest.raises(RuntimeError, match="closed"):
        b.query("SELECT Dept.DeptID FROM Dept")


def test_admission_rejection_and_backoff_success():
    """The acceptance scenario: over-budget queries reject with the typed
    error, and the client-side backoff helper succeeds once load drains."""
    server = build_server(max_slots=1)
    session = server.open_session()
    hog = server.admission.admit()  # occupy the only slot
    with pytest.raises(AdmissionRejected) as info:
        session.query("SELECT COUNT(Emp.EmpID) FROM Emp")
    assert info.value.retry_after > 0
    releaser = threading.Timer(0.02, hog.release)
    releaser.start()
    try:
        rows = call_with_backoff(
            lambda: session.query("SELECT COUNT(Emp.EmpID) FROM Emp"),
            seed=7,
        ).rows
    finally:
        releaser.join()
    assert rows == [(30,)]
    assert server.admission.rejected >= 1


def test_admitted_memory_slice_becomes_governor_budget():
    """A query admitted with a memory slice runs under that governor
    budget: tiny slice + spilling enabled means the query still succeeds
    (spilling), proving the budget was actually applied."""
    server = build_server(
        max_bytes=1 << 20,
        default_query_bytes=4096,
        executor_config=ExecutorConfig(engine="row"),
    )
    session = server.open_session()
    report = session.report(
        "SELECT Emp.DeptID, COUNT(Emp.EmpID) FROM Emp GROUP BY Emp.DeptID"
    )
    assert sorted(report.result.rows) == [(0, 10), (1, 10), (2, 10)]
    assert report.stats.spill_count > 0  # the 4 KiB budget forced spills


def test_cancel_inflight_query():
    server = build_server(
        executor_config=ExecutorConfig(engine="row", timeout_seconds=None)
    )
    session = server.open_session()
    # Make the read long enough to land a cancel: cross join via repeated
    # self-join predicate-free pairs through the planner is overkill —
    # simply race a canceller thread that spins until the token exists.
    outcome = {}

    def run():
        try:
            outcome["rows"] = session.query(
                "SELECT COUNT(Emp.EmpID) FROM Emp, Dept"
            ).rows
        except QueryCancelled:
            outcome["cancelled"] = True

    runner = threading.Thread(target=run)
    runner.start()
    for __ in range(200_000):
        if session.cancel("test"):
            break
        if not runner.is_alive():
            break
        time.sleep(0)
    runner.join()
    # Either the cancel landed (typed error) or the query won the race —
    # both are legal; what matters is no hang and no corruption.
    assert outcome.get("cancelled") or outcome.get("rows") == [(90,)]
    assert session.cancel() is False  # nothing in flight afterwards


def test_concurrent_sessions_share_frozen_tables_without_locks():
    server = build_server()
    results = []
    errors = []

    def reader():
        session = server.open_session()
        try:
            for __ in range(5):
                rows = session.query(
                    "SELECT Emp.DeptID, COUNT(Emp.EmpID) FROM Emp "
                    "GROUP BY Emp.DeptID"
                ).rows
                results.append(sorted(rows))
        except Exception as error:  # pragma: no cover
            errors.append(error)

    threads = [threading.Thread(target=reader) for __ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert all(r == [(0, 10), (1, 10), (2, 10)] for r in results)


def test_stats_surface():
    server = build_server()
    stats = server.stats()
    assert stats["commits"] == server.catalog.commits
    assert stats["epoch"] == server.catalog.epoch
    assert "admitted" in stats and "rejected" in stats


class TestTcpFrontend:
    @pytest.fixture()
    def front(self):
        front = ReproServer(build_server(), port=0).start()
        yield front
        front.stop()

    def connect(self, front):
        sock = socket.create_connection(front.address, timeout=10)
        return sock, sock.makefile("r")

    def test_query_exec_roundtrip(self, front):
        sock, reader = self.connect(front)
        sock.sendall(b"EXEC INSERT INTO Emp VALUES (200, 0, 1)\n")
        assert reader.readline().startswith("OK epoch=")
        sock.sendall(b"QUERY SELECT COUNT(Emp.EmpID) FROM Emp\n")
        header = reader.readline()
        assert header.startswith("OK 1 rows epoch=")
        assert reader.readline().strip() == "31"
        assert reader.readline().strip() == ""
        sock.close()

    def test_error_carries_exit_code_family(self, front):
        sock, reader = self.connect(front)
        sock.sendall(b"QUERY SELECT nonsense\n")
        assert reader.readline().startswith("ERR 2 ParseError")
        sock.sendall(b"EXEC INSERT INTO Nope VALUES (1)\n")
        assert reader.readline().startswith("ERR 3 CatalogError")
        sock.close()

    def test_sessions_admin_command(self, front):
        sock, reader = self.connect(front)
        sock.sendall(b".sessions\n")
        header = reader.readline()
        assert header.startswith("OK") and "sessions" in header
        lines = []
        while True:
            line = reader.readline().strip()
            if not line:
                break
            lines.append(line)
        assert len(lines) >= 1  # at least this connection's session
        sock.sendall(b".stats\n")
        assert "epoch=" in reader.readline()
        sock.close()

    def test_multi_row_reply_is_one_write(self):
        # Line-by-line writes put a reply's second segment behind the
        # client's delayed ACK; the whole response must leave at once.
        from repro.server.net import _Handler

        server = build_server()
        admin = server.open_session(tenant="admin")
        for e in range(30, 50):
            admin.execute(f"INSERT INTO Emp VALUES ({e}, {e % 3}, {50 + e})")

        writes = []

        class Recorder:
            def write(self, data):
                writes.append(bytes(data))

            def flush(self):
                pass

        handler = _Handler.__new__(_Handler)  # no socket: only _dispatch runs
        handler.wfile = Recorder()
        handler._dispatch(
            server, admin, "QUERY SELECT Emp.EmpID, Emp.Salary FROM Emp"
        )
        assert _Handler.disable_nagle_algorithm
        assert len(writes) == 1
        lines = writes[0].decode("utf-8").split("\n")
        assert lines[0] == f"OK 50 rows epoch={server.catalog.epoch}"
        assert sorted(lines[1:51]) == sorted(
            f"{e}\t{50 + e}" for e in range(50)
        )
        assert lines[51:] == ["", ""]  # the blank terminator line, then EOF

    def test_character_values_never_break_the_framing(self, front):
        # A one-column row holding '' used to *be* the terminating blank
        # line, and a tab or newline split a field or a row.
        values = ["", "a\tb", "a\nb", "\\", "a\rb", "\\e"]
        admin = front.server.open_session(tenant="admin")
        admin.execute("CREATE TABLE S (Id INTEGER PRIMARY KEY, V VARCHAR(5))")
        for i, value in enumerate(values):
            admin.execute(f"INSERT INTO S VALUES ({i}, '{value}')")
        sock, reader = self.connect(front)
        sock.sendall(b"QUERY SELECT S.V FROM S\n")
        assert reader.readline().startswith(f"OK {len(values)} rows")
        body = []
        while (line := reader.readline().rstrip("\n")):
            body.append(line)
        plain = {"\\\\": "\\", "\\t": "\t", "\\n": "\n", "\\r": "\r", "\\e": ""}
        decoded = [re.sub(r"\\.", lambda m: plain[m.group()], row) for row in body]
        assert sorted(decoded) == sorted(values)
        sock.sendall(b".stats\n")  # the connection is still in step
        assert reader.readline().startswith("OK aborts=")
        sock.close()

    def test_two_clients_are_separate_sessions(self, front):
        sock1, reader1 = self.connect(front)
        sock2, reader2 = self.connect(front)
        # A connect returns before the server's thread has opened the
        # session; a reply on the connection shows it has.
        sock2.sendall(b".stats\n")
        assert reader2.readline().startswith("OK ")
        sock1.sendall(b"QUERY SELECT Dept.DeptID FROM Dept\n")
        header = reader1.readline()
        assert header.startswith("OK 3 rows")
        for __ in range(4):
            reader1.readline()
        sock1.sendall(b".sessions\n")
        header = reader1.readline()
        assert header.startswith("OK 2 sessions")
        while reader1.readline().strip():
            pass
        sock1.close()
        sock2.close()
