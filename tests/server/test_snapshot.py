"""VersionedCatalog: copy-on-write publish, snapshot isolation, write log."""

from __future__ import annotations

import threading

import pytest

from repro.catalog.catalog import Database
from repro.engine import faults
from repro.engine.faults import FaultSpec, KernelFault
from repro.errors import CatalogError, ConstraintViolation, ParseError
from repro.server.snapshot import VersionedCatalog, replay
from repro.session import Session

SETUP = (
    "CREATE TABLE Dept (DeptID INTEGER PRIMARY KEY, Budget INTEGER)",
    "CREATE TABLE Emp (EmpID INTEGER PRIMARY KEY, DeptID INTEGER, "
    "Salary INTEGER, FOREIGN KEY (DeptID) REFERENCES Dept)",
    "INSERT INTO Dept VALUES (1, 100)",
    "INSERT INTO Dept VALUES (2, 200)",
    "INSERT INTO Emp VALUES (10, 1, 50)",
)


def build_catalog():
    catalog = VersionedCatalog()
    for sql in SETUP:
        catalog.execute(sql)
    return catalog


def test_published_tables_are_frozen():
    catalog = build_catalog()
    for table in catalog.database.tables.values():
        assert table.frozen
        with pytest.raises(CatalogError, match="frozen"):
            table.insert((99, 1, 1))


def test_write_publishes_fresh_clone_and_bumps_epoch():
    catalog = build_catalog()
    before = catalog.database.table("Emp")
    epoch = catalog.epoch
    new_epoch = catalog.execute("INSERT INTO Emp VALUES (11, 2, 60)")
    after = catalog.database.table("Emp")
    assert new_epoch == epoch + 1
    assert after is not before  # copy-on-write: never mutated in place
    assert after.frozen
    assert len(before) == 1 and len(after) == 2
    assert after.version > before.version


def test_snapshot_pins_old_state_across_concurrent_writes():
    catalog = build_catalog()
    snap = catalog.snapshot()
    catalog.execute("INSERT INTO Emp VALUES (11, 2, 60)")
    catalog.execute("DELETE FROM Emp WHERE Emp.EmpID = 10")
    # The pinned view still sees exactly the one original row.
    session = Session(snap.database)
    rows = session.query("SELECT COUNT(Emp.EmpID) FROM Emp").rows
    assert rows == [(1,)]
    # And the live state moved on.
    live = Session(catalog.snapshot().database)
    assert live.query("SELECT COUNT(Emp.EmpID) FROM Emp").rows == [(1,)]
    assert live.query("SELECT Emp.EmpID FROM Emp").rows == [(11,)]


def test_snapshot_versions_record_pinned_table_versions():
    catalog = build_catalog()
    snap = catalog.snapshot()
    assert snap.versions["Emp"] == catalog.database.table("Emp").version
    catalog.execute("INSERT INTO Emp VALUES (11, 2, 60)")
    assert catalog.database.table("Emp").version > snap.versions["Emp"]
    # The pinned snapshot's table object keeps the old version forever.
    assert snap.database.table("Emp").version == snap.versions["Emp"]


def test_failed_statement_publishes_nothing():
    catalog = build_catalog()
    epoch = catalog.epoch
    table = catalog.database.table("Emp")
    with pytest.raises(ConstraintViolation):
        catalog.execute("INSERT INTO Emp VALUES (12, 99, 1)")  # unknown dept
    assert catalog.epoch == epoch
    assert catalog.database.table("Emp") is table
    assert catalog.aborts == 1


def test_multi_row_insert_is_atomic():
    """The server discards the whole clone when any row fails (unlike the
    single-session path, which keeps earlier rows)."""
    catalog = build_catalog()
    epoch = catalog.epoch
    with pytest.raises(ConstraintViolation):
        catalog.execute("INSERT INTO Emp VALUES (20, 1, 5), (10, 1, 6)")
    assert catalog.epoch == epoch
    session = Session(catalog.snapshot().database)
    assert session.query("SELECT COUNT(Emp.EmpID) FROM Emp").rows == [(1,)]


def test_mid_write_fault_rolls_back_version_bump():
    catalog = build_catalog()
    before = catalog.database.table("Emp")
    epoch = catalog.epoch
    injector = faults.FaultInjector(
        (FaultSpec("kernel", engine="write", label="Emp"),)
    )
    faults.install(injector)
    try:
        with pytest.raises(KernelFault):
            catalog.execute("INSERT INTO Emp VALUES (11, 2, 60)")
    finally:
        faults.install(None)
    # The crash happened after the shadow mutation, before publish: the
    # authoritative table is the same object, same version, same rows.
    assert catalog.database.table("Emp") is before
    assert catalog.epoch == epoch
    assert len(injector.fired) == 1
    # The log contains only committed statements: replay matches live.
    replayed = replay([], catalog.log_upto(catalog.epoch))
    assert (
        Session(replayed).query("SELECT COUNT(Emp.EmpID) FROM Emp").rows
        == [(1,)]
    )


def test_write_log_replay_reproduces_state_at_every_epoch():
    catalog = build_catalog()
    catalog.execute("INSERT INTO Emp VALUES (11, 2, 60)")
    mid = catalog.epoch
    mid_snap = catalog.snapshot()
    catalog.execute("INSERT INTO Emp VALUES (12, 1, 70)")
    catalog.execute("DELETE FROM Emp WHERE Emp.EmpID = 10")

    query = "SELECT Emp.DeptID, COUNT(Emp.EmpID) FROM Emp GROUP BY Emp.DeptID"
    replay_mid = replay([], catalog.log_upto(mid))
    assert sorted(Session(replay_mid).query(query).rows) == sorted(
        Session(mid_snap.database).query(query).rows
    )
    replay_full = replay([], catalog.log_upto(catalog.epoch))
    assert sorted(Session(replay_full).query(query).rows) == sorted(
        Session(catalog.snapshot().database).query(query).rows
    )
    # Versions line up table-by-table too (clone keeps the version chain).
    assert (
        replay_full.table("Emp").version
        == catalog.database.table("Emp").version
    )


def test_ddl_publish_creates_lock_and_freezes():
    catalog = build_catalog()
    catalog.execute("CREATE TABLE Extra (X INTEGER PRIMARY KEY)")
    assert catalog.database.table("Extra").frozen
    catalog.execute("INSERT INTO Extra VALUES (1)")
    assert len(catalog.database.table("Extra")) == 1


def test_ddl_does_not_clobber_concurrent_dml():
    """A DDL publish must not overwrite another table's concurrent commit
    with the stale dict it validated against."""
    catalog = build_catalog()
    barrier = threading.Barrier(2)
    errors = []

    def ddl():
        barrier.wait()
        for i in range(20):
            catalog.execute(f"CREATE TABLE T{i} (X INTEGER PRIMARY KEY)")

    def dml():
        barrier.wait()
        for i in range(20):
            catalog.execute(f"INSERT INTO Emp VALUES ({100 + i}, 1, {i})")

    threads = [threading.Thread(target=ddl), threading.Thread(target=dml)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    session = Session(catalog.snapshot().database)
    assert session.query("SELECT COUNT(Emp.EmpID) FROM Emp").rows == [(21,)]
    assert all(catalog.database.has_table(f"T{i}") for i in range(20))


def test_fk_write_skew_is_serialized():
    """delete-parent racing insert-child must serialize via the FK lock
    set: whatever interleaving happens, the final state has no orphan
    (and the log replays to the same state)."""
    catalog = build_catalog()
    results = {}
    barrier = threading.Barrier(2)

    def insert_child():
        barrier.wait()
        try:
            catalog.execute("INSERT INTO Emp VALUES (50, 2, 10)")
            results["insert"] = "ok"
        except ConstraintViolation:
            results["insert"] = "rejected"

    def delete_parent():
        barrier.wait()
        try:
            catalog.execute("DELETE FROM Dept WHERE Dept.DeptID = 2")
            results["delete"] = "ok"
        except ConstraintViolation:
            results["delete"] = "rejected"

    threads = [
        threading.Thread(target=insert_child),
        threading.Thread(target=delete_parent),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Exactly one serialization happened; in neither order is there an
    # orphaned child.
    database = catalog.snapshot().database
    emp_depts = {row.values[1] for row in database.table("Emp")}
    dept_ids = {row.values[0] for row in database.table("Dept")}
    assert emp_depts <= dept_ids
    assert {results["insert"], results["delete"]} <= {"ok", "rejected"}
    replayed = replay([], catalog.log_upto(catalog.epoch))
    assert len(replayed.table("Emp")) == len(database.table("Emp"))
    assert len(replayed.table("Dept")) == len(database.table("Dept"))


def test_select_refused_on_write_path():
    catalog = build_catalog()
    with pytest.raises(ParseError, match="session query"):
        catalog.execute("SELECT Dept.DeptID FROM Dept")


def test_unknown_table_dml_raises_catalog_error():
    catalog = build_catalog()
    with pytest.raises(CatalogError, match="no such table"):
        catalog.execute("INSERT INTO Nope VALUES (1)")


def test_seeded_database_tables_get_frozen_on_wrap():
    database = Database()
    from repro.parser.binder import execute_statement
    from repro.parser.parser import parse_statement

    execute_statement(
        database, parse_statement("CREATE TABLE T (X INTEGER PRIMARY KEY)")
    )
    execute_statement(database, parse_statement("INSERT INTO T VALUES (1)"))
    catalog = VersionedCatalog(database)
    assert database.table("T").frozen
    catalog.execute("INSERT INTO T VALUES (2)")
    assert len(catalog.database.table("T")) == 2


# -- statistics follow the table version, reader by reader ---------------------


def _emp_ids(database):
    from repro.costing.cardinality import collect_statistics

    return collect_statistics(database).table("Emp").columns["EmpID"].distinct


def test_pinned_reader_keeps_the_old_statistics():
    catalog = build_catalog()
    pinned = catalog.snapshot()
    assert _emp_ids(pinned.database) == 1
    catalog.execute("INSERT INTO Emp VALUES (11, 2, 60)")
    catalog.execute("INSERT INTO Emp VALUES (12, 2, 70)")
    # A reader that arrives after the writes sees them; the pinned one
    # still prices the table it reads, before and after the other asked.
    assert _emp_ids(catalog.snapshot().database) == 3
    assert _emp_ids(pinned.database) == 1


def test_write_to_one_table_leaves_the_others_statistics_warm(statistics_scans):
    catalog = build_catalog()
    query = (
        "SELECT Dept.DeptID, COUNT(Emp.EmpID) FROM Emp, Dept "
        "WHERE Emp.DeptID = Dept.DeptID GROUP BY Dept.DeptID"
    )
    Session(catalog.snapshot().database).query(query)
    scanned = statistics_scans
    del scanned[:]
    catalog.execute("INSERT INTO Emp VALUES (11, 2, 60)")
    assert scanned == []  # a write pays nothing for statistics
    # Each query gets a fresh snapshot-view Database over the same tables.
    rows = Session(catalog.snapshot().database).query(query).rows
    assert sorted(rows) == [(1, 1), (2, 1)]
    assert scanned == ["Emp"]
    Session(catalog.snapshot().database).query(query)
    assert scanned == ["Emp"]


def test_aborted_write_leaves_published_statistics_alone():
    catalog = build_catalog()
    assert _emp_ids(catalog.snapshot().database) == 1
    with pytest.raises(ConstraintViolation):
        catalog.execute("INSERT INTO Emp VALUES (11, 99, 60)")  # no such Dept
    assert _emp_ids(catalog.snapshot().database) == 1
    catalog.execute("INSERT INTO Emp VALUES (11, 2, 60)")
    assert _emp_ids(catalog.snapshot().database) == 2


def test_readers_price_the_version_they_pinned_while_a_writer_commits():
    from repro.costing.cardinality import collect_statistics

    catalog = build_catalog()
    stop = threading.Event()
    wrong = []

    def reader():
        while not stop.is_set():
            database = catalog.snapshot().database
            emp = collect_statistics(database).table("Emp")
            pinned = database.table("Emp")
            if (emp.row_count, emp.columns["EmpID"].distinct) != (
                len(pinned), len(pinned),
            ):
                wrong.append((emp.row_count, len(pinned)))

    readers = [threading.Thread(target=reader) for __ in range(4)]
    for thread in readers:
        thread.start()
    try:
        for emp_id in range(100, 160):
            catalog.execute(f"INSERT INTO Emp VALUES ({emp_id}, 1, 1)")
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in readers)
    assert wrong == []
    assert _emp_ids(catalog.snapshot().database) == 61
