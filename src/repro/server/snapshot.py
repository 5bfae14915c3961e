"""Snapshot isolation over the single-session catalog (MVCC, copy-on-write).

The :class:`VersionedCatalog` owns the *authoritative*
:class:`~repro.catalog.catalog.Database` and enforces one invariant:

    **every published table is frozen** — it will never be mutated again.

Readers therefore need no locks at all: :meth:`VersionedCatalog.snapshot`
pins the current epoch and hands out a
:meth:`~repro.catalog.catalog.Database.snapshot_view` sharing the frozen
tables; later commits swap *fresh clones* into the authoritative dicts,
which the pinned view never sees.  Readers never block writers and
writers never block readers.

Writers serialize per table, not globally.  A DML statement

1. takes the target's **lock set** — the FK neighborhood
   (:meth:`~repro.catalog.catalog.Database.fk_neighbors`: the target plus
   FK parents it must look up and FK children whose RESTRICT checks it
   must not invalidate), acquired in sorted name order so concurrent
   writers cannot deadlock and cannot produce write skew (delete-parent
   racing insert-child);
2. clones the target table (:meth:`~repro.storage.table.Table.clone` —
   shallow row sharing, rows themselves are immutable) and executes the
   statement against a shadow catalog view with the clone swapped in, so
   constraint checking sees a consistent database and all mutation lands
   in the clone;
3. passes the ``"write"`` injection point
   (:func:`repro.engine.faults.injection_point`) — an injected fault here
   models a mid-write crash: the clone is discarded, the authoritative
   table keeps its old version, and the version bump is rolled back by
   construction;
4. **publishes atomically** under the registry lock: freeze the clone,
   swap it in, bump the global epoch, append the statement to the write
   log.

The write log ``[(epoch, sql)]`` is the serial history: replaying it in
epoch order against the initial database reproduces, at every prefix,
exactly the state a snapshot pinned at that epoch observed.  The chaos
harness (:mod:`repro.server.chaos`) checks reads against that replay
bit-for-bit.

Statements are atomic here: a failed statement publishes nothing (the
single-session :class:`~repro.session.Session` lets a multi-row INSERT
keep its earlier rows; the server discards the whole clone instead, so
the write log only ever contains statements that fully succeeded).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.catalog.catalog import Database
from repro.engine import faults
from repro.errors import CatalogError, ParseError
from repro.parser.ast_nodes import (
    CreateAssertionStatement,
    CreateDomainStatement,
    CreateTableStatement,
    CreateViewStatement,
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    SetOperationStatement,
    UpdateStatement,
)
from repro.parser.binder import execute_statement
from repro.parser.parser import parse_statement

#: Statement classes that mutate exactly one table's rows (DML).
_DML = (InsertStatement, DeleteStatement, UpdateStatement)

#: Statement classes that grow the catalog (DDL).  There is no DROP in the
#: grammar, so DDL only ever *adds* entries — publishing is a dict insert.
_DDL = (
    CreateTableStatement,
    CreateDomainStatement,
    CreateViewStatement,
    CreateAssertionStatement,
)


@dataclass(frozen=True)
class Snapshot:
    """A pinned, immutable view of the database at one commit epoch.

    ``database`` shares the frozen table objects that were published at
    ``epoch``; ``versions`` records each table's
    :attr:`~repro.storage.table.Table.version` at pin time, so a
    consistency checker can replay the write log to this epoch and
    compare versions table by table.
    """

    epoch: int
    database: Database
    versions: Dict[str, int] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Snapshot(epoch={self.epoch}, tables={len(self.versions)})"


class VersionedCatalog:
    """The authoritative database plus the MVCC write/publish machinery."""

    def __init__(self, database: Optional[Database] = None) -> None:
        self.database = database if database is not None else Database()
        #: Guards the authoritative dicts, the epoch, the write log and
        #: the table-lock map.  Held only for pointer swaps — never while
        #: executing a statement.
        self._registry_lock = threading.Lock()
        #: One lock per table; writers take the sorted FK neighborhood.
        self._table_locks: Dict[str, threading.Lock] = {}
        #: DDL is rare: serialize it wholesale (it reads the whole catalog
        #: to validate, e.g. foreign keys of a new table).
        self._ddl_lock = threading.Lock()
        self.epoch = 0
        #: The serial history: committed statements in commit order.
        self.write_log: List[Tuple[int, str]] = []
        self.commits = 0
        self.aborts = 0
        for table in self.database.tables.values():
            table.freeze()
            self._table_locks[table.name] = threading.Lock()

    # -- reads ---------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Pin the current epoch: an immutable view readers share lock-free."""
        with self._registry_lock:
            view = self.database.snapshot_view()
            versions = {name: t.version for name, t in view.tables.items()}
            return Snapshot(self.epoch, view, versions)

    def log_upto(self, epoch: int) -> List[Tuple[int, str]]:
        """The committed statements with epoch ≤ ``epoch``, in commit order."""
        with self._registry_lock:
            return [entry for entry in self.write_log if entry[0] <= epoch]

    # -- writes --------------------------------------------------------------

    def execute(self, sql: str, session: Optional[str] = None) -> int:
        """Run one DDL or DML statement; returns the commit epoch.

        Raises whatever the statement raises (parse, bind, constraint,
        injected fault) — in every failure case *nothing* is published
        and the epoch is unchanged.
        """
        statement = parse_statement(sql)
        if isinstance(statement, (SelectStatement, SetOperationStatement)):
            raise ParseError("use a session query for SELECT statements")
        if isinstance(statement, _DML):
            return self._execute_dml(sql, statement, session)
        if isinstance(statement, _DDL):
            return self._execute_ddl(sql, statement, session)
        raise CatalogError(
            f"cannot execute statement of type {type(statement).__name__}"
        )

    def _execute_dml(self, sql, statement, session) -> int:
        target = statement.table
        with self._registry_lock:
            if target not in self._table_locks:
                # Let the binder produce its usual "no such table" error.
                self.database.table(target)
            lock_set = sorted(self.database.fk_neighbors(target))
        locks = [self._table_locks[name] for name in lock_set
                 if name in self._table_locks]
        for lock in locks:
            lock.acquire()
        try:
            # Clone-and-shadow: all mutation lands in the clone; FK and
            # assertion checks read the frozen neighbors consistently
            # (their locks are held, so no concurrent commit can swap
            # them mid-statement).
            live = self.database.table(target)
            clone = live.clone()
            shadow = self.database.snapshot_view()
            shadow.tables[target] = clone
            try:
                execute_statement(shadow, statement)
                # The mid-write crash point: after the shadow mutation,
                # before the atomic publish.  A fault raising here
                # abandons the clone — the version bump rolls back.
                faults.injection_point("write", target)
            except Exception:
                self.aborts += 1
                raise
            with self._registry_lock:
                clone.freeze()
                self.database.tables[target] = clone
                self.epoch += 1
                self.write_log.append((self.epoch, sql))
                self.commits += 1
                return self.epoch
        finally:
            for lock in reversed(locks):
                lock.release()

    def _execute_ddl(self, sql, statement, session) -> int:
        with self._ddl_lock:
            shadow = self.database.snapshot_view()
            try:
                execute_statement(shadow, statement)
                label = getattr(statement, "name", "") or getattr(
                    statement, "table", "ddl"
                )
                faults.injection_point("write", label)
            except Exception:
                self.aborts += 1
                raise
            with self._registry_lock:
                # DDL only adds entries (no DROP in the grammar): publish
                # the additions one by one so concurrent DML commits to
                # *other* tables are never overwritten by a stale dict.
                for name, table in shadow.tables.items():
                    if name not in self.database.tables:
                        table.freeze()
                        self.database.tables[name] = table
                        self._table_locks[name] = threading.Lock()
                for name, domain in shadow.domains.items():
                    self.database.domains.setdefault(name, domain)
                for name, view in shadow.views.items():
                    self.database.views.setdefault(name, view)
                for name, assertion in shadow.assertions.items():
                    self.database.assertions.setdefault(name, assertion)
                # The additions bypassed Database's DDL methods: bump the
                # schema epoch that stamps a session's remembered plans.
                self.database.schema_epoch += 1
                self.epoch += 1
                self.write_log.append((self.epoch, sql))
                self.commits += 1
                return self.epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VersionedCatalog(epoch={self.epoch}, "
            f"tables={len(self.database.tables)}, "
            f"commits={self.commits}, aborts={self.aborts})"
        )


def replay(setup_sql: List[str], log: List[Tuple[int, str]]) -> Database:
    """Rebuild the database state a snapshot at ``log[-1].epoch`` observed.

    Runs ``setup_sql`` (the pre-server schema/data script) on a fresh
    :class:`Database`, then applies the committed statements in epoch
    order through the same single-session execution path.  Because the
    server's commits are statement-atomic and totally ordered by epoch,
    this serial replay is bit-identical to the live state at that epoch —
    the property the chaos harness asserts.
    """
    database = Database()
    for sql in setup_sql:
        execute_statement(database, parse_statement(sql))
    for __, sql in log:
        execute_statement(database, parse_statement(sql))
    return database
