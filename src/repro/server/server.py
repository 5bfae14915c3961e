"""The server: many concurrent sessions over one versioned database.

:class:`Server` composes the pieces — a
:class:`~repro.server.snapshot.VersionedCatalog` for snapshot reads and
serialized writes, an :class:`~repro.server.admission.AdmissionController`
for budget admission — behind the familiar session API::

    server = Server(max_slots=8, max_bytes=64 << 20)
    s1 = server.open_session(tenant="alice")
    s1.execute("CREATE TABLE T (A INTEGER PRIMARY KEY)")
    s1.execute("INSERT INTO T VALUES (1)")
    result = s1.query("SELECT T.A FROM T GROUP BY T.A")

Each query runs on its own pinned :class:`~repro.server.snapshot.Snapshot`
through an ordinary single-session :class:`~repro.session.Session` — the
entire planner/executor stack is reused unchanged; only the database it
sees is a frozen epoch view.  The admitted memory slice becomes the
query's :class:`~repro.engine.governor.ResourceGovernor` budget, and a
fresh :class:`~repro.engine.governor.CancellationToken` per query gives
:meth:`ServerSession.cancel` something to flip from another thread.

Every such session plans through the server's one
:class:`~repro.statement.PlanMemo`.  Its key is the plan part of the
config, which neither the token nor the budget is in, and its stamp is the
catalog state, which every snapshot of an unchanged catalog shares: a read
of a statement any session already planned goes straight to the executor.
Only DDL or a write to a table the plan reads makes the next read re-plan.

Every query and write runs inside :func:`repro.engine.faults.scope`
tagged with the session id, so session-scoped fault specs crash exactly
this session's work while concurrent sessions proceed untouched.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import replace
from typing import Dict, List, Optional

from repro.catalog.catalog import Database
from repro.engine import faults
from repro.engine.dataset import DataSet
from repro.engine.executor import ExecutorConfig
from repro.engine.governor import CancellationToken
from repro.server.admission import AdmissionController
from repro.server.snapshot import Snapshot, VersionedCatalog
from repro.session import QueryReport, Session
from repro.statement import PlanMemo


class ServerSession:
    """One client's handle: snapshot queries, serialized writes, cancel."""

    def __init__(
        self,
        server: "Server",
        session_id: str,
        tenant: str,
        executor_config: ExecutorConfig,
        policy: str = "cost",
    ) -> None:
        self.server = server
        self.id = session_id
        self.tenant = tenant
        self.executor_config = executor_config
        self.policy = policy
        self.queries = 0
        self.writes = 0
        self.last_epoch = 0
        self.closed = False
        self._token: Optional[CancellationToken] = None
        self._token_lock = threading.Lock()

    # -- reads ---------------------------------------------------------------

    def query(self, sql: str) -> DataSet:
        return self.report(sql).result

    def report(self, sql: str) -> QueryReport:
        """Admit, pin a snapshot, run the full planner/executor stack.

        The report's ``snapshot_epoch`` records the pinned epoch — the
        contract the chaos harness checks: the rows equal a serial
        replay of the write log up to exactly that epoch.
        """
        self._ensure_open()
        grant = self.server.admission.admit(self.tenant)
        try:
            token = CancellationToken()
            with self._token_lock:
                self._token = token
            limit = grant.memory_limit_bytes
            # The admitted memory slice *is* the query's governor budget:
            # admission and enforcement meter the same bytes.  Neither it
            # nor the token is part of the plan key.
            config = replace(
                self.executor_config,
                cancellation=token,
                memory_limit_bytes=(
                    self.executor_config.memory_limit_bytes
                    if limit is None else limit
                ),
            )
            snapshot = self.server.catalog.snapshot()
            session = Session(
                snapshot.database, policy=self.policy, executor_config=config,
                plans=self.server.plans,
            )
            with faults.scope(self.id):
                report = session.report(sql)
            report.snapshot_epoch = snapshot.epoch
            self.queries += 1
            self.last_epoch = snapshot.epoch
            return report
        finally:
            with self._token_lock:
                self._token = None
            grant.release()

    def snapshot(self) -> Snapshot:
        """Pin and return a raw snapshot (no admission: it is just
        pointer copies, useful for consistency checkers)."""
        self._ensure_open()
        return self.server.catalog.snapshot()

    # -- writes --------------------------------------------------------------

    def execute(self, sql: str) -> int:
        """Run one DDL/DML statement through the serialized commit path;
        returns the commit epoch.  Writes hold an admission slot too —
        a saturated server turns writers away the same way it turns
        readers away."""
        self._ensure_open()
        grant = self.server.admission.admit(self.tenant)
        try:
            with faults.scope(self.id):
                epoch = self.server.catalog.execute(sql, session=self.id)
            self.writes += 1
            self.last_epoch = epoch
            return epoch
        finally:
            grant.release()

    # -- control -------------------------------------------------------------

    def cancel(self, reason: str = "") -> bool:
        """Cancel the in-flight query, if any (from any thread).

        Returns whether a query was actually in flight; the cancelled
        query raises the typed
        :class:`~repro.errors.QueryCancelled` at its next governor
        check, exactly like single-session cancellation.
        """
        with self._token_lock:
            token = self._token
        if token is None:
            return False
        token.cancel(reason or f"cancelled by session {self.id}")
        return True

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.server._forget(self)

    def _ensure_open(self) -> None:
        if self.closed:
            raise RuntimeError(f"session {self.id} is closed")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServerSession({self.id}, tenant={self.tenant}, "
            f"queries={self.queries}, writes={self.writes})"
        )


class Server:
    """The multi-session runtime: versioned catalog + admission control."""

    def __init__(
        self,
        database: Optional[Database] = None,
        *,
        max_slots: Optional[int] = None,
        max_bytes: Optional[int] = None,
        tenant_slots: Optional[int] = None,
        tenant_bytes: Optional[int] = None,
        default_query_bytes: int = 0,
        executor_config: ExecutorConfig = ExecutorConfig(),
        policy: str = "cost",
    ) -> None:
        self.catalog = VersionedCatalog(database)
        self.admission = AdmissionController(
            max_slots=max_slots,
            max_bytes=max_bytes,
            tenant_slots=tenant_slots,
            tenant_bytes=tenant_bytes,
            default_query_bytes=default_query_bytes,
        )
        self.executor_config = executor_config
        self.policy = policy
        #: The plans every session's reads share (thread-safe).
        self.plans = PlanMemo()
        self._sessions: Dict[str, ServerSession] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def open_session(
        self,
        tenant: str = "default",
        session_id: Optional[str] = None,
        executor_config: Optional[ExecutorConfig] = None,
    ) -> ServerSession:
        with self._lock:
            if session_id is None:
                session_id = f"s{next(self._ids)}"
            if session_id in self._sessions:
                raise ValueError(f"session id {session_id!r} already open")
            session = ServerSession(
                self,
                session_id,
                tenant,
                executor_config
                if executor_config is not None
                else self.executor_config,
                self.policy,
            )
            self._sessions[session_id] = session
            return session

    def sessions(self) -> List[ServerSession]:
        with self._lock:
            return sorted(self._sessions.values(), key=lambda s: s.id)

    def _forget(self, session: ServerSession) -> None:
        with self._lock:
            self._sessions.pop(session.id, None)

    def stats(self) -> Dict[str, object]:
        admission = self.admission.stats()
        with self._lock:
            open_sessions = len(self._sessions)
        return {
            "epoch": self.catalog.epoch,
            "commits": self.catalog.commits,
            "aborts": self.catalog.aborts,
            "open_sessions": open_sessions,
            **admission,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Server(epoch={self.catalog.epoch}, "
            f"sessions={len(self._sessions)})"
        )
