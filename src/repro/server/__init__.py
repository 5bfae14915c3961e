"""The multi-session server: snapshot reads, serialized writes, admission.

One process, many concurrent sessions over one shared database.  The
package layers four pieces on the existing single-session stack:

* :mod:`repro.server.snapshot` — a :class:`VersionedCatalog` wrapping the
  authoritative :class:`~repro.catalog.catalog.Database` with an MVCC
  copy-on-write protocol: published tables are frozen, readers pin an
  epoch and share them lock-free, writers clone → mutate → atomically
  publish under per-table locks;
* :mod:`repro.server.admission` — an :class:`AdmissionController` carving
  per-query budgets out of a server-level
  :class:`~repro.engine.governor.BudgetPool` (reject, never queue);
* :mod:`repro.engine.retry` — the client-side
  :func:`call_with_backoff` helper matching the admission contract;
* :mod:`repro.server.server` — :class:`Server` / :class:`ServerSession`,
  the user-facing API tying the pieces together;
* :mod:`repro.server.chaos` — the deterministic concurrency harness that
  proves every read is snapshot-consistent (equal to a serial replay of
  the write log at the pinned epoch) under mixed readers, writers,
  cancellations and injected faults;
* :mod:`repro.server.net` — a small threaded TCP front-end with a
  line protocol (``repro serve``).
"""

from repro.engine.retry import call_with_backoff
from repro.server.admission import AdmissionController, Grant
from repro.server.server import Server, ServerSession
from repro.server.snapshot import Snapshot, VersionedCatalog

__all__ = [
    "AdmissionController",
    "Grant",
    "Server",
    "ServerSession",
    "Snapshot",
    "VersionedCatalog",
    "call_with_backoff",
]
