"""Admission control: carve per-query budgets from a server-level pool.

The single-session stack already meters one execution against its budget
(:class:`~repro.engine.governor.ResourceGovernor`).  The server's problem
is the level above: *which* queries get a budget at all when many
sessions contend.  The :class:`AdmissionController` answers it with the
reject-don't-queue discipline of
:class:`~repro.engine.governor.BudgetPool`:

* a query asks for one **slot** and a **memory slice** before it starts;
* if the server pool (or the tenant's quota pool) is exhausted, the
  query is *rejected immediately* with the typed
  :class:`~repro.errors.AdmissionRejected` (resource family, exit code
  5) carrying a ``retry_after`` hint — nobody ever blocks inside the
  server waiting for another tenant's work;
* an admitted query gets a :class:`Grant` whose ``memory_limit_bytes``
  becomes the per-query governor's budget, so the sum of all concurrent
  governors' budgets can never exceed the pool: the governor *is* the
  enforcement arm of admission control.

``retry_after`` is deterministic under a fixed interleaving: the base
hint scaled by the pool's rejected-since-last-release count, so a loaded
server tells clients to back off longer (and
:func:`repro.engine.retry.call_with_backoff` adds client-side jitter on
top).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.engine.governor import BudgetPool
from repro.errors import AdmissionRejected

#: Base retry hint (seconds) at load 1; scales linearly with pool load.
BASE_RETRY_AFTER = 0.02
#: Ceiling for the hint — a saturated pool should not push clients into
#: multi-second sleeps in tests or interactive use.
MAX_RETRY_AFTER = 0.5


class Grant:
    """An admitted query's reservation: release exactly once when done."""

    __slots__ = ("controller", "tenant", "memory_limit_bytes", "_released")

    def __init__(
        self,
        controller: "AdmissionController",
        tenant: str,
        memory_limit_bytes: Optional[int],
    ) -> None:
        self.controller = controller
        self.tenant = tenant
        self.memory_limit_bytes = memory_limit_bytes
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self.controller._release(self)

    def __enter__(self) -> "Grant":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class AdmissionController:
    """Server-wide and per-tenant budget pools with reject semantics."""

    def __init__(
        self,
        max_slots: Optional[int] = None,
        max_bytes: Optional[int] = None,
        tenant_slots: Optional[int] = None,
        tenant_bytes: Optional[int] = None,
        default_query_bytes: int = 0,
    ) -> None:
        self.pool = BudgetPool(max_slots, max_bytes)
        self.tenant_slots = tenant_slots
        self.tenant_bytes = tenant_bytes
        self.default_query_bytes = default_query_bytes
        self._tenants: Dict[str, BudgetPool] = {}
        self._lock = threading.Lock()
        self.admitted = 0
        self.rejected = 0

    def _tenant_pool(self, tenant: str) -> Optional[BudgetPool]:
        if self.tenant_slots is None and self.tenant_bytes is None:
            return None
        with self._lock:
            pool = self._tenants.get(tenant)
            if pool is None:
                pool = BudgetPool(self.tenant_slots, self.tenant_bytes)
                self._tenants[tenant] = pool
            return pool

    def admit(self, tenant: str = "default", nbytes: Optional[int] = None) -> Grant:
        """Reserve (slot, bytes) for one query or raise AdmissionRejected.

        Tenant quota is checked first (a noisy tenant is turned away at
        its own fence before it can touch the shared pool), then the
        server pool; a server-pool rejection rolls the tenant
        reservation back so quota is never leaked.
        """
        want = self.default_query_bytes if nbytes is None else nbytes
        tenant_pool = self._tenant_pool(tenant)
        if tenant_pool is not None:
            exhausted = tenant_pool.try_reserve(want)
            if exhausted is not None:
                self.rejected += 1
                raise AdmissionRejected(
                    f"tenant {tenant!r} over {exhausted} quota",
                    resource=exhausted,
                    retry_after=self._retry_after(tenant_pool),
                )
        exhausted = self.pool.try_reserve(want)
        if exhausted is not None:
            if tenant_pool is not None:
                tenant_pool.release(want)
            self.rejected += 1
            raise AdmissionRejected(
                f"server {exhausted} budget exhausted",
                resource=exhausted,
                retry_after=self._retry_after(self.pool),
            )
        self.admitted += 1
        # A zero-byte reservation means "no memory cap was requested":
        # the query runs with an unlimited governor, but still holds a
        # concurrency slot.
        return Grant(self, tenant, want or None)

    def _release(self, grant: Grant) -> None:
        nbytes = grant.memory_limit_bytes or 0
        tenant_pool = self._tenants.get(grant.tenant)
        if tenant_pool is not None:
            tenant_pool.release(nbytes)
        self.pool.release(nbytes)

    def _retry_after(self, pool: BudgetPool) -> float:
        return min(MAX_RETRY_AFTER, BASE_RETRY_AFTER * (1 + pool.load()))

    def stats(self) -> Dict[str, int]:
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "used_slots": self.pool.used_slots,
            "peak_slots": self.pool.peak_slots,
            "used_bytes": self.pool.used_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AdmissionController({self.pool!r}, tenants={len(self._tenants)})"
