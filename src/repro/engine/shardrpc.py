"""Fault-tolerant shard RPC: worker pool, health ledger, retry + failover.

:mod:`repro.engine.wire` defines *how* bytes move (framing, restricted
unpickling) and :mod:`repro.server.transport` is the worker loop on the far
end; this module decides *when and where* they move; *what* a delivery
holds is opaque here (the request and response format is
:mod:`repro.engine.exchange`'s).  The :class:`ShardPool` owns one OS worker process per shard slot — spawn
(``repro shard-worker`` as a subprocess, parsing its ``READY`` line for
the ephemeral port), handshake (``hello`` with a wire-version check),
heartbeat (``ping``; each RTT is kept on its handle for ``.shards``),
drain (``shutdown``) and kill.

The pool is the ``"socket"`` backend of the Exchange delivery loop, which
uses ``execute``, ``counters.snapshot()`` and ``health()`` of it.  Every
socket delivery goes through :meth:`ShardPool.execute`, which
layers the fault-tolerance contract over the raw wire:

* **per-call deadline** — each RPC gets ``rpc_timeout_seconds`` of
  socket time; a silent worker raises
  :class:`~repro.errors.ShardUnavailable` instead of hanging the query;
* **jittered-exponential retries** — via the same
  :func:`repro.engine.retry.call_with_backoff` helper the admission
  client uses, :data:`RPC_ATTEMPTS` tries with
  ``retry_on=(ShardUnavailable, WireFormatError)`` and an ``on_retry`` hook metering every backoff into the RPC counters;
* **idempotent request IDs** — each delivery carries a random ID; the worker
  caches completed responses by ID, so a retransmitted request (retry
  after a lost reply, or an injected duplicate) is answered from the
  cache without re-running the shard plan — retried partials can never
  double-count;
* **health ledger** — consecutive failures move a shard healthy →
  suspect → dead (:data:`SUSPECT_AFTER` / :data:`DEAD_AFTER`); any
  success snaps it back to healthy; a respawn marks it recovered;
* **failover** — when a shard's own worker is dead (or dies mid-call),
  the delivery is re-dispatched to a live peer: a request names its
  partition by an id of immutable content, and a worker that does not hold
  it says so instead of guessing, so any worker computes the identical
  partial.  Every response is stamped with the ``worker`` that gave it:
  the Exchange loop answers ``missing`` by sending the partition *there*
  (``execute(worker, ...)`` — a new delivery to that slot, not a retry,
  timeout or failover of the first).  Only when *no* worker is live
  does :meth:`execute` raise :class:`~repro.engine.faults.KernelFault`,
  handing the query to the existing degrade ladder in
  :mod:`repro.engine.exchange` — single-site fallback, answer unchanged.

The deterministic network fault injector hooks in one layer down:
:meth:`WorkerHandle.call` asks :func:`repro.engine.faults.network_actions`
for this message's planted faults and applies them coordinator-side
(drop the send and wait out the timeout; sleep on delay; double-send on
duplicate and drain both replies; flip a payload byte on garble;
short-circuit to :class:`~repro.errors.ShardUnavailable` on partition).
Applying faults at the call site keeps the schedule deterministic — the
spec's occurrence counter observes messages in coordinator order — while
still driving every real code path above it: timeouts, CRC rejections,
the duplicate cache, the health ledger, failover.
"""

from __future__ import annotations

import atexit
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine import faults
from repro.engine.retry import call_with_backoff
from repro.engine.wire import (
    READY_PREFIX,
    WIRE_VERSION,
    pack_frame,
    recv_frame,
    send_frame,
)
from repro.errors import ShardUnavailable, WireFormatError

#: Consecutive failures that move a shard healthy → suspect.
SUSPECT_AFTER = 1
#: Consecutive failures that move a shard suspect → dead.
DEAD_AFTER = 3
#: Tries one delivery gets on one worker before the caller fails over.
RPC_ATTEMPTS = 3

HEALTH_STATES = ("healthy", "suspect", "dead")


@dataclass
class RpcCounters:
    """Aggregate transport counters for one pool (coordinator side)."""

    calls: int = 0
    retries: int = 0
    timeouts: int = 0
    failovers: int = 0
    duplicates: int = 0
    wire_bytes: int = 0
    #: Partitions sent to a worker that answered ``missing`` (counted by
    #: the Exchange loop, on either backend).
    reseeds: int = 0

    def snapshot(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class WorkerHandle:
    """One shard worker process: socket endpoint + health record."""

    label: str
    port: int = 0
    process: Optional[subprocess.Popen] = None
    health: str = "healthy"
    consecutive_failures: int = 0
    heartbeat_rtt: float = 0.0
    respawns: int = 0
    transitions: List[str] = field(default_factory=list)
    _sock: Optional[socket.socket] = None
    _reader: Any = None
    _writer: Any = None
    #: Serializes request/response pairs on this worker's connection —
    #: concurrent sessions share the pool, and interleaved frames on one
    #: socket would desynchronize both callers.
    _call_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False
    )

    # -- health ledger ----------------------------------------------------

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.health != "healthy":
            self._transition("healthy")

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.consecutive_failures >= DEAD_AFTER:
            if self.health != "dead":
                self._transition("dead")
        elif self.consecutive_failures >= SUSPECT_AFTER:
            if self.health == "healthy":
                self._transition("suspect")

    def mark_recovered(self) -> None:
        self.consecutive_failures = 0
        self.respawns += 1
        self._transition("recovered")
        self.health = "healthy"

    def _transition(self, state: str) -> None:
        self.transitions.append(state)
        if state in HEALTH_STATES:
            self.health = state

    @property
    def alive(self) -> bool:
        return (
            self.health != "dead"
            and self.process is not None
            and self.process.poll() is None
        )

    # -- connection -------------------------------------------------------

    def connect(self, timeout: float) -> None:
        if self._sock is not None:
            return
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=timeout)
        self._sock = sock
        self._reader = sock.makefile("rb")
        self._writer = sock.makefile("wb")

    def disconnect(self) -> None:
        for stream in (self._reader, self._writer, self._sock):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        self._sock = self._reader = self._writer = None

    def call(
        self,
        payload: Dict[str, Any],
        timeout: float,
        counters: Optional[RpcCounters] = None,
    ) -> Dict[str, Any]:
        """One framed request/response on this worker's connection.

        Applies the armed network faults for this message (see module
        doc), meters wire bytes, and converts every socket-level failure
        into :class:`~repro.errors.ShardUnavailable` after dropping the
        (possibly desynchronized) connection.
        """
        with self._call_lock:
            return self._call_locked(payload, timeout, counters)

    def _call_locked(
        self,
        payload: Dict[str, Any],
        timeout: float,
        counters: Optional[RpcCounters] = None,
    ) -> Dict[str, Any]:
        op = str(payload.get("op"))
        actions = faults.network_actions(self.label, op)
        kinds = [spec.kind for spec in actions]
        if "partition" in kinds:
            self.disconnect()
            raise ShardUnavailable(
                f"{self.label}: network partition (injected)"
            )
        for spec in actions:
            if spec.kind == "delay":
                time.sleep(spec.delay_seconds)
        sends = 2 if "duplicate" in kinds else 1
        try:
            self.connect(timeout)
            assert self._sock is not None
            self._sock.settimeout(timeout)
            if "drop" in kinds:
                # Lose the request on the floor: nothing is sent, so the
                # recv below times out and the caller retries.
                pass
            elif "garble" in kinds:
                frame = bytearray(pack_frame(payload))
                frame[-1] ^= 0xFF  # corrupt the last payload byte in transit
                self._writer.write(bytes(frame))
                self._writer.flush()
                if counters is not None:
                    counters.wire_bytes += len(frame)
            else:
                for __ in range(sends):
                    sent = send_frame(self._writer, payload)
                    if counters is not None:
                        counters.wire_bytes += sent
            # Read as many replies as requests hit the wire, keeping the
            # connection in sync; the last reply wins (for a duplicate,
            # both are byte-identical — the second comes from the
            # worker's request-ID cache).
            response: Optional[Dict[str, Any]] = None
            for __ in range(sends):
                response, nbytes = recv_frame(self._reader)
                if counters is not None:
                    counters.wire_bytes += nbytes
            assert response is not None
        except (socket.timeout, TimeoutError) as error:
            self.disconnect()
            if counters is not None:
                counters.timeouts += 1
            raise ShardUnavailable(
                f"{self.label}: no reply within {timeout:.3f}s"
            ) from error
        except (OSError, EOFError) as error:
            self.disconnect()
            raise ShardUnavailable(f"{self.label}: {error}") from error
        if response.get("op") == "error":
            if response.get("error_type") == "WireFormatError":
                raise WireFormatError(str(response.get("message")))
            raise faults.KernelFault(
                f"{self.label}: {response.get('error_type')}: "
                f"{response.get('message')}"
            )
        return response


class ShardPool:
    """Owns the shard worker processes and the fault-tolerant RPC layer."""

    def __init__(
        self,
        size: int,
        *,
        timeout_seconds: float = 5.0,
        python: Optional[str] = None,
        spawn_timeout: float = 20.0,
    ) -> None:
        self.size = size
        self.timeout_seconds = timeout_seconds
        self.counters = RpcCounters()
        self._python = python or sys.executable
        self._spawn_timeout = spawn_timeout
        self._lock = threading.Lock()
        self.workers: List[WorkerHandle] = [
            WorkerHandle(label=f"shard-{i}") for i in range(size)
        ]

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        for worker in self.workers:
            if not worker.alive:
                self._spawn(worker)

    def ensure(self) -> None:
        """Respawn any dead workers (between queries): dead → recovered."""
        for worker in self.workers:
            if not worker.alive:
                self._respawn(worker)

    def _spawn(self, worker: WorkerHandle) -> None:
        process = subprocess.Popen(
            [self._python, "-m", "repro", "shard-worker", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        assert process.stdout is not None
        deadline = time.monotonic() + self._spawn_timeout
        line = ""
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if line.startswith(READY_PREFIX) or not line:
                break
        if not line.startswith(READY_PREFIX):
            process.kill()
            raise ShardUnavailable(
                f"{worker.label}: worker did not announce READY"
            )
        fields = dict(
            part.split("=", 1) for part in line.split() if "=" in part
        )
        worker.port = int(fields["port"])
        worker.process = process
        worker.disconnect()
        # Handshake: pin the wire version before the first delivery.
        hello = worker.call(
            {"op": "hello", "version": WIRE_VERSION}, self.timeout_seconds
        )
        if hello.get("version") != WIRE_VERSION:
            raise WireFormatError(
                f"{worker.label}: handshake returned wire "
                f"v{hello.get('version')}, expected v{WIRE_VERSION}"
            )

    def _respawn(self, worker: WorkerHandle) -> None:
        if worker.process is not None and worker.process.poll() is None:
            worker.process.kill()
            worker.process.wait()
        worker.disconnect()
        self._spawn(worker)
        worker.mark_recovered()

    def heartbeat(self) -> Dict[str, float]:
        """Ping every live worker; each RTT stays on its handle for
        :meth:`health` (the shell's ``.shards``)."""
        rtts: Dict[str, float] = {}
        for worker in self.workers:
            if not worker.alive:
                continue
            started = time.monotonic()
            try:
                worker.call({"op": "ping"}, self.timeout_seconds, self.counters)
            except (ShardUnavailable, WireFormatError):
                worker.record_failure()
                continue
            worker.heartbeat_rtt = time.monotonic() - started
            worker.record_success()
            rtts[worker.label] = worker.heartbeat_rtt
        return rtts

    def drain(self) -> None:
        """Politely shut every worker down, then reap.

        A worker the ledger already wrote off (dead health, or the RPC
        shutdown itself failing) gets no grace period — its process is
        killed outright rather than waited on, so draining a degraded
        pool never stalls."""
        for worker in self.workers:
            polite = worker.alive
            if polite:
                try:
                    worker.call({"op": "shutdown"}, self.timeout_seconds)
                except (ShardUnavailable, WireFormatError):
                    polite = False
            worker.disconnect()
            if worker.process is not None:
                if not polite:
                    worker.process.kill()
                try:
                    worker.process.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    worker.process.kill()
                    worker.process.wait()

    def kill(self, index: int) -> None:
        """SIGKILL one worker (chaos harness); the ledger learns via RPC."""
        worker = self.workers[index]
        if worker.process is not None and worker.process.poll() is None:
            worker.process.kill()
            worker.process.wait()
        worker.disconnect()

    # -- the RPC layer ----------------------------------------------------

    def execute(self, index: int, request: Dict[str, Any]) -> Dict[str, Any]:
        """Deliver one shard execution, retrying and failing over; the
        response says which ``worker`` gave it.

        ``request`` is stamped with a fresh random idempotency ID here —
        retries and injected duplicates reuse the same ID, so the worker's
        response cache guarantees at-most-once execution per delivery.
        """
        request = dict(request)
        request.setdefault("request_id", os.urandom(16).hex())
        # Try the assigned worker first, then every live peer (a worker
        # without the partition answers ``missing``, never a wrong partial).
        order = [index] + [i for i in range(len(self.workers)) if i != index]
        last_error: Optional[Exception] = None
        for position in order:
            worker = self.workers[position]
            if not worker.alive:
                continue
            if position != index:
                self.counters.failovers += 1
            try:
                response = self._call_with_retries(worker, request)
            except (ShardUnavailable, WireFormatError) as error:
                last_error = error
                continue
            response["worker"] = position
            return response
        raise faults.KernelFault(
            f"shard-{index}: no live worker could serve the delivery "
            f"({last_error})"
        )

    def _call_with_retries(
        self, worker: WorkerHandle, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        def meter(_error: BaseException, _delay: float) -> None:
            self.counters.retries += 1

        self.counters.calls += 1

        def attempt() -> Dict[str, Any]:
            try:
                return worker.call(
                    request, self.timeout_seconds, self.counters
                )
            except (ShardUnavailable, WireFormatError):
                worker.record_failure()
                raise

        response = call_with_backoff(
            attempt,
            attempts=RPC_ATTEMPTS,
            base_delay=0.005,
            max_delay=0.1,
            deadline_seconds=self.timeout_seconds * RPC_ATTEMPTS,
            seed=0,
            retry_on=(ShardUnavailable, WireFormatError),
            on_retry=meter,
        )
        worker.record_success()
        return response

    # -- introspection ----------------------------------------------------

    def health(self) -> List[Dict[str, Any]]:
        """Per-shard health for ``.shards`` and ``repro explain``."""
        report = []
        for worker in self.workers:
            state = worker.health
            if state != "dead" and not worker.alive and worker.process:
                state = "dead"  # process gone but no RPC has noticed yet
            report.append({
                "shard": worker.label,
                "health": state,
                "rtt": worker.heartbeat_rtt,
                "respawns": worker.respawns,
                "failures": worker.consecutive_failures,
                "transitions": tuple(worker.transitions),
            })
        return report


# -- the process-wide pool (one per coordinator) -----------------------------

_POOL: Optional[ShardPool] = None
_POOL_LOCK = threading.Lock()


def get_pool(size: int, *, timeout_seconds: float = 5.0) -> ShardPool:
    """The shared pool, grown to at least ``size`` live workers.

    One pool per coordinator process: spawning workers per query would
    hide exactly the lifecycle failures (flaps, stale connections) this
    layer exists to survive.  A dead worker is respawned here — between
    queries — which is what drives the dead → recovered transition.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL.size < size:
            previous = _POOL
            if previous is not None:
                previous.drain()
            _POOL = ShardPool(size, timeout_seconds=timeout_seconds)
            _POOL.start()
        else:
            _POOL.timeout_seconds = timeout_seconds
            _POOL.ensure()
        return _POOL


def active_pool() -> Optional[ShardPool]:
    return _POOL


def shutdown_pool() -> None:
    """Drain and forget the shared pool (tests, CLI exit)."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.drain()
            _POOL = None


# Whatever entry point spawned the pool (shell, bench, a test run that
# skipped its own teardown), the coordinator exiting must not strand
# worker processes.
atexit.register(shutdown_pool)
