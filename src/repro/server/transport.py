"""The shard worker: the process on the far end of the socket wire.

The *mechanical* half of the fault-tolerant shard transport (the policy
half — retries, health, failover — lives in :mod:`repro.engine.shardrpc`).
It reuses the TCP bones of the server's line protocol
(:mod:`repro.server.net`) but speaks the framed binary codec of
:mod:`repro.engine.wire`, because shard deliveries carry pickled plans and
column blocks, not SQL strings.

``repro shard-worker`` runs :func:`run_worker`: bind a loopback socket,
print a ``READY`` line (the :class:`~repro.engine.shardrpc.ShardPool`
parses it to learn the bound port), and serve framed requests one
connection at a time.  Operations:

* ``hello`` — handshake: version check, returns pid + wire version;
* ``ping`` — health probe (heartbeats), returns served/duplicate counts;
* ``execute`` — hand the request and this worker's
  :class:`~repro.engine.wire.PartitionStore` to
  :func:`repro.engine.exchange.run_shard` (that module owns what a shard
  request and its response hold) and return its response block.  The latest
  ``result`` responses are cached by **request ID**: a retried or duplicated
  request is answered from the cache without re-executing, so retransmitted
  partials can never double-count.  A ``missing`` reply is never cached — it
  describes the store, not the request.
* ``shutdown`` — drain: stop serving after the reply flushes.
"""

from __future__ import annotations

import os
import socket
import sys
from typing import Any, BinaryIO, Dict, Optional

from repro.engine.wire import (
    READY_PREFIX,
    WIRE_VERSION,
    PartitionStore,
    pack_frame,
    recv_frame,
    restricted_loads,
    send_frame,
    wire_dumps,
)
from repro.errors import ReproError, WireFormatError

#: The worker and, for who measures a frame from the worker's side of the
#: wire (``bench/workloads/shard_socket.py``), the codec it answers in.
__all__ = [
    "RESPONSE_CACHE_SIZE", "ShardWorker", "run_worker",
    "pack_frame", "restricted_loads", "wire_dumps",
]

#: Completed responses a worker keeps for retransmissions.  A retry or a
#: duplicate follows its original within one delivery's retry loop, with at
#: most the other coordinator threads' deliveries in between; a response
#: holds a whole shard result (as its pickled block), so keeping every one
#: grew the worker by its answers for as long as it lived.  A retransmission that does arrive
#: after its response was dropped re-runs the plan over the partition it
#: names and gets the same answer.
RESPONSE_CACHE_SIZE = 64


class ShardWorker:
    """One shard worker process' serving loop (testable in-process).

    Holds the resident partitions and the idempotency cache: the latest
    :data:`RESPONSE_CACHE_SIZE` completed ``execute`` results keyed by
    request ID.  A retransmitted request — a retry after a lost response,
    or an injected duplicate — is served from the cache without running the
    plan again, so retried partials can never double-count.  A cached
    response holds its result as the block of bytes ``run_shard`` pickled
    (one ``bytes`` object per entry, not a list of row tuples), so
    answering from the cache re-frames those bytes and pickles no value.
    """

    def __init__(self) -> None:
        self.partitions = PartitionStore()
        self._responses: Dict[str, Dict[str, Any]] = {}
        self.served = 0
        self.duplicates = 0
        self.draining = False

    # -- operations -------------------------------------------------------

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one request payload to its op handler."""
        op = request.get("op")
        try:
            if op == "hello":
                return self._hello(request)
            if op == "ping":
                return {
                    "op": "pong",
                    "served": self.served,
                    "duplicates": self.duplicates,
                }
            if op == "execute":
                return self._execute(request)
            if op == "shutdown":
                self.draining = True
                return {"op": "bye"}
            raise WireFormatError(f"unknown wire op {op!r}")
        except ReproError as error:
            return {
                "op": "error",
                "error_type": type(error).__name__,
                "message": str(error),
                "retryable": isinstance(error, WireFormatError),
            }

    def _hello(self, request: Dict[str, Any]) -> Dict[str, Any]:
        peer_version = request.get("version")
        if peer_version != WIRE_VERSION:
            raise WireFormatError(
                f"handshake version mismatch: coordinator speaks "
                f"v{peer_version}, worker v{WIRE_VERSION}"
            )
        return {"op": "hello", "version": WIRE_VERSION, "pid": os.getpid()}

    def _execute(self, request: Dict[str, Any]) -> Dict[str, Any]:
        # Deferred (tests/test_layering.py): a worker announces READY before
        # it loads the executor stack its first execute needs.
        from repro.engine.exchange import run_shard

        request_id = request.get("request_id")
        if not isinstance(request_id, str):
            raise WireFormatError("execute request carries no request_id")
        cached = self._responses.get(request_id)
        if cached is not None:
            self.duplicates += 1
            return cached
        response = run_shard(request, self.partitions)
        if response["op"] == "result":
            self._responses[request_id] = response
            if len(self._responses) > RESPONSE_CACHE_SIZE:
                del self._responses[next(iter(self._responses))]  # the oldest
            self.served += 1
        return response

    # -- the serving loop -------------------------------------------------

    def serve_connection(self, stream_in: BinaryIO, stream_out: BinaryIO) -> None:
        """Answer frames on one connection until EOF or drain."""
        while not self.draining:
            try:
                request, __ = recv_frame(stream_in)
            except EOFError:
                return
            except WireFormatError as error:
                # A garbled frame is answered, not fatal: the header kept
                # the stream in sync, so the caller can retransmit.
                try:
                    send_frame(stream_out, {
                        "op": "error",
                        "error_type": "WireFormatError",
                        "message": str(error),
                        "retryable": True,
                    })
                    continue
                except OSError:
                    return
            response = self.handle(request)
            try:
                send_frame(stream_out, response)
            except OSError:
                return


def run_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    out: Optional[Any] = None,
) -> int:
    """Entry point for ``repro shard-worker``: bind, announce, serve.

    Prints ``SHARD-WORKER READY port=<p> pid=<p>`` once listening (the
    pool parses this line to learn an ephemeral port), then serves
    connections sequentially until a ``shutdown`` request or SIGTERM.
    """
    sink = out if out is not None else sys.stdout
    worker = ShardWorker()
    listener = socket.create_server((host, port))
    bound_port = listener.getsockname()[1]
    sink.write(f"{READY_PREFIX} port={bound_port} pid={os.getpid()}\n")
    sink.flush()
    try:
        while not worker.draining:
            try:
                connection, __ = listener.accept()
            except OSError:
                break
            with connection:
                reader = connection.makefile("rb")
                writer = connection.makefile("wb")
                worker.serve_connection(reader, writer)
    finally:
        listener.close()
    return 0
