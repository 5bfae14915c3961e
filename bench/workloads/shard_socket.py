"""``shard_socket``: Section 7 on a real wire.

``Session.report`` with two shard worker processes behind the framed
socket RPC, on the two-table schema with ``A`` hash-partitioned on
``BRef``.  Pickling, framing, the round trips and worker execution
dominate; framed bytes repeat exactly from run to run, so shipping less
(worker-resident partitions) has a metric waiting for it.  A statement
waits for both shards one after the other, so its latency follows the sum
of the deliveries, the slower one first.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Sequence

from repro.engine.executor import ExecutorConfig
from repro.engine.shardrpc import get_pool, shutdown_pool
from repro.server.transport import pack_frame, restricted_loads, wire_dumps
from repro.storage.partition import PartitionSpec, partition_table

from bench import datagen, stepwise
from bench.harness import Tracer, layer_ms, median
from bench.sqlrounds import SqlContext, SqlWorkload

SHARDS = 2
#: Fitted to the window: a round of three statements takes 0.12 s when the
#: host is fast and 0.17 s when it is slow, so 22 s hold 120 rounds at either.
FULL = {"n_a": 3000, "n_b": 50, "a_groups": 200}
QUICK = {"n_a": 500, "n_b": 10, "a_groups": 40}
PROBE_REPEATS = 7

STATEMENTS = [
    (  # TestFD yes: two-phase, one row per group crosses the wire
        "per_b",
        "SELECT B.BId, B.Name, SUM(A.Val) AS s, COUNT(A.AId) AS n "
        "FROM A, B WHERE A.BRef = B.BId GROUP BY B.BId, B.Name",
    ),
    (  # TestFD no: GKey is no key of B, every A row is shipped
        "per_gkey",
        "SELECT A.GKey, SUM(A.Val) AS s FROM A, B WHERE A.BRef = B.BId GROUP BY A.GKey",
    ),
    ("single_table", "SELECT A.BRef, SUM(A.Val) AS s FROM A GROUP BY A.BRef"),
]


class ShardSocket(SqlWorkload):
    name = "shard_socket"
    config = ExecutorConfig(engine="vector", shards=SHARDS, transport="socket")

    def __init__(self) -> None:
        self.spawn_seconds = 0.0

    def sizes(self, quick: bool) -> dict:
        return QUICK if quick else FULL

    def build(self, seed: int, sizes: dict):
        database = datagen.two_table_database()
        database.set_partitioning("A", PartitionSpec("hash", "BRef", SHARDS))
        return database, datagen.two_table_rows(seed, **sizes), STATEMENTS

    def start(self, context: SqlContext) -> None:
        started = time.perf_counter()
        get_pool(SHARDS)
        self.spawn_seconds = time.perf_counter() - started

    def close(self, context: SqlContext) -> None:
        shutdown_pool()

    def extra_layers(
        self, context: SqlContext, steps: Sequence[stepwise.Step], socket_exec_ms: float
    ) -> dict:
        n = len(steps)
        exchanges = [e for step in steps for e in step.stats.exchanges]
        pool = get_pool(SHARDS)
        before = pool.counters.snapshot()
        for __, sql in context.statements:
            context.session.report(sql)
        after = pool.counters.snapshot()
        rtts = pool.heartbeat()

        table = context.database.table("A")
        spec = context.database.partition_spec("A")
        partition_times, frame_times = [], []
        for __ in range(PROBE_REPEATS):
            fresh = table.clone()  # a clone has no cached twins
            started = time.perf_counter()
            partitions = partition_table(fresh, spec)
            partition_times.append(time.perf_counter() - started)
            # One delivery of this workload's size: a shard of A plus a plan.
            request = {"op": "execute", "table": partitions[0], "plan": steps[0].plan}
            blob = wire_dumps(request)
            started = time.perf_counter()
            pack_frame(request)
            restricted_loads(blob)
            frame_times.append(time.perf_counter() - started)
        # The same statements with the shards run in-process: what is left
        # of the traced Executor.run is the wire (pickling partitions and
        # plans, framing, round trips, the workers' unpickling).  These
        # runs come last: a vector scan leaves its columnar cache on the
        # cached shard twins, and a twin carrying one no longer passes the
        # workers' restricted unpickler.
        memory = replace(self.config, transport="memory")
        tracer = Tracer()
        for repeat in range(PROBE_REPEATS):
            for name, sql in context.statements:
                stepwise.run_statement(
                    context.database, sql, memory, self.policy, tracer, repeat, name
                )
        memory_exec_ms = layer_ms(tracer.spans, "engine.exec", n)
        return {
            "exchange.rows_shipped": sum(e.rows_shipped for e in exchanges),
            "exchange.payload_bytes": sum(e.bytes_shipped for e in exchanges),
            "shardrpc.wire_bytes": after["wire_bytes"] - before["wire_bytes"],
            "shardrpc.calls": after["calls"] - before["calls"],
            "shardrpc.retries": after["retries"] - before["retries"],
            "shardrpc.timeouts": after["timeouts"] - before["timeouts"],
            "shardrpc.failovers": after["failovers"] - before["failovers"],
            "shardrpc.heartbeat_rtt_ms": median(list(rtts.values())) * 1000.0,
            "shardrpc.spawn_s": self.spawn_seconds,
            "shardrpc.rpc_ms": socket_exec_ms - memory_exec_ms,
            "transport.frame_ms": median(frame_times) * 1000.0,
            "storage.partition_ms": median(partition_times) * 1000.0,
        }


def run(options):
    return ShardSocket().run(options)
