"""The fault-tolerant shard RPC layer over real worker processes.

Everything here is marked ``transport`` (its own CI job) because each
test spawns OS processes; the suite still keeps tier-1 wall clock low by
sharing one small database and by sizing the pool at two workers.  The
contracts under test, in rough dependency order:

* pool lifecycle — spawn/handshake/heartbeat/drain, READY-line port
  discovery;
* socket deliveries bit-identical to the in-memory wire, with identical
  payload byte accounting;
* every network fault kind (drop/delay/duplicate/garble/partition)
  survived with the answer unchanged, metered in the RPC counters;
* idempotency — an injected duplicate is served from the worker's
  request-ID cache, never re-executed;
* the health ledger — healthy → suspect → dead on consecutive failures,
  dead → recovered on respawn, including a flapping shard between two
  queries of one session;
* failover — a SIGKILLed worker's delivery lands on a live peer; with
  *no* live peer the Exchange degrades to single-site and the answer
  still never changes;
* residency — a delivery names its partition and ships it only to a
  worker that says ``missing``: a respawned worker is re-seeded once, a
  dead primary's peer is re-seeded at the cost of one failover, every
  network fault kind is survived on the message that carries the twin,
  and a write between two reads re-seeds the new version while a reader
  pinned to the old epoch still finds the old one resident.

Occurrence-window schedules (``NetFaultSpec(kind, op="execute")`` fires on
the first ``execute`` message) keep meaning "a delivery that runs the
plan": those tests warm the store first.  ``TestResidency`` wants the other
message and says which one it indexes.
"""

from __future__ import annotations

import os

import pytest

from repro.algebra.ops import AggregateSpec, Exchange, GroupApply, Relation
from repro.catalog.catalog import Database
from repro.catalog.schema import Column, TableSchema
from repro.engine import faults
from repro.engine.executor import ExecutorConfig, execute
from repro.engine.faults import NetFaultSpec
from repro.engine.shardrpc import (
    DEAD_AFTER,
    ShardPool,
    active_pool,
    get_pool,
    shutdown_pool,
)
from repro.expressions.builder import avg, count, sum_
from repro.sqltypes.datatypes import INTEGER

pytestmark = pytest.mark.transport


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.create_table(
        TableSchema("T", [Column("k", INTEGER), Column("v", INTEGER)])
    )
    table = database.table("T")
    for i in range(60):
        table.insert([i % 7, i * 3])
    return database


@pytest.fixture(scope="module")
def plan():
    return GroupApply(
        Relation("T", "T"),
        ("T.k",),
        (
            AggregateSpec("c", count("T.v")),
            AggregateSpec("s", sum_("T.v")),
            AggregateSpec("a", avg("T.v")),
        ),
    )


@pytest.fixture(scope="module")
def node(plan):
    return Exchange(plan, keys=("T.k",), shards=2, merge=True)


@pytest.fixture(scope="module")
def baseline(db, plan):
    result, __ = execute(db, plan, config=ExecutorConfig())
    return result


@pytest.fixture()
def socket_config():
    return ExecutorConfig(shards=2, transport="socket", rpc_timeout_seconds=2.0)


@pytest.fixture(scope="module", autouse=True)
def clean_pool():
    shutdown_pool()
    yield
    shutdown_pool()


def run_socket(db, node, config):
    result, stats = execute(db, node, config=config)
    return result, stats


class TestPoolLifecycle:
    def test_spawn_handshake_heartbeat_drain(self):
        pool = ShardPool(2, timeout_seconds=5.0)
        try:
            pool.start()
            assert all(w.alive for w in pool.workers)
            assert all(w.port > 0 for w in pool.workers)
            rtts = pool.heartbeat()
            assert set(rtts) == {"shard-0", "shard-1"}
            assert all(rtt > 0 for rtt in rtts.values())
            assert [w.heartbeat_rtt for w in pool.workers] == list(rtts.values())
            assert [entry["rtt"] for entry in pool.health()] == list(rtts.values())
        finally:
            pool.drain()
        assert all(
            w.process is not None and w.process.poll() is not None
            for w in pool.workers
        )

    def test_get_pool_reuses_and_grows(self):
        first = get_pool(1)
        assert get_pool(1) is first
        grown = get_pool(2)
        assert grown.size == 2
        shutdown_pool()
        assert active_pool() is None


class TestSocketDeliveries:
    def test_bit_identical_to_memory_wire(self, db, node, baseline, socket_config):
        memory_result, memory_stats = execute(
            db, node, config=ExecutorConfig(shards=2)
        )
        socket_result, socket_stats = run_socket(db, node, socket_config)
        assert list(socket_result.rows) == list(baseline.rows)
        assert list(socket_result.rows) == list(memory_result.rows)
        assert tuple(socket_result.columns) == tuple(memory_result.columns)
        # Payload accounting is transport-independent (the framed wire's
        # own total lands in wire_bytes, which must exceed the payload).
        mem_ex, sock_ex = memory_stats.exchanges[-1], socket_stats.exchanges[-1]
        assert sock_ex.bytes_shipped == mem_ex.bytes_shipped
        # ... and is the length of the blocks the workers pickled, as they
        # arrived: the coordinator pickles nothing to measure it.
        pool = active_pool()
        blocks = []
        execute_ = pool.execute

        def recording_execute(index, request):
            response = execute_(index, request)
            blocks.append(len(response["block"]))
            return response

        pool.execute = recording_execute
        try:
            __, again = run_socket(db, node, socket_config)
        finally:
            del pool.execute
        assert len(blocks) == 2
        assert again.exchanges[-1].bytes_shipped == sum(blocks) == sock_ex.bytes_shipped
        assert sock_ex.transport == "socket"
        assert sock_ex.wire_bytes > sock_ex.bytes_shipped
        assert sock_ex.shard_health == (
            "shard-0: healthy", "shard-1: healthy",
        )

    def test_forged_class_inside_a_worker_block_is_refused(
        self, db, node, socket_config
    ):
        """A block is opened through the frame's allow-list, not trusted
        for having arrived inside a frame that passed it."""
        import pickle

        from repro.errors import WireFormatError

        run_socket(db, node, socket_config)
        pool = active_pool()
        execute_ = pool.execute

        def forging_execute(index, request):
            response = execute_(index, request)
            response["block"] = pickle.dumps([[os.getcwd]], protocol=4)
            return response

        pool.execute = forging_execute
        try:
            with pytest.raises(WireFormatError, match="forbidden class"):
                run_socket(db, node, socket_config)
        finally:
            del pool.execute

    def test_both_engines(self, db, node, baseline, socket_config):
        from dataclasses import replace

        for engine in ("row", "vector"):
            result, __ = run_socket(
                db, node, replace(socket_config, engine=engine)
            )
            base, __ = execute(
                db, node.child, config=ExecutorConfig(engine=engine)
            )
            assert list(result.rows) == list(base.rows), engine


    def test_derived_data_never_crosses_the_wire(self, db, node, socket_config):
        # An in-process sharded run on the vector engine leaves columnar
        # batches on the cached partition twins.  Shipped with the twin,
        # they were refused by the workers' restricted unpickler and every
        # later socket statement retried, then degraded to single-site.
        from dataclasses import replace

        config = replace(socket_config, engine="vector")
        fresh_result, fresh = run_socket(db, node, config)
        execute(db, node, config=ExecutorConfig(shards=2, engine="vector"))
        result, stats = run_socket(db, node, config)
        assert list(result.rows) == list(fresh_result.rows)
        assert not stats.degradations
        before, after = fresh.exchanges[-1], stats.exchanges[-1]
        assert (after.rpc_retries, after.rpc_timeouts, after.rpc_failovers) == (
            0, 0, 0,
        )
        assert after.wire_bytes == before.wire_bytes
        assert after.shard_health == ("shard-0: healthy", "shard-1: healthy")


class TestNetworkFaults:
    @pytest.mark.parametrize("kind", ["drop", "delay", "duplicate", "garble"])
    def test_single_fault_survived(self, db, node, baseline, socket_config, kind):
        run_socket(db, node, socket_config)  # warm: the fault hits a delivery
        with faults.inject(NetFaultSpec(kind, op="execute")) as injector:
            result, stats = run_socket(db, node, socket_config)
        assert list(result.rows) == list(baseline.rows)
        assert injector.net_fired, kind
        exchange = stats.exchanges[-1]
        if kind in ("drop", "garble"):
            assert exchange.rpc_retries >= 1
        if kind == "drop":
            assert exchange.rpc_timeouts >= 1

    def test_duplicate_served_from_cache_not_reexecuted(self, db, node,
                                                        baseline, socket_config):
        run_socket(db, node, socket_config)  # warm the pool
        pool = active_pool()
        with faults.inject(NetFaultSpec("duplicate", op="execute")):
            result, __ = run_socket(db, node, socket_config)
        assert list(result.rows) == list(baseline.rows)
        # Ask each worker how many duplicates its request-ID cache served:
        # the injected retransmission must have been answered from cache,
        # never re-executed.
        total_duplicates = 0
        for index in range(pool.size):
            pong = pool.execute(index, {"op": "ping"})
            total_duplicates += pong.get("duplicates", 0)
        assert total_duplicates >= 1

    def test_partition_fails_over_to_live_peer(self, db, node, baseline,
                                               socket_config):
        run_socket(db, node, socket_config)  # warm the pool first
        with faults.inject(
            NetFaultSpec("partition", shard="shard-0", count=50)
        ):
            result, stats = run_socket(db, node, socket_config)
        assert list(result.rows) == list(baseline.rows)
        exchange = stats.exchanges[-1]
        assert exchange.rpc_failovers >= 1
        assert stats.degradations == 0

    def test_total_partition_degrades_to_single_site(self, db, node, baseline,
                                                     socket_config):
        run_socket(db, node, socket_config)  # warm the pool first
        with faults.inject(NetFaultSpec("partition", count=1000)):
            result, stats = run_socket(db, node, socket_config)
        assert list(result.rows) == list(baseline.rows)
        assert stats.degradations == 1

    def test_seeded_rate_schedule_is_deterministic(self, db, node, baseline,
                                                   socket_config):
        from dataclasses import replace

        # A dropped message costs one full RPC timeout; keep it short so
        # the seeded schedule replays quickly.  Both replays start from a
        # new pool, so both draw over the same cold-store message sequence.
        config = replace(socket_config, rpc_timeout_seconds=0.3)
        fired = []
        for __ in range(2):
            shutdown_pool()
            with faults.inject(
                NetFaultSpec("drop", op="execute", rate=0.3, seed=42)
            ) as injector:
                result, __stats = run_socket(db, node, config)
                fired.append(
                    [(spec.kind, shard, op)
                     for spec, shard, op in injector.net_fired]
                )
            assert list(result.rows) == list(baseline.rows)
        assert fired[0] == fired[1]

    def test_session_scoped_spec_only_hits_its_session(self, db, node,
                                                       baseline, socket_config):
        spec = NetFaultSpec("partition", session="other-session", count=100)
        with faults.inject(spec) as injector:
            result, stats = run_socket(db, node, socket_config)
        assert list(result.rows) == list(baseline.rows)
        assert not injector.net_fired  # wrong session: never fired
        assert stats.degradations == 0


class TestHealthLedger:
    def test_healthy_suspect_dead_recovered(self, db, node, baseline,
                                            socket_config):
        shutdown_pool()
        run_socket(db, node, socket_config)  # warm: spawn both workers clean
        # Partition shard-0 for enough messages to exhaust its retry
        # budget: DEAD_AFTER consecutive failures moves it to dead.
        with faults.inject(
            NetFaultSpec("partition", shard="shard-0", count=50)
        ):
            run_socket(db, node, socket_config)
        pool = active_pool()
        report = {entry["shard"]: entry for entry in pool.health()}
        assert report["shard-0"]["health"] == "dead"
        transitions = report["shard-0"]["transitions"]
        assert "suspect" in transitions
        assert transitions.index("suspect") < transitions.index("dead")
        assert report["shard-1"]["health"] == "healthy"

        # Next query: the pool respawns the dead worker (recovered) and
        # the answer is served shard-parallel again.
        result, stats = run_socket(db, node, socket_config)
        assert list(result.rows) == list(baseline.rows)
        report = {entry["shard"]: entry for entry in pool.health()}
        assert report["shard-0"]["health"] == "healthy"
        assert report["shard-0"]["transitions"][-1] == "recovered"
        assert report["shard-0"]["respawns"] == 1

    def test_flapping_shard_between_two_queries(self, db, node, baseline,
                                                socket_config):
        """A shard dies and rejoins between two queries of one session:
        both queries answer identically; the ledger records the flap."""
        shutdown_pool()
        result_a, __ = run_socket(db, node, socket_config)
        pool = active_pool()
        flapper = pool.workers[1]
        respawns_before = flapper.respawns
        pool.kill(1)  # SIGKILL between the queries
        assert flapper.process.poll() is not None
        result_b, __ = run_socket(db, node, socket_config)
        assert list(result_a.rows) == list(baseline.rows)
        assert list(result_b.rows) == list(baseline.rows)
        assert flapper.respawns == respawns_before + 1
        assert flapper.health == "healthy"
        assert flapper.alive

    def test_dead_after_threshold(self):
        from repro.engine.shardrpc import WorkerHandle

        worker = WorkerHandle("shard-x")
        for __ in range(DEAD_AFTER - 1):
            worker.record_failure()
        assert worker.health == "suspect"
        worker.record_failure()
        assert worker.health == "dead"
        worker.record_success()
        assert worker.health == "healthy"
        assert worker.consecutive_failures == 0


class TestSigkillMidQuery:
    def test_sigkill_mid_query_keeps_answer(self, db, plan, baseline,
                                            socket_config):
        """SIGKILL one worker *between deliveries of one query* (via the
        per-delivery exchange injection hook): the delivery re-routes to
        the live peer, or the whole Exchange degrades — either way the
        rows never change."""
        node = Exchange(plan, keys=("T.k",), shards=2, merge=True)
        shutdown_pool()
        run_socket(db, node, socket_config)  # warm pool
        pool = active_pool()

        killed = {"done": False}
        original_execute = pool.execute

        def killing_execute(index, request, **kwargs):
            if not killed["done"]:
                killed["done"] = True
                pool.kill(0)  # SIGKILL while the query is in flight
            return original_execute(index, request, **kwargs)

        pool.execute = killing_execute
        try:
            result, __ = run_socket(db, node, socket_config)
        finally:
            pool.execute = original_execute
        assert killed["done"]
        assert list(result.rows) == list(baseline.rows)


def fresh_copy(db):
    """The same rows in a new table object: new partition ids, so every
    worker's store is cold for it whatever ran before."""
    database = Database()
    database.create_table(db.table("T").schema)
    for row in db.table("T"):
        database.table("T").insert(list(row.values))
    return database


class TestResidency:
    def test_warm_store_ships_no_partition(self, db, node, baseline,
                                           socket_config):
        __, cold = run_socket(fresh_copy(db), node, socket_config)
        copy = fresh_copy(db)
        __, first = run_socket(copy, node, socket_config)
        result, second = run_socket(copy, node, socket_config)
        assert list(result.rows) == list(baseline.rows)
        first, second = first.exchanges[-1], second.exchanges[-1]
        assert (first.reseeds, second.reseeds) == (2, 0)
        # Ids are of one length: a cold statement frames the same bytes
        # whichever table object it is; a warm one frames no partition.
        assert first.wire_bytes == cold.exchanges[-1].wire_bytes
        assert second.wire_bytes < first.wire_bytes

    def test_killed_worker_is_reseeded_once(self, db, node, baseline,
                                            socket_config):
        """SIGKILL between two statements: the respawned worker's store is
        empty and it says so — one partition loaded, nothing failed over."""
        run_socket(db, node, socket_config)
        active_pool().kill(1)
        result, stats = run_socket(db, node, socket_config)
        assert list(result.rows) == list(baseline.rows)
        exchange = stats.exchanges[-1]
        assert (exchange.reseeds, exchange.rpc_failovers) == (1, 0)
        assert (exchange.rpc_retries, stats.degradations) == (0, 0)
        assert active_pool().workers[1].respawns >= 1

    def test_dead_primary_reseeds_the_peer_with_one_failover(
        self, db, node, baseline, socket_config
    ):
        """The primary dies after the pool was checked: its delivery fails
        over to the peer, which lacks the partition.  The twin goes to the
        peer that said so — one failover, not a second trip through the
        failover order."""
        run_socket(db, node, socket_config)
        pool = active_pool()
        execute_ = pool.execute
        calls = []

        def killing_execute(index, request):
            if not calls:
                pool.kill(0)
            calls.append((index, "table" in request))
            return execute_(index, request)

        pool.execute = killing_execute
        try:
            result, stats = run_socket(db, node, socket_config)
        finally:
            del pool.execute
        assert list(result.rows) == list(baseline.rows)
        # shard 0 asked of worker 0, its twin sent to worker 1, shard 1.
        assert calls == [(0, False), (1, True), (1, False)]
        exchange = stats.exchanges[-1]
        assert (exchange.reseeds, exchange.rpc_failovers) == (1, 1)
        assert stats.degradations == 0

    @pytest.mark.parametrize(
        "kind, count",
        [("drop", 1), ("delay", 1), ("duplicate", 1), ("garble", 1),
         ("partition", 1), ("partition", 50)],
    )
    def test_faults_on_the_message_that_carries_the_twin(
        self, db, node, baseline, socket_config, kind, count
    ):
        """Re-indexed, not warmed: on a cold store worker 0's ``execute``
        messages are "asked" (0) and "sent its twin" (1, and its retries);
        the fault is planted on 1."""
        from dataclasses import replace

        config = replace(socket_config, rpc_timeout_seconds=0.3)
        run_socket(db, node, config)  # a live pool; the copy below is cold
        duplicates = active_pool().execute(0, {"op": "ping"})["duplicates"]
        spec = NetFaultSpec(
            kind, shard="shard-0", op="execute", occurrence=1, count=count
        )
        with faults.inject(spec) as injector:
            result, stats = run_socket(fresh_copy(db), node, config)
        assert list(result.rows) == list(baseline.rows)
        assert injector.net_fired[0] == (spec, "shard-0", "execute")
        exchange = stats.exchanges[-1]
        assert (exchange.reseeds, stats.degradations) == (2, 0)
        # A short partition is retried on the same worker; one that
        # outlasts the retries sends twin and plan to the peer.
        assert exchange.rpc_failovers == (1 if count > 1 else 0)
        if kind in ("drop", "garble", "partition"):
            assert exchange.rpc_retries >= 1
        if kind == "duplicate":
            # The second copy is answered from the request-ID cache: the
            # twin was stored once and the plan ran once.
            pong = active_pool().execute(0, {"op": "ping"})
            assert pong["duplicates"] == duplicates + 1

    def test_write_between_two_reads(self, socket_config):
        """The chaos oracle on a fixed schedule: read, write, read in one
        server session over socket shards, then a reader still pinned to
        the first read's epoch.  The write publishes a new version — new
        twins, new ids, two re-seeds — and the old version's partitions
        stay resident for the pinned reader, under their own ids."""
        from repro.server import chaos
        from repro.server.server import Server
        from repro.session import Session

        database, setup_sql = chaos._seed_database()
        server = Server(database, executor_config=socket_config)
        session = server.open_session()
        for emp in range(40):
            session.execute(
                f"INSERT INTO Emp VALUES ({emp}, {emp % chaos.N_DEPTS}, {100 + emp})"
            )
        sql = chaos.READ_SQL[2]  # grouped MIN/MAX over Emp alone

        before = session.report(sql)
        pinned = session.snapshot()
        assert pinned.epoch == before.snapshot_epoch
        session.execute("INSERT INTO Emp VALUES (1000, 0, 99999)")
        after = session.report(sql)
        old_reader = Session(pinned.database, executor_config=socket_config)
        old = old_reader.report(sql)

        reseeds = [
            sum(e.reseeds for e in report.stats.exchanges)
            for report in (before, after, old)
        ]
        assert reseeds == [2, 2, 0]
        assert sorted(old.result.rows) == sorted(before.result.rows)
        assert sorted(after.result.rows) != sorted(before.result.rows)
        observed = [
            (sql, before.snapshot_epoch, tuple(before.result.rows)),
            (sql, after.snapshot_epoch, tuple(after.result.rows)),
            (sql, pinned.epoch, tuple(old.result.rows)),
        ]
        outcome = chaos.ChaosResult(sessions=1, operations=3)
        chaos._check_serial_replay(server, setup_sql, observed, socket_config, outcome)
        assert outcome.ok, outcome.mismatches


@pytest.mark.skipif(
    not os.environ.get("REPRO_TRANSPORT_FULL"),
    reason="full socket shard matrix is CI-job-scale (REPRO_TRANSPORT_FULL=1)",
)
def test_socket_shard_matrix_bit_identical_with_injector_armed():
    """The 390-check shard matrix over the socket transport, with the
    seeded network fault injector armed (a low drop rate on execute
    deliveries): every engine's sharded output must remain bit-identical
    to its own unsharded baseline — the wire, and its faults, invisible."""
    from tests.engine.differential import failures, run_shard_matrix

    shutdown_pool()
    try:
        with faults.inject(
            NetFaultSpec("drop", op="execute", rate=0.02, seed=7)
        ):
            sweeps = run_shard_matrix(quick=True, transport="socket")
        checked = 0
        for label, results in sweeps:
            bad = failures(results)
            assert not bad, f"{label}: " + ", ".join(
                f"{r.name}[{r.config_label}]" for r in bad
            )
            checked += len(results)
        assert checked > 0
    finally:
        shutdown_pool()


@pytest.mark.skipif(
    not os.environ.get("REPRO_TRANSPORT_FULL"),
    reason="process-kill chaos run is CI-job-scale (REPRO_TRANSPORT_FULL=1)",
)
def test_chaos_socket_with_process_kills():
    """The chaos harness over the socket wire with real SIGKILLs: the
    serial-replay oracle must stay green while workers are being shot."""
    from repro.server.chaos import run_chaos

    seed = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
    shutdown_pool()
    try:
        result = run_chaos(
            sessions=4, operations=10, seed=seed, shards=2,
            transport="socket", kill_shards=3, exchange_fault_sessions=1,
        )
        assert result.ok, result.mismatches + result.unexpected
        assert result.reads_checked > 0
    finally:
        shutdown_pool()
