"""The Exchange operator: shard, meter the wire, merge — change nothing.

The operator's contract is stronger than the usual differential one:
a plan wrapped in an Exchange must be **bit-identical** on the same
engine to the unwrapped plan — columns, rows *in order*, ordering claim —
because the ordinal merge restores base-scan order and the two-phase
merge re-runs the requesting engine's own aggregation over the partial
union.  These tests pin that contract across modes, engines, partitioning
methods, empty shards, AVG decomposition, and the degrade path.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import repro
from repro.algebra.ops import (
    AggregateSpec,
    Exchange,
    GroupApply,
    Relation,
    Select,
    decompose_aggregates,
)
from repro.catalog.catalog import Database
from repro.catalog.schema import Column, TableSchema
from repro.engine import exchange, faults, shardrpc, wire
from repro.engine.exchange import SHARD_CONFIG_FIELDS
from repro.engine.faults import KernelFault
from repro.engine.executor import Executor, ExecutorConfig, execute
from repro.engine.governor import CancellationToken, ResourceGovernor, unlimited
from repro.engine.stats import ExecutionStats
from repro.engine.vector.batch import ColumnBatch
from repro.engine.wire import PartitionStore
from repro.errors import (
    ExecutionError,
    QueryCancelled,
    QueryTimeout,
    WireFormatError,
    operator_path,
)
from repro.expressions.builder import avg, col, count, gt, max_, min_, sum_
from repro.session import Session
from repro.sqltypes.datatypes import BOOLEAN, INTEGER
from repro.storage.partition import PartitionSpec, identified_partitions


def make_db(rows=50, keys=7):
    db = Database()
    db.create_table(
        TableSchema("T", [Column("k", INTEGER), Column("v", INTEGER)])
    )
    table = db.table("T")
    for i in range(rows):
        table.insert([i % keys, i * 3])
    return db


def group_plan():
    return GroupApply(
        Relation("T", "T"),
        ("T.k",),
        (
            AggregateSpec("c", count("T.v")),
            AggregateSpec("s", sum_("T.v")),
            AggregateSpec("lo", min_("T.v")),
            AggregateSpec("hi", max_("T.v")),
            AggregateSpec("a", avg("T.v")),
        ),
    )


def wrap(plan, **kwargs):
    kwargs.setdefault("keys", ("T.k",))
    return Exchange(plan, **kwargs)


class TestFanout:
    def test_modes(self):
        fanout = {
            mode: Exchange(Relation("T", "T"), mode=mode, shards=4).fanout
            for mode in ("gather", "shuffle", "broadcast")
        }
        assert fanout == {"gather": 1, "shuffle": 2, "broadcast": 4}

    def test_bad_mode_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Exchange(Relation("T", "T"), mode="teleport")


class TestDecompose:
    def test_all_five_functions(self):
        specs = group_plan().aggregates
        partials, merged = decompose_aggregates(specs)
        # AVG contributes a hidden SUM+COUNT pair, the rest map 1:1.
        assert len(partials) == 6
        assert [m.function for m in merged] == [
            "COUNT", "SUM", "MIN", "MAX", "AVG",
        ]
        assert merged[4].partial_names == ("__p4s", "__p4c")

    def test_distinct_is_not_decomposable(self):
        specs = (AggregateSpec("d", count("T.v", distinct=True)),)
        assert decompose_aggregates(specs) is None


@pytest.mark.parametrize("engine", ["row", "vector"])
@pytest.mark.parametrize("partitioning", ["hash", "range"])
class TestBitIdentity:
    def test_two_phase_merge(self, engine, partitioning):
        db = make_db()
        config = ExecutorConfig(engine=engine)
        base, __ = execute(db, group_plan(), config)
        sharded, stats = execute(
            db,
            wrap(group_plan(), shards=3, partitioning=partitioning, merge=True),
            config,
        )
        assert sharded.columns == base.columns
        assert sharded.rows == base.rows
        assert sharded.ordering == base.ordering
        assert len(stats.exchanges) == 1
        # Two-phase ships one partial row per (shard, group), never more.
        assert stats.rows_shipped() <= 3 * 7

    def test_ship_all_restores_scan_order(self, engine, partitioning):
        db = make_db()
        plan = Select(Relation("T", "T"), gt(col("T.v"), 30))
        config = ExecutorConfig(engine=engine)
        base, __ = execute(db, plan, config)
        sharded, stats = execute(
            db,
            wrap(
                Select(Relation("T", "T"), gt(col("T.v"), 30)),
                shards=3,
                partitioning=partitioning,
            ),
            config,
        )
        assert sharded.columns == base.columns
        assert sharded.rows == base.rows
        assert stats.rows_shipped() == base.cardinality


class TestModes:
    def test_same_result_different_bytes(self):
        db = make_db()
        results = {}
        for mode in ("gather", "shuffle", "broadcast"):
            result, stats = execute(
                db, wrap(group_plan(), mode=mode, shards=3, merge=True)
            )
            results[mode] = (result.rows, stats.bytes_shipped())
        rows = {mode: r for mode, (r, __) in results.items()}
        assert rows["gather"] == rows["shuffle"] == rows["broadcast"]
        g, s, b = (results[m][1] for m in ("gather", "shuffle", "broadcast"))
        assert g < s < b  # fanout 1 < 2 < 3


class TestEdges:
    def test_empty_shards_and_scalar_aggregates(self):
        """Range bounds that push every row into shard 0: the empty
        shards' scalar partials (COUNT 0, SUM NULL, AVG NULL) must not
        leak into the merged answer."""
        db = make_db(rows=10, keys=3)
        db.set_partitioning(
            "T", PartitionSpec("range", "k", 3, bounds=(100, 200))
        )
        scalar = GroupApply(
            Relation("T", "T"),
            (),
            (
                AggregateSpec("c", count("T.v")),
                AggregateSpec("s", sum_("T.v")),
                AggregateSpec("a", avg("T.v")),
            ),
        )
        base, __ = execute(db, scalar)
        sharded, __ = execute(
            db,
            Exchange(
                GroupApply(Relation("T", "T"), (), scalar.aggregates),
                shards=3,
                partitioning="range",
                keys=("T.k",),
                merge=True,
            ),
        )
        assert sharded.rows == base.rows

    def test_empty_table_scalar(self):
        """Plan-level GroupApply over an empty table emits no rows (on
        both engines); sharding an empty table must not invent any."""
        db = Database()
        db.create_table(TableSchema("T", [Column("k", INTEGER)]))
        specs = (
            AggregateSpec("c", count("T.k")),
            AggregateSpec("s", sum_("T.k")),
        )
        base, __ = execute(db, GroupApply(Relation("T", "T"), (), specs))
        sharded, __ = execute(
            db,
            Exchange(
                GroupApply(Relation("T", "T"), (), specs),
                shards=2,
                keys=("T.k",),
                merge=True,
            ),
        )
        assert sharded.columns == base.columns
        assert sharded.rows == base.rows

    @pytest.mark.parametrize("engine", ["row", "vector"])
    def test_avg_over_boolean_keeps_its_type(self, engine):
        """One AVG finalisation (``aggregation.finish_average``): a group
        whose BOOLEAN column holds one TRUE averages to ``1.0`` — a bool
        total is an integer total — sharded or not.  The two-phase splice
        once took the ``sql_div`` branch for it and returned ``1``."""
        db = Database()
        db.create_table(
            TableSchema("T", [Column("k", INTEGER), Column("b", BOOLEAN)])
        )
        for row in ([0, True], [1, True], [1, False], [2, False]):
            db.table("T").insert(row)
        specs = (AggregateSpec("a", avg("T.b")),)
        config = ExecutorConfig(engine=engine)
        base, __ = execute(db, GroupApply(Relation("T", "T"), ("T.k",), specs), config)
        sharded, __ = execute(
            db,
            wrap(
                GroupApply(Relation("T", "T"), ("T.k",), specs),
                shards=2,
                merge=True,
            ),
            config,
        )
        assert sorted(base.rows) == [(0, 1.0), (1, 0.5), (2, 0.0)]
        assert [(row, type(row[1])) for row in sharded.rows] == [
            (row, type(row[1])) for row in base.rows
        ]

    def test_ship_all_over_a_one_column_table(self):
        """Stripping the ordinal leaves one column: rows must stay
        1-tuples (``operator.itemgetter`` of one index returns a scalar)."""
        db = Database()
        db.create_table(TableSchema("T", [Column("k", INTEGER)]))
        for i in range(9):
            db.table("T").insert([i % 4])
        base, __ = execute(db, Relation("T", "T"))
        sharded, __ = execute(db, wrap(Relation("T", "T"), shards=2))
        assert sharded.columns == base.columns
        assert sharded.rows == base.rows and isinstance(sharded.rows[0], tuple)

    def test_merge_requires_group_apply_child(self):
        db = make_db()
        with pytest.raises(ExecutionError):
            execute(db, Exchange(Relation("T", "T"), merge=True, keys=("T.k",)))

    def test_key_must_name_the_partitioned_relation(self):
        db = make_db()
        with pytest.raises(ExecutionError):
            execute(db, Exchange(Relation("T", "T"), keys=("Other.k",)))


class TestDegrade:
    @pytest.mark.parametrize("engine", ["row", "vector"])
    def test_shard_crash_degrades_to_single_site(self, engine):
        db = make_db()
        config = ExecutorConfig(engine=engine)
        base, __ = execute(db, group_plan(), config)
        with faults.inject(faults.FaultSpec("kernel", engine="exchange")):
            result, stats = execute(
                db, wrap(group_plan(), shards=2, merge=True), config
            )
        assert result.rows == base.rows
        assert stats.degradations == 1
        assert stats.exchanges == []  # the wire never completed

    def test_crash_without_degrade_is_typed(self):
        from repro.engine.faults import KernelFault

        db = make_db()
        with faults.inject(faults.FaultSpec("kernel", engine="exchange")):
            with pytest.raises(KernelFault):
                execute(
                    db,
                    wrap(group_plan(), shards=2, merge=True),
                    ExecutorConfig(degrade=False),
                )


TRANSPORTS = ("memory", "socket")


@pytest.fixture
def cold_store(monkeypatch):
    """Empties the in-process partition store, now and whenever called."""
    def empty():
        store = PartitionStore()
        monkeypatch.setattr(exchange, "_RESIDENT", store)
        return store

    empty()
    return empty


@pytest.fixture
def shard_runs(monkeypatch, cold_store):
    """Every ``run_shard`` call below, once it returned or raised:
    ``(request, keyword arguments, the reply's op)``.

    The socket transport's pool is replaced by the real in-process
    backend, so what the coordinator does on either transport is under
    test and no worker process is needed.  The store starts cold."""
    calls = []
    run_shard = exchange.run_shard

    def counting(request, store, **coordinator_state):
        op = "raised"
        try:
            response = run_shard(request, store, **coordinator_state)
            op = response["op"]
            return response
        finally:
            calls.append((request, coordinator_state, op))

    monkeypatch.setattr(exchange, "run_shard", counting)
    monkeypatch.setattr(
        shardrpc,
        "get_pool",
        lambda size, **rpc: exchange.InProcessShards(unlimited()),
    )
    return calls


@pytest.fixture
def executor_configs(monkeypatch):
    """The config of every ``Executor`` the Exchange runner constructs."""
    configs = []

    def spy(database, config, params=None):
        configs.append(config)
        return Executor(database, config, params)

    monkeypatch.setattr(exchange, "Executor", spy)
    return configs


class TestShardConfigWhitelist:
    """One list of the ExecutorConfig fields a shard execution carries."""

    def test_every_name_is_an_executor_config_field(self):
        import dataclasses

        fields = {field.name for field in dataclasses.fields(ExecutorConfig)}
        assert SHARD_CONFIG_FIELDS <= fields

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_request_config_is_the_whitelist(
        self, shard_runs, executor_configs, transport
    ):
        db = make_db()
        config = ExecutorConfig(aggregation="sort", morsel_size=16)
        base, __ = execute(db, group_plan(), config)
        sharded, __ = execute(
            db,
            wrap(group_plan(), shards=2, merge=True),
            ExecutorConfig(
                aggregation="sort", morsel_size=16, workers=2, transport=transport
            ),
        )
        assert sharded.rows == base.rows
        # A cold store: each shard is asked, says "missing", is sent its twin.
        assert [op for __, __, op in shard_runs] == ["missing", "result"] * 2
        for request, __, __ in shard_runs:
            assert set(request["config"]) == SHARD_CONFIG_FIELDS
        # What is not on the list is pinned below the wire, on both wires.
        assert [
            (c.aggregation, c.morsel_size, c.workers, c.shards, c.expose_rowids)
            for c in executor_configs
        ] == [("sort", 16, 1, 1, True)] * 2


class TestOneDeliveryPath:
    """Both transports send the same sequence to the same ``run_shard``."""

    def test_both_transports_send_one_request(self, shard_runs, cold_store):
        """Cold: id only → ``missing`` → id + twin → ``result``, per shard.
        Warm: id only → ``result``.  The twin rides in no other message."""
        db = make_db()
        node = wrap(group_plan(), shards=2, merge=True)
        ids, twins = identified_partitions(
            db.table("T"), PartitionSpec("hash", "k", 2)
        )
        sent = {}
        for transport in TRANSPORTS:
            cold_store()
            for temperature in ("cold", "warm"):
                del shard_runs[:]
                execute(db, node, ExecutorConfig(transport=transport))
                sent[transport, temperature] = [
                    ({k: v for k, v in request.items() if k != "request_id"}, op)
                    for request, __, op in shard_runs
                ]
            cold, warm = sent[transport, "cold"], sent[transport, "warm"]
            assert [op for __, op in cold] == ["missing", "result"] * 2
            assert [op for __, op in warm] == ["result"] * 2
            assert [r["partition"] for r, __ in cold] == [
                ids[0], ids[0], ids[1], ids[1]
            ]
            assert [r.get("table") for r, __ in cold] == [
                None, twins[0], None, twins[1]
            ]
            for (asked, __), (loaded, __) in zip(cold[0::2], cold[1::2]):
                assert list(loaded) == list(asked) + ["table"]
                assert {**loaded, "table": None} == {**asked, "table": None}
            assert [r for r, __ in warm] == [r for r, __ in cold[0::2]]
        for temperature in ("cold", "warm"):
            memory, socket = sent["memory", temperature], sent["socket", temperature]
            assert len(memory) == len(socket)
            for (m, m_op), (k, k_op) in zip(memory, socket):
                assert m_op == k_op and list(m) == list(k)
                assert exchange.wire_dumps(m) == exchange.wire_dumps(k)

    def test_a_worker_that_stays_missing_is_a_fault_not_a_third_send(
        self, shard_runs, monkeypatch
    ):
        run_shard = exchange.run_shard  # the counting wrapper

        def forgetful(request, store, **coordinator_state):
            run_shard(request, store, **coordinator_state)
            return {"op": "missing", "request_id": None}

        monkeypatch.setattr(exchange, "run_shard", forgetful)
        node = wrap(group_plan(), shards=2, merge=True)
        with pytest.raises(KernelFault, match="carried its partition"):
            execute(make_db(), node, ExecutorConfig(degrade=False))
        assert len(shard_runs) == 2  # asked, sent the twin, never a third time

    def test_forged_class_in_a_response_block_is_refused(
        self, shard_runs, monkeypatch
    ):
        """The whole in-process response passes the receive-side
        allow-list, as a frame's payload does — not only its rows."""
        import os

        run_shard = exchange.run_shard  # the counting wrapper

        def forging(request, store, **coordinator_state):
            response = run_shard(request, store, **coordinator_state)
            response["degradation_events"] = [os.getcwd]  # posix.getcwd
            return response

        monkeypatch.setattr(exchange, "run_shard", forging)
        with pytest.raises(WireFormatError):
            execute(make_db(), wrap(group_plan(), shards=2, merge=True))
        assert len(shard_runs) == 1  # a "missing" reply passes it too

    def test_the_transport_is_read_once_and_one_function_runs_shard_plans(self):
        """AST guard: under ``engine/`` ``config.transport`` is compared in
        one place (backend selection), and of the three modules the wire
        is made of only ``run_shard`` — below the wire — and the
        coordinator's single-site fallback construct an ``Executor``."""
        root = Path(repro.__file__).parent

        def is_config_transport(side):  # config.transport, env.config.transport
            owner = getattr(side, "value", None)
            return (
                isinstance(side, ast.Attribute)
                and side.attr == "transport"
                and "config" in (getattr(owner, "id", None), getattr(owner, "attr", None))
            )

        compared = []
        for path in sorted((root / "engine").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Compare) and any(
                    map(is_config_transport, [node.left, *node.comparators])
                ):
                    compared.append(f"{path.name}:{node.lineno}")
        assert len(compared) == 1 and compared[0].startswith("exchange.py:")

        constructs = []
        for relative in (
            "engine/exchange.py", "engine/shardrpc.py", "server/transport.py"
        ):
            tree = ast.parse((root / relative).read_text())
            for function in ast.walk(tree):
                if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    constructs += [
                        function.name
                        for node in ast.walk(function)
                        if isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "Executor"
                    ]
        assert sorted(constructs) == ["run_exchange", "run_shard"]


def ship_all_session(transport, rows=40):
    """A session whose ``SHIP_ALL`` statement cannot be pre-aggregated
    (COUNT DISTINCT does not decompose), so every row of T is shipped."""
    return Session(
        make_db(rows=rows),
        executor_config=ExecutorConfig(engine="vector", shards=2, transport=transport),
    )


SHIP_ALL = "SELECT T.k, COUNT(DISTINCT T.v) AS d FROM T GROUP BY T.k"


def holds_values(payload):
    """Is ``payload`` row data — a list of rows or of columns — or a
    message carrying one?"""
    if isinstance(payload, dict):
        return any(map(holds_values, payload.values()))
    return (
        isinstance(payload, list)
        and bool(payload)
        and isinstance(payload[0], (list, tuple))
    )


class TestOneBlock:
    """The return leg is one column-major block per delivery: pickled once,
    below the wire; opened once, through the allow-list; measured as it
    arrived; merged without building a row."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_ship_all_pickles_each_delivery_once_and_transposes_nothing(
        self, shard_runs, monkeypatch, transport
    ):
        pickled = []
        dumps = wire.wire_dumps

        def counting_dumps(payload):
            blob = dumps(payload)
            if holds_values(payload):
                pickled.append(len(blob))
            return blob

        bound = [
            module
            for name, module in sorted(sys.modules.items())
            if name.startswith("repro.") and hasattr(module, "wire_dumps")
        ]
        assert {wire, exchange} <= set(bound)
        for module in bound:
            monkeypatch.setattr(module, "wire_dumps", counting_dumps)
        transposed = []
        from_rows = ColumnBatch.from_rows.__func__
        monkeypatch.setattr(
            ColumnBatch,
            "from_rows",
            classmethod(
                lambda cls, *a, **kw: transposed.append(a) or from_rows(cls, *a, **kw)
            ),
        )
        session = ship_all_session(transport)
        session.report(SHIP_ALL)  # cold: scans and twins are built and cached
        del pickled[:], transposed[:], shard_runs[:]
        report = session.report(SHIP_ALL)
        assert [op for __, __, op in shard_runs] == ["result"] * 2
        [shipment] = report.stats.exchanges
        assert shipment.rows_shipped == 40
        # Once per delivery, and what was pickled is what was counted.
        assert len(pickled) == 2 and sum(pickled) == shipment.bytes_shipped
        assert transposed == []

    def test_the_coordinator_pickles_nothing_and_nobody_unpickles_unrestricted(self):
        """AST guard: ``_run_sharded`` does not call ``wire_dumps`` (the
        worker measured the block by making it), and ``pickle.loads`` is
        spelled nowhere under ``engine/`` or ``server/``."""
        root = Path(repro.__file__).parent
        tree = ast.parse((root / "engine" / "exchange.py").read_text())
        [run_sharded] = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_run_sharded"
        ]
        called = {
            getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(run_sharded)
            if isinstance(node, ast.Call)
        }
        assert "wire_dumps" not in called and "execute" in called
        raw = []
        for package in ("engine", "server"):
            for path in sorted((root / package).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Attribute) and node.attr == "loads":
                        raw.append(f"{path.name}:{node.lineno}")
                    if isinstance(node, ast.ImportFrom) and node.module == "pickle":
                        raw.append(f"{path.name}:{node.lineno}")
        assert raw == []

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_forged_class_inside_the_block_is_refused(
        self, shard_runs, monkeypatch, transport
    ):
        """The block is bytes inside a message that already passed the
        allow-list; it passes it again when opened."""
        import os
        import pickle

        run_shard = exchange.run_shard  # the counting wrapper

        def forging(request, store, **coordinator_state):
            response = run_shard(request, store, **coordinator_state)
            if response["op"] == "result":
                columns = wire.restricted_loads(response["block"])
                columns[0][0] = os.getcwd  # posix.getcwd
                response["block"] = pickle.dumps(columns, protocol=4)
            return response

        monkeypatch.setattr(exchange, "run_shard", forging)
        with pytest.raises(WireFormatError, match="forbidden class"):
            execute(
                make_db(),
                wrap(group_plan(), shards=2, merge=True),
                ExecutorConfig(transport=transport),
            )
        assert [op for __, __, op in shard_runs] == ["missing", "result"]

    @pytest.mark.parametrize("engine", ["row", "vector"])
    def test_bytes_shipped_is_the_length_of_what_arrived(self, shard_runs, engine):
        """Equal on both transports, and equal to the blocks' summed
        lengths times the mode's fan-out."""
        blocks = []
        run_shard = exchange.run_shard

        def recording(request, store, **coordinator_state):
            response = run_shard(request, store, **coordinator_state)
            if response["op"] == "result":
                blocks.append(len(response["block"]))
            return response

        shipped = {}
        for transport in TRANSPORTS:
            del blocks[:]
            with pytest.MonkeyPatch.context() as patching:
                patching.setattr(exchange, "run_shard", recording)
                __, stats = execute(
                    make_db(),
                    wrap(Relation("T", "T"), shards=3, mode="shuffle"),
                    ExecutorConfig(engine=engine, transport=transport),
                )
            [shipment] = stats.exchanges
            assert len(blocks) == 3
            assert shipment.bytes_shipped == 2 * sum(blocks)
            shipped[transport] = shipment.bytes_shipped
        assert shipped["memory"] == shipped["socket"]


class TestOneBudget:
    """A sharded query runs under one deadline and one cancellation token:
    every delivery is preceded by a check of the coordinator's governor,
    and what runs in-process inherits what is left, not a fresh clock."""

    def run(self, governor, config=ExecutorConfig()):
        node = wrap(group_plan(), shards=2, merge=True)
        return Executor(make_db(), config)._execute(
            node, ExecutionStats(), governor
        )

    def test_deadline_spans_the_deliveries(self, shard_runs, monkeypatch):
        """One clock for the round: the message that loads a partition runs
        under what the one that found it missing left over."""
        now = [0.0]
        run_shard = exchange.run_shard
        seconds_per_message = 2.0

        def slow(request, store, **coordinator_state):
            now[0] += seconds_per_message
            return run_shard(request, store, **coordinator_state)

        monkeypatch.setattr(exchange, "run_shard", slow)
        self.run(ResourceGovernor(timeout_seconds=10.0, clock=lambda: now[0]))
        assert [op for __, __, op in shard_runs] == ["missing", "result"] * 2
        assert [kw["timeout_seconds"] for __, kw, __ in shard_runs] == [
            10.0, 8.0, 6.0, 4.0,
        ]

        # Shard 0's "missing" takes the clock past the deadline: its
        # partition is never sent, shard 1 never asked.
        del shard_runs[:]
        seconds_per_message = 11.0
        governor = ResourceGovernor(timeout_seconds=10.0, clock=lambda: now[0])
        with pytest.raises(QueryTimeout) as excinfo:
            self.run(governor)
        assert [op for __, __, op in shard_runs] == ["missing"]
        assert any("Exchange[" in frame for frame in operator_path(excinfo.value))

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_cancellation_stops_the_next_delivery(
        self, shard_runs, monkeypatch, transport
    ):
        """Cancelled while shard 0 says ``missing``: no twin is sent.
        Cancelled while it computes: shard 1 is never asked."""
        run_shard = exchange.run_shard
        for cancel_at, sequence in [
            ("missing", ["missing"]), ("result", ["missing", "result"]),
        ]:
            token = CancellationToken()

            def cancelling(request, store, **coordinator_state):
                response = run_shard(request, store, **coordinator_state)
                if response["op"] == cancel_at:
                    token.cancel("during shard 0")
                return response

            monkeypatch.setattr(exchange, "run_shard", cancelling)
            del shard_runs[:]
            with pytest.raises(QueryCancelled):
                self.run(
                    ResourceGovernor(token=token),
                    ExecutorConfig(transport=transport),
                )
            assert [op for __, __, op in shard_runs] == sequence
            if transport == "memory":
                assert shard_runs[0][1]["cancellation"] is token

    def test_single_site_fallback_inherits_the_budget(self, executor_configs):
        now = [4.0]
        token = CancellationToken()
        governor = ResourceGovernor(
            timeout_seconds=10.0, token=token, clock=lambda: now[0]
        )  # started at 4: deadline 14
        now[0] = 9.0
        with faults.inject(faults.FaultSpec("kernel", engine="exchange")):
            self.run(governor)
        [fallback] = executor_configs
        assert fallback.timeout_seconds == 5.0
        assert fallback.cancellation is token
