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

import pytest

from repro.algebra.ops import AggregateSpec, Exchange, GroupApply, Relation, Select
from repro.catalog.catalog import Database
from repro.catalog.schema import Column, TableSchema
from repro.engine import faults
from repro.engine.exchange import decompose_aggregates, exchange_fanout
from repro.engine.executor import ExecutorConfig, execute
from repro.errors import ExecutionError
from repro.expressions.builder import avg, col, count, gt, max_, min_, sum_
from repro.sqltypes.datatypes import BOOLEAN, INTEGER
from repro.storage.partition import PartitionSpec


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
        assert exchange_fanout("gather", 4) == 1
        assert exchange_fanout("shuffle", 4) == 2
        assert exchange_fanout("broadcast", 4) == 4

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


class TestShardConfigWhitelist:
    """One list of the ExecutorConfig fields a shard execution carries."""

    def test_every_name_is_an_executor_config_field(self):
        import dataclasses

        from repro.server.transport import SHARD_CONFIG_FIELDS

        fields = {field.name for field in dataclasses.fields(ExecutorConfig)}
        assert SHARD_CONFIG_FIELDS <= fields

    def test_socket_request_config_is_the_whitelist(self, monkeypatch):
        # An in-process stand-in for the worker pool: the request the
        # coordinator builds is what is under test, not the sockets.
        from repro.engine import shardrpc
        from repro.server.transport import SHARD_CONFIG_FIELDS, ShardWorker

        requests = []

        class InProcessPool:
            counters = shardrpc.RpcCounters()
            worker = ShardWorker()

            def execute(self, index, request):
                requests.append(request)
                return self.worker.handle(
                    dict(request, request_id=f"r{len(requests)}")
                )

            def health(self):
                return []

        monkeypatch.setattr(shardrpc, "get_pool", lambda *a, **k: InProcessPool())
        db = make_db()
        config = ExecutorConfig(aggregation="sort", morsel_size=16)
        base, __ = execute(db, group_plan(), config)
        sharded, __ = execute(
            db,
            wrap(group_plan(), shards=2, merge=True),
            ExecutorConfig(aggregation="sort", morsel_size=16, transport="socket"),
        )
        assert sharded.rows == base.rows
        assert len(requests) == 2
        for request in requests:
            assert set(request["config"]) == SHARD_CONFIG_FIELDS
            assert request["config"]["aggregation"] == "sort"
            assert request["config"]["morsel_size"] == 16

