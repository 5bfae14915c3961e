"""The Exchange runner: shard-parallel execution with a byte-metered wire.

This is Section 7 of the paper made executable.  An
:class:`~repro.algebra.ops.Exchange` node splits its child's base table
into partitions (:mod:`repro.storage.partition`), runs the child subtree
once per shard (re-entering the public executor, so shards keep the
configured engine — vector shards stream through the morsel driver), and
merges the shard streams back into one deterministic result:

* ``merge=False`` — the shard outputs are interleaved back into base-scan
  order using the hidden per-relation RowID (shards always execute with
  ``expose_rowids=True``; the extra column is stripped again unless the
  outer config asked for it).  The merged stream is bit-identical to the
  unsharded child's output, whatever order the blocks arrived in.
* ``merge=True`` — the child's terminal :class:`GroupApply` is decomposed
  into per-shard *partial* aggregates plus a hidden ``MIN(RowID)`` ordinal,
  and the partials are re-aggregated globally above the wire.  The merge
  contract matches :mod:`repro.engine.vector.parallel`'s order-independent
  one (integer COUNT/SUM/AVG exact, MIN/MAX by the engine's comparator).
  The global merge runs through the requesting engine's *own* grouped
  aggregation over the ordinal-ordered partial union, so the merged
  stream is bit-identical to the unsharded GroupApply on that engine —
  group order included.

The return leg is one column-major **block** per delivery.
:func:`run_shard` takes the executed plan's result as columns (the vector
engine's root batch as it stands, the row engine's rows transposed once),
pickles that list of columns once at the wire's pinned protocol
(:data:`repro.engine.wire.WIRE_PICKLE_PROTOCOL`) and answers with the bytes,
the row count, the column names and the ordering.  Nobody pickles those
values again: a frame, the worker's request-ID cache and the in-process
round trip all carry the bytes.  The coordinator opens the block through
the restricted unpickler — the frame's allow-list, a second time — and
merges without building a row: each column is concatenated across
deliveries and ordered by a stable argsort of the ordinal column handed to
:meth:`ColumnBatch.take <repro.engine.vector.batch.ColumnBatch.take>`.
:func:`run_exchange` returns that batch; the vector executor takes it as
it is, the row executor calls ``to_dataset()`` on it once.

The wire is deterministic and measured, not estimated, and measured where
it is made: the length of each block as it arrived is what the governor's
transfer meter and :class:`~repro.engine.stats.ExchangeStats` record,
multiplied by the node's :attr:`~repro.algebra.ops.Exchange.fanout`.

One delivery path, two backends: every delivery is ``governor.check`` →
the ``"exchange"`` fault-injection point → ``backend.execute(index,
request)`` → account the response block.  Partitions are **resident**
below the wire: a request names its partition by id
(:func:`repro.storage.partition.identified_partitions`), a worker that does not
hold it answers ``missing``, and the loop sends the same request once more
with the frozen twin attached, to the worker that said so; that worker
keeps the twin — and the columnar batches it derives from it — until its
bounded store evicts it.  This module owns that format —
:func:`shard_request` builds it, :func:`run_shard` is the only code that
executes a plan below the wire, the loop is the only reader of its
response — and ``config.transport`` only picks who carries it:

* ``"memory"`` (default) — :class:`InProcessShards`, the worker loop
  without a socket: calls :func:`run_shard` over the process's own
  partition store (a twin is attached by reference) and passes its
  response through the wire's **restricted unpickler**, so a forged
  payload is a typed :class:`~repro.errors.WireFormatError` on this wire
  too.  Byte accounting is real (the same block, the same bytes), failure
  independence is not.
* ``"socket"`` — :class:`~repro.engine.shardrpc.ShardPool`: one OS process
  per shard serving :func:`run_shard` behind the framed RPC (per-call
  deadlines, jittered retries, idempotent request IDs, health-checked
  failover); the frames' own total lands in ``wire_bytes``.

A :class:`KernelFault` or :class:`~repro.errors.ShardUnavailable` from
either — an injected fault, a shard crashing mid-run, no live worker —
degrades the whole Exchange to single-site execution of the original
child, accounted in ``stats.degradations`` — the same ladder the vector
kernels use — so the answer never changes.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.algebra.ops import (
    AggregateSpec,
    DecomposedSpec,
    Exchange,
    GroupApply,
    PlanNode,
    Relation,
    decompose_aggregates,
    scan_chain_relation,
)
from repro.catalog.catalog import Database
from repro.engine import faults, shardrpc
from repro.engine.aggregation import finish_average
from repro.engine.dataset import rowid_column
from repro.engine.executor import Executor, ExecutorConfig
from repro.engine.faults import KernelFault
from repro.engine.governor import CancellationToken, ResourceGovernor
from repro.engine.operators import evaluate
from repro.engine.stats import ExchangeStats, ExecutionStats
from repro.engine.vector import kernels
from repro.engine.vector.batch import ColumnBatch
from repro.engine.wire import PartitionStore, restricted_loads, wire_dumps
from repro.errors import ExecutionError, ShardUnavailable, WireFormatError
from repro.expressions.ast import Aggregate, ColumnRef
from repro.sqltypes.values import SqlValue, sort_key
from repro.storage.partition import PartitionSpec, identified_partitions

#: Hidden partial column carrying each group's first-appearance RowID.
ORDINAL_COLUMN = "__ord"


# -- below the wire ----------------------------------------------------------

#: ExecutorConfig fields a coordinator sets on a shard execution.
#: Everything else (budgets with coordinator-side meaning, shard topology,
#: worker counts) is pinned by :func:`run_shard`.
SHARD_CONFIG_FIELDS = frozenset({
    "engine", "join_algorithm", "aggregation", "exploit_orders",
    "morsel_size", "memory_limit_bytes", "max_rows", "spill", "degrade",
})


def shard_request(
    table_name: str,
    plan: PlanNode,
    params: Optional[Mapping[str, SqlValue]],
    config: ExecutorConfig,
) -> Dict[str, Any]:
    """What every delivery of one Exchange asks, built once: the plan and
    the whitelisted config.  Each delivery adds its ``partition`` — an id
    naming immutable content, so any worker that holds it, or is sent it,
    computes the same partial."""
    return {
        "op": "execute",
        "table_name": table_name,
        "plan": plan,
        "params": dict(params) if params else None,
        # sorted: a frozenset iterates in per-process hash order, and the
        # request's frame should not depend on it.
        "config": {f: getattr(config, f) for f in sorted(SHARD_CONFIG_FIELDS)},
    }


def run_shard(
    request: Dict[str, Any],
    store: PartitionStore,
    *,
    cancellation: Optional[CancellationToken] = None,
    spill_dir: Optional[str] = None,
    timeout_seconds: Optional[float] = None,
) -> Dict[str, Any]:
    """Execute one :func:`shard_request` over ``store``'s resident
    partition; returns the response block, or ``{"op": "missing"}`` when
    the store does not hold the partition and the request did not bring it.

    Reached by the worker process
    (:class:`repro.server.transport.ShardWorker`) and by
    :class:`InProcessShards`.  Shards always expose RowIDs — the ordinal
    merge needs them — and never distribute or fork further.  The keyword
    arguments are the coordinator state no frame can carry.
    """
    partition_id = request["partition"]
    table = request.get("table")
    if table is not None:
        store.put(partition_id, table)
    else:
        table = store.get(partition_id)
        if table is None:
            return {"op": "missing", "request_id": request.get("request_id")}
    overrides = {
        key: value
        for key, value in (request.get("config") or {}).items()
        if key in SHARD_CONFIG_FIELDS
    }
    config = ExecutorConfig(
        expose_rowids=True,
        shards=1,
        exchange="off",
        workers=1,
        cancellation=cancellation,
        spill_dir=spill_dir,
        timeout_seconds=timeout_seconds,
        **overrides,
    )
    database = Database()
    database.tables[request["table_name"]] = table
    batch, stats = Executor(database, config, request.get("params")).run_columns(
        request["plan"]
    )
    return {
        "op": "result",
        "request_id": request.get("request_id"),
        "columns": batch.names,
        "ordering": batch.ordering,
        # The only pickling of the result's values: every later hop (frame,
        # request-ID cache, the in-process round trip) carries these bytes.
        "block": wire_dumps(batch.column_lists()),
        # A list of columns has no length to read when there are none.
        "row_count": batch.length,
        "degradations": stats.degradations,
        "degradation_events": list(stats.degradation_events),
        "spill_count": stats.spill_count,
        "spilled_rows": stats.spilled_rows,
    }


#: What the in-process backend's "worker" keeps resident: one store for the
#: process, as a worker process has one, reached by every session's thread.
_RESIDENT = PartitionStore()


class InProcessShards:
    """The worker loop without a socket: the three members the delivery
    loop uses of :class:`~repro.engine.shardrpc.ShardPool`, and the same
    receive-side allow-list a frame's payload passes."""

    def __init__(self, governor: ResourceGovernor) -> None:
        self.governor = governor
        self.counters = shardrpc.RpcCounters()

    def execute(self, index: int, request: Dict[str, Any]) -> Dict[str, Any]:
        governor = self.governor
        response = run_shard(
            request,
            _RESIDENT,
            cancellation=governor.token,
            spill_dir=governor.spill_dir,
            timeout_seconds=governor.remaining_seconds(),
        )
        response = restricted_loads(wire_dumps(response))
        response["worker"] = index
        return response

    def health(self) -> List[Dict[str, Any]]:
        return []


def _shard_backend(config: ExecutorConfig, size: int, governor: ResourceGovernor):
    """Where this Exchange's deliveries run — the transport's only reader."""
    if config.transport == "socket":
        return shardrpc.get_pool(size, timeout_seconds=config.rpc_timeout_seconds)
    return InProcessShards(governor)


# -- plan plumbing -----------------------------------------------------------


def _below_the_wire(plan: PlanNode) -> Relation:
    """The single Relation at the bottom of a Select* chain.

    The Exchange contract (DESIGN.md section 14) requires the subtree below
    the wire to be linear in exactly one partitioned base table; a
    Relation + Select* chain guarantees that *and* that RowID order
    survives to the shard output, which is what the ordinal merge needs.
    """
    relation = scan_chain_relation(plan)
    if relation is None:
        raise ExecutionError(
            "Exchange expects a Relation/Select* chain below the wire; "
            f"{plan.label()} is not one"
        )
    return relation


def _resolve_partition_spec(
    node: Exchange, relation: Relation, database: Database
) -> PartitionSpec:
    """The concrete partitioning for this Exchange: explicit keys win, then
    a spec declared in the catalog, then RowID partitioning."""
    declared = database.partitioning.get(relation.table_name)
    column: Optional[str] = None
    bounds: Tuple = ()
    if node.keys:
        key = node.keys[0]
        prefix, _, bare = key.rpartition(".")
        if prefix and prefix != relation.correlation:
            raise ExecutionError(
                f"Exchange key {key!r} does not name the partitioned "
                f"relation {relation.correlation!r}"
            )
        column = bare
        if (
            isinstance(declared, PartitionSpec)
            and declared.column == column
            and declared.method == node.partitioning
        ):
            bounds = declared.bounds
    elif isinstance(declared, PartitionSpec):
        column = declared.column
        if declared.method == node.partitioning:
            bounds = declared.bounds
    return PartitionSpec(node.partitioning, column, node.shards, bounds)


def _merge_substats(
    stats: ExecutionStats, governor: ResourceGovernor, sub: ExecutionStats
) -> None:
    """Fold the single-site fallback's counters into the outer execution."""
    stats.degradations += sub.degradations
    stats.degradation_events.extend(sub.degradation_events)
    governor.spill_count += sub.spill_count
    governor.spilled_rows += sub.spilled_rows
    if stats.pipelines is not None and sub.pipelines is not None:
        stats.pipelines.segments += sub.pipelines.segments
        stats.pipelines.morsels += sub.pipelines.morsels
        stats.pipelines.note_inflight(sub.pipelines.max_inflight_bytes)


# -- the runner --------------------------------------------------------------


def run_exchange(
    env,
    node: Exchange,
    stats: ExecutionStats,
    governor: ResourceGovernor,
) -> ColumnBatch:
    """Execute one Exchange: partition, run shards, meter the wire, merge.

    Engine-agnostic by construction — both executors delegate here
    (``env`` is the delegating executor: its database, config and params),
    shard subplans re-enter the public executor through :func:`run_shard`
    (same engine and morsel size), and the recorded :class:`NodeStats` is
    deterministic, so row and vector stats stay identical.
    """
    database, config, params = env.database, env.config, env.params
    label = node.label()
    try:
        return _run_sharded(env, node, stats, governor, label)
    except (KernelFault, ShardUnavailable) as error:
        if not config.degrade:
            raise
        # A shard died mid-exchange — or, on the socket transport, no
        # worker could even be reached (ShardUnavailable escaping the
        # retry/failover layer means the whole pool is down): degrade to
        # single-site execution of the original child at the coordinator
        # (no wire, exact semantics) under what is left of this query's
        # deadline, not a fresh one.
        stats.note_degradation(label, error)
        governor.check(label)
        fallback_config = replace(
            config, shards=1, exchange="off", rewrites=(), verify=False,
            timeout_seconds=governor.remaining_seconds(),
            cancellation=governor.token,
        )
        result, sub_stats = Executor(
            database, fallback_config, params
        ).run_columns(node.child)
        _merge_substats(stats, governor, sub_stats)
        stats.record_node(
            node, "exchange", (result.cardinality,), result.cardinality, 0
        )
        return result


def _run_sharded(
    env,
    node: Exchange,
    stats: ExecutionStats,
    governor: ResourceGovernor,
    label: str,
) -> ColumnBatch:
    database, config, params = env.database, env.config, env.params
    if node.merge:
        child = node.child
        if not isinstance(child, GroupApply):
            raise ExecutionError(
                "Exchange(merge=True) requires a GroupApply child"
            )
        decomposition = decompose_aggregates(child.aggregates)
        if decomposition is None:
            raise ExecutionError(
                "Exchange(merge=True) over non-decomposable aggregates; "
                "use merge=False (ship-all) instead"
            )
        partial_specs, merged_specs = decomposition
        relation = _below_the_wire(child.child)
        ordinal = AggregateSpec(
            ORDINAL_COLUMN,
            Aggregate("MIN", ColumnRef(relation.correlation, "#rowid")),
        )
        shard_plan: PlanNode = GroupApply(
            child.child, child.grouping_columns, tuple(partial_specs) + (ordinal,)
        )
    else:
        relation = _below_the_wire(node.child)
        shard_plan = node.child

    table = database.table(relation.table_name)
    spec = _resolve_partition_spec(node, relation, database)
    partition_ids, partitions = identified_partitions(table, spec)
    backend = _shard_backend(config, len(partitions), governor)
    rpc_before = backend.counters.snapshot()

    template = shard_request(relation.table_name, shard_plan, params, config)
    blocks: List[List[list]] = []
    columns: Tuple[str, ...] = ()
    ordering: Tuple[str, ...] = ()
    received = 0
    block_bytes = 0
    for index, partition_id in enumerate(partition_ids):
        governor.check(label)
        # The per-delivery crash point of the fault matrix and the chaos
        # schedules.
        faults.injection_point("exchange", label)
        request = {**template, "partition": partition_id}
        response = backend.execute(index, request)
        if response["op"] == "missing":
            # Load the partition where it was found missing — the worker
            # that answered, which after a failover is not ``index``.
            governor.check(label)
            backend.counters.reseeds += 1
            response = backend.execute(
                response["worker"], {**request, "table": partitions[index]}
            )
            if response["op"] == "missing":
                raise KernelFault(
                    f"{label}: shard {index} answered 'missing' to a "
                    "request that carried its partition"
                )
        columns = tuple(response["columns"])
        ordering = tuple(response["ordering"])
        # The worker pickled the block; it is opened here, through the
        # frame's allow-list, and measured as it arrived (the framed
        # request/response totals land in wire_bytes).
        block = response["block"]
        blocks.append(_open_block(block, len(columns), response["row_count"], label))
        received += response["row_count"]
        block_bytes += len(block)
        stats.degradations += response["degradations"]
        stats.degradation_events.extend(response["degradation_events"])
        governor.spill_count += response["spill_count"]
        governor.spilled_rows += response["spilled_rows"]
    rpc_after = backend.counters.snapshot()

    rows_shipped = received * node.fanout
    bytes_shipped = block_bytes * node.fanout
    governor.charge_transfer(rows_shipped, bytes_shipped, label)

    union = ColumnBatch(
        columns,
        [list(chain.from_iterable(parts)) for parts in zip(*blocks)],
        length=received,
    )
    if node.merge:
        merged = _merge_two_phase(node.child, union, merged_specs, env)
    else:
        merged = _merge_ordinal(
            union, ordering, rowid_column(relation.correlation),
            config.expose_rowids,
        )
    stats.exchanges.append(
        ExchangeStats(
            label, node.mode, node.shards, rows_shipped, bytes_shipped,
            transport=config.transport,
            rpc_retries=rpc_after["retries"] - rpc_before["retries"],
            rpc_timeouts=rpc_after["timeouts"] - rpc_before["timeouts"],
            rpc_failovers=rpc_after["failovers"] - rpc_before["failovers"],
            wire_bytes=rpc_after["wire_bytes"] - rpc_before["wire_bytes"],
            reseeds=rpc_after["reseeds"] - rpc_before["reseeds"],
            shard_health=tuple(
                f"{entry['shard']}: {entry['health']}"
                for entry in backend.health()
            ),
        )
    )
    stats.record_node(
        node, "exchange", (received,), merged.cardinality, rows_shipped
    )
    return merged


def _open_block(block: bytes, width: int, row_count: int, label: str) -> List[list]:
    """A response's column block, decoded through the restricted unpickler
    and checked against the shape the response declares."""
    decoded = restricted_loads(block)
    if (
        not isinstance(decoded, list)
        or len(decoded) != width
        or any(
            not isinstance(column, list) or len(column) != row_count
            for column in decoded
        )
    ):
        raise WireFormatError(
            f"{label}: shard block is not {width} columns of {row_count} rows"
        )
    return decoded


def _in_ordinal_order(union: ColumnBatch, ordinal_column: str) -> ColumnBatch:
    """``union``'s rows by ascending ordinal, NULL first (an empty shard's
    scalar partial carries a NULL ordinal: MIN over no rows), ties as they
    stand.  The Sort operator's own kernel, a stable argsort of the one
    column, or — where it has none (no numpy, a NULL ordinal) — a stable
    ``sorted(range(n), key=…)`` of it; either permutation is handed to
    :meth:`ColumnBatch.take`, so no row is built and no column is gathered
    until something reads it."""
    ordered = kernels.sort_batch(union, (ordinal_column,))
    if ordered is not None:
        return ordered[0]
    index = union.index_of(ordinal_column)
    column = union.columns[index]
    perm = sorted(range(union.length), key=lambda i: sort_key((column[i],)))
    return union.take(perm, ordering=(union.names[index],))


def _merge_ordinal(
    union: ColumnBatch,
    ordering: Tuple[str, ...],
    ordinal_column: str,
    keep_rowids: bool,
) -> ColumnBatch:
    """Interleave shard streams back into base-scan (RowID) order."""
    if ordinal_column not in union.names:
        raise ExecutionError(
            f"shard output lost the ordinal column {ordinal_column!r}"
        )
    merged = _in_ordinal_order(union, ordinal_column)
    if keep_rowids:
        return merged.with_ordering(ordering)
    return merged.select_columns(
        [i for i, name in enumerate(union.names) if name != ordinal_column],
        ordering=tuple(name for name in ordering if name != ordinal_column),
    )


def _merge_two_phase(
    original: GroupApply,
    union: ColumnBatch,
    merged_specs: List[DecomposedSpec],
    env,
) -> ColumnBatch:
    """Re-aggregate shard partials into the one-phase operator's output.

    The shard streams are interleaved into ordinal order (a partial row's
    ordinal is its group's minimum RowID within that shard, so the union
    replays groups in their base-scan first-appearance order) and then fed
    through the *requesting engine's own* grouped-aggregation operator
    (:func:`repro.engine.operators.evaluate` — the table entry every
    GroupApply runs) with the merge aggregates: COUNT and SUM partials merge by SUM, MIN
    and MAX by themselves, AVG from its hidden SUM + COUNT pair.  Running
    the real operator rather than a hand-rolled fold is what makes the
    merged stream bit-identical to the unsharded GroupApply on either
    engine — whatever group order that engine's kernel emits over the
    original input, it emits over the ordinal-ordered union too.
    """
    union = _in_ordinal_order(union, ORDINAL_COLUMN)

    merge_specs: List[AggregateSpec] = []
    avg_pairs: Dict[int, Tuple[str, str]] = {}
    for position, spec in enumerate(merged_specs):
        if spec.function == "AVG":
            sum_name, count_name = f"__m{position}s", f"__m{position}c"
            merge_specs.append(
                AggregateSpec(
                    sum_name,
                    Aggregate("SUM", ColumnRef("", spec.partial_names[0])),
                )
            )
            merge_specs.append(
                AggregateSpec(
                    count_name,
                    Aggregate("SUM", ColumnRef("", spec.partial_names[1])),
                )
            )
            avg_pairs[position] = (sum_name, count_name)
        else:
            merge_function = (
                "SUM" if spec.function in ("COUNT", "SUM") else spec.function
            )
            merge_specs.append(
                AggregateSpec(
                    spec.name,
                    Aggregate(
                        merge_function, ColumnRef("", spec.partial_names[0])
                    ),
                )
            )

    grouping = original.grouping_columns
    merged, __ = evaluate(
        GroupApply(original.child, grouping, merge_specs), (union,), env
    )

    if not avg_pairs:
        return merged

    # Splice each AVG back together from its merged SUM/COUNT pair,
    # finalizing exactly as the one-phase operator does.
    n_group = len(grouping)
    out_columns = list(merged.columns[:n_group])
    for position, spec in enumerate(merged_specs):
        if spec.function == "AVG":
            sums, counts = (
                merged.columns[merged.index_of(name)]
                for name in avg_pairs[position]
            )
            out_columns.append(list(map(finish_average, sums, counts)))
        else:
            out_columns.append(merged.columns[merged.index_of(spec.name)])
    out_names = merged.names[:n_group] + tuple(spec.name for spec in merged_specs)
    return ColumnBatch(
        out_names,
        out_columns,
        length=merged.length,
        ordering=tuple(name for name in merged.ordering if name in out_names),
    )
