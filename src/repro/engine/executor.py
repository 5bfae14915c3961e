"""The plan executor: logical algebra → materialized DataSets + statistics.

The executor walks a :class:`~repro.algebra.ops.PlanNode` tree bottom-up,
materializing each operator's output and recording per-operator
cardinalities and work in an :class:`~repro.engine.stats.ExecutionStats`.
Materialization (rather than tuple-at-a-time iteration) keeps the row
accounting exact and the engine easy to verify — the paper's claims are
about cardinalities, not pipelining latency.

Configuration knobs (join algorithm, aggregation strategy, RowID exposure)
live in :class:`ExecutorConfig`.  RowID exposure adds a ``<corr>.#rowid``
column to every base-table scan so the Main Theorem checker can test
``FD2: (GA1+, GA2) → RowID(R2)`` on real join results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Tuple

from repro.algebra.ops import Exchange, PlanNode
from repro.algebra.rewrite_rules import normalize_rewrites
from repro.catalog.catalog import Database
from repro.engine import faults
from repro.engine.dataset import DataSet
from repro.engine.governor import CancellationToken, ResourceGovernor
from repro.engine.operators import child_frames, operator_for
from repro.engine.stats import ExecutionStats
from repro.engine.vector.batch import ColumnBatch
from repro.engine.vector.executor import VectorExecutor
from repro.errors import ReproError, raise_through_frames
from repro.optimizer.prepare import prepare_plan
from repro.sqltypes.values import SqlValue


@dataclass(frozen=True)
class PlanConfig:
    """The nine :class:`ExecutorConfig` fields that planning reads.

    :func:`repro.statement.plan_statement`, :func:`prepare_plan` and the
    rewrite and distribution steps it runs take this type, and
    :class:`repro.statement.PlanMemo` keys on it: a planner read of a
    field outside it fails on the attribute instead of silently missing
    the key.  Everything else an ``ExecutorConfig`` holds (the budget, the
    cancellation token, grouping, morsels, spilling, the RPC deadline)
    changes how a plan runs, never which plan it is.  Built once per
    config, as :attr:`ExecutorConfig.plan_config`.
    """

    engine: str
    workers: int
    join_algorithm: str
    rewrites: Tuple[str, ...]
    shards: int
    exchange: str
    partitioning: str
    transport: str
    verify: bool


@dataclass(frozen=True)
class ExecutorConfig:
    """Execution strategy knobs.

    * ``join_algorithm``: ``"auto"`` (hash when an equi-key exists, else
      nested loop), ``"nested_loop"``, ``"hash"``, or ``"sort_merge"``.
    * ``aggregation``: ``"hash"`` or ``"sort"`` grouping.
    * ``expose_rowids``: add ``<corr>.#rowid`` to base-table scans.
    * ``exploit_orders``: let sort-based grouping skip its sort when the
      input is already ordered on the grouping columns (§2's pipelined
      aggregation; sort-merge joins always exploit presorted inputs).
    * ``verify``: statically verify every plan before executing it
      (:func:`repro.analysis.verifier.analyze_plan`, the last step of
      :func:`repro.optimizer.prepare.prepare_plan`); ERROR-severity
      findings raise :class:`~repro.errors.PlanVerificationError`.
    * ``engine``: ``"row"`` (tuple-at-a-time interpreter) or ``"vector"``
      (columnar batches + compiled kernels,
      :class:`repro.engine.vector.executor.VectorExecutor`).  Both backends
      produce ``=ⁿ``-identical results and identical :class:`ExecutionStats`.

    Resource budget (enforced by the per-execution
    :class:`~repro.engine.governor.ResourceGovernor`; all optional):

    * ``memory_limit_bytes``: estimated working-set cap for blocking
      operators — over it they spill to disk, or raise
      :class:`~repro.errors.MemoryLimitExceeded` when ``spill=False``.
    * ``timeout_seconds``: wall-clock budget; overrunning raises
      :class:`~repro.errors.QueryTimeout` at the next check point.
    * ``max_rows``: cap on any single operator's output cardinality
      (:class:`~repro.errors.RowLimitExceeded`).
    * ``spill`` / ``spill_dir``: allow spilling, and where (a fresh
      temp directory under ``spill_dir`` or the system default).
    * ``cancellation``: a :class:`~repro.engine.governor.CancellationToken`
      observed cooperatively at operator and row-loop boundaries.
    * ``degrade``: let a vector-engine kernel failure retry that operator
      on the row engine instead of failing the query (resource errors
      never degrade).
    * ``rewrites``: certified rewrite rules to apply before execution
      (:func:`repro.optimizer.rewrites.apply_rewrites`) — any subset of
      ``predicate_pushdown``, ``join_reordering``, ``projection_pruning``,
      or ``"all"``.  Every application is audited by the independent
      plan-equivalence checker; a failed audit aborts the query rather
      than running an unproven plan.

    Morsel streaming (vector engine only; the row engine ignores both):

    * ``morsel_size``: rows per morsel for the streaming vector pipelines
      (:mod:`repro.engine.vector.morsel`).  Non-blocking operator chains
      are fused and executed one morsel at a time, bounding peak memory by
      the morsel size instead of the input size.  ``None`` disables
      streaming entirely (the materialize-per-operator path).
    * ``workers``: processes for morsel-parallel partial aggregation
      (:mod:`repro.engine.vector.parallel`).  ``1`` keeps everything
      serial; ``0`` means *auto* — the worker-count autotuner picks
      ``os.cpu_count()`` (clamped, see
      :func:`repro.costing.cost.resolve_workers`).  Results are
      bit-identical whatever the count.  Below an Exchange wire it is
      pinned to ``1`` on either transport: a shard never forks further.

    Sharded execution (both engines):

    * ``shards``: number of partitions for shard-parallel execution.
      ``1`` (the default) disables distribution entirely.  With more, the
      planner wraps the plan's base-scan side in an
      :class:`~repro.algebra.ops.Exchange` (see
      :func:`repro.optimizer.distribute.distribute_plan`) and each shard
      runs its partition of the pipeline; results are bit-identical to
      unsharded execution.
    * ``exchange``: ``"auto"`` (cost-based: the communication-aware model
      picks partial-aggregation-below-the-wire vs ship-all), ``"off"``
      (never distribute, even with ``shards > 1``), or a forced mode
      (``"gather"``, ``"shuffle"``, ``"broadcast"``) — mode only changes
      the wire accounting, never the result.
    * ``partitioning``: ``"hash"`` or ``"range"`` shard assignment
      (:mod:`repro.storage.partition`); either way every row lands in
      exactly one shard, so this never changes results either.
    * ``transport``: ``"memory"`` (shards run in-process, the wire is a
      pickle round-trip) or ``"socket"`` (one OS process per shard —
      :mod:`repro.server.transport` — behind the framed codec of
      :mod:`repro.engine.wire`, with retries, health-checked failover, and
      idempotent request IDs — see :mod:`repro.engine.shardrpc`).  Both
      send the same requests to the same
      :func:`repro.engine.exchange.run_shard`, which takes that
      module's ``SHARD_CONFIG_FIELDS`` from this config and pins the
      rest; the cancellation token, ``spill_dir`` and the remaining
      deadline reach in-process shards only (no frame carries them).
      On both, partitions are resident below the wire: a request names
      its partition by id and carries the partition itself only to a
      worker that answered ``missing`` (a bounded store, no setting).
      Transport never changes results.
    * ``rpc_timeout_seconds``: the per-call deadline of each
      socket-transport shard delivery (the retry budget is
      :data:`repro.engine.shardrpc.RPC_ATTEMPTS`, not a setting).

    :attr:`plan_config` is the part that planning reads; it is not a
    field, so it takes no part in ``==``, ``hash`` or
    :func:`dataclasses.replace`.
    """

    join_algorithm: str = "auto"
    aggregation: str = "hash"
    expose_rowids: bool = False
    exploit_orders: bool = False
    verify: bool = False
    engine: str = "row"
    memory_limit_bytes: Optional[int] = None
    timeout_seconds: Optional[float] = None
    max_rows: Optional[int] = None
    spill: bool = True
    spill_dir: Optional[str] = None
    cancellation: Optional[CancellationToken] = None
    degrade: bool = True
    rewrites: Tuple[str, ...] = ()
    morsel_size: Optional[int] = 32768
    workers: int = 1
    shards: int = 1
    exchange: str = "auto"
    partitioning: str = "hash"
    transport: str = "memory"
    rpc_timeout_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.join_algorithm not in ("auto", "nested_loop", "hash", "sort_merge"):
            raise ValueError(f"bad join_algorithm: {self.join_algorithm}")
        object.__setattr__(self, "rewrites", normalize_rewrites(self.rewrites))
        if self.aggregation not in ("hash", "sort"):
            raise ValueError(f"bad aggregation: {self.aggregation}")
        if self.engine not in ("row", "vector"):
            raise ValueError(f"bad engine: {self.engine}")
        if self.memory_limit_bytes is not None and self.memory_limit_bytes <= 0:
            raise ValueError("memory_limit_bytes must be positive")
        if self.timeout_seconds is not None and self.timeout_seconds < 0:
            raise ValueError("timeout_seconds must be non-negative")
        if self.max_rows is not None and self.max_rows < 0:
            raise ValueError("max_rows must be non-negative")
        if self.morsel_size is not None and self.morsel_size <= 0:
            raise ValueError("morsel_size must be positive (or None)")
        if self.workers < 0:
            raise ValueError("workers must be at least 1 (or 0 for auto)")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.exchange not in ("auto", "off", "gather", "shuffle", "broadcast"):
            raise ValueError(f"bad exchange mode: {self.exchange}")
        if self.partitioning not in ("hash", "range"):
            raise ValueError(f"bad partitioning: {self.partitioning}")
        if self.transport not in ("memory", "socket"):
            raise ValueError(f"bad transport: {self.transport}")
        if self.rpc_timeout_seconds <= 0:
            raise ValueError("rpc_timeout_seconds must be positive")

    @cached_property
    def plan_config(self) -> PlanConfig:
        """This config's :class:`PlanConfig`, built once per instance: after
        the first read it is a plain instance attribute, so a warm plan-memo
        lookup pays no copy."""
        return PlanConfig(
            engine=self.engine,
            workers=self.workers,
            join_algorithm=self.join_algorithm,
            rewrites=self.rewrites,
            shards=self.shards,
            exchange=self.exchange,
            partitioning=self.partitioning,
            transport=self.transport,
            verify=self.verify,
        )


class Executor:
    """Executes logical plans against a :class:`Database`."""

    def __init__(
        self,
        database: Database,
        config: ExecutorConfig = ExecutorConfig(),
        params: Optional[Mapping[str, SqlValue]] = None,
    ) -> None:
        self.database = database
        self.config = config
        self.params = params
        #: The plan that last ran, as prepared (fused/rewritten/distributed).
        self.executed_plan: Optional[PlanNode] = None

    def run(self, plan: PlanNode) -> Tuple[DataSet, ExecutionStats]:
        """Prepare ``plan`` (:func:`repro.optimizer.prepare.prepare_plan`:
        fuse, configured rewrites, shard Exchange, opt-in verification — each
        skipped when already on the plan) and execute it; returns the result
        and per-operator statistics."""
        return self.run_prepared(
            prepare_plan(plan, self.database, self.config.plan_config).plan
        )

    def run_prepared(self, plan: PlanNode) -> Tuple[DataSet, ExecutionStats]:
        """Execute a plan :func:`prepare_plan` already returned, as it is."""
        self.executed_plan = plan
        if self.config.engine == "vector":
            return VectorExecutor(self.database, self.config, self.params).run(plan)
        return self._run_rows(plan)

    def run_columns(self, plan: PlanNode) -> Tuple[ColumnBatch, ExecutionStats]:
        """:meth:`run` with the result column-major, the form that crosses
        the shard wire: the vector engine's root batch as it stands, the row
        engine's rows transposed once."""
        plan = prepare_plan(plan, self.database, self.config.plan_config).plan
        self.executed_plan = plan
        if self.config.engine == "vector":
            return VectorExecutor(
                self.database, self.config, self.params
            ).run_columns(plan)
        result, stats = self._run_rows(plan)
        return ColumnBatch.from_dataset(result), stats

    def _run_rows(self, plan: PlanNode) -> Tuple[DataSet, ExecutionStats]:
        stats = ExecutionStats()
        governor = ResourceGovernor.from_config(self.config)
        try:
            result = self._execute(plan, stats, governor)
        finally:
            stats.spill_count = governor.spill_count
            stats.spilled_rows = governor.spilled_rows
            governor.close()
        return result, stats

    # -- dispatch -----------------------------------------------------------

    def _execute(
        self,
        node: PlanNode,
        stats: ExecutionStats,
        governor: ResourceGovernor,
        position: str = "",
    ) -> DataSet:
        """One operator frame: budget check, fault point, dispatch, and
        breadcrumb annotation of anything that escapes.

        ``position`` marks which child of a binary parent this is ("L"/"R");
        breadcrumbs accumulate innermost-first as an error propagates up,
        so the final message reads failing-operator → plan-root.
        """
        label = node.label()
        try:
            governor.check(label)
            faults.injection_point("row", label)
            result = self._dispatch(node, stats, governor)
            governor.charge_rows(result.cardinality, label)
            return result
        except (MemoryError, ReproError) as error:
            raise_through_frames(
                error, (f"{position}:{label}" if position else label,)
            )

    def _dispatch(
        self, node: PlanNode, stats: ExecutionStats, governor: ResourceGovernor
    ) -> DataSet:
        """Recurse into the children, run the operator's row body
        (:mod:`repro.engine.operators`), record it."""
        if isinstance(node, Exchange):
            from repro.engine.exchange import run_exchange

            return run_exchange(self, node, stats, governor).to_dataset()
        operator = operator_for(node)
        inputs = tuple(
            self._execute(child, stats, governor, position)
            for child, position in child_frames(node)
        )
        result, work = operator.row(node, inputs, self, governor)
        stats.record_node(
            node,
            operator.kind,
            (child.cardinality for child in inputs),
            result.cardinality,
            work,
        )
        return result


def execute(
    database: Database,
    plan: PlanNode,
    config: ExecutorConfig = ExecutorConfig(),
    params: Optional[Mapping[str, SqlValue]] = None,
) -> Tuple[DataSet, ExecutionStats]:
    """One-shot convenience wrapper around :class:`Executor`."""
    return Executor(database, config, params).run(plan)
