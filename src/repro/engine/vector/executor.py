"""The vectorized plan executor: same plans, same stats, columnar inner loops.

:class:`VectorExecutor` walks the identical fused :class:`PlanNode` tree the
row executor walks, records :class:`NodeStats` under the same node ids with
the same work formulas, and returns the same result type (a
:class:`~repro.engine.dataset.DataSet`, materialized from the root batch) —
only the per-operator inner loops differ.  That contract is what keeps the
§7 cost study backend-independent, and the differential harness
(:mod:`tests.engine.differential`) holds it to account.

A kernel with no array path for its inputs (:mod:`.kernels`: no numpy, a
NULL or NaN key, nested loop, sort-merge, DISTINCT) returns ``None`` and
the operator's row body runs over the same child batches — a hand-off, not
a degradation: nothing is counted, and the stats are the row body's own.

Resilience rides on the same contract in two ways:

* **Spill routing** — blocking operators whose estimated state exceeds the
  memory budget are executed through the *row* implementations (which own
  the spill machinery), over the already-computed child batches.  Both
  backends compute the identical deterministic estimate, so they spill on
  exactly the same operators and produce identical results.
* **Graceful degradation** — a failing vector kernel (anything but a
  resource-budget error) is retried once on the row implementation, again
  over the already-computed children, and recorded in
  ``ExecutionStats.degradations``.  The row path is the specification the
  kernels are differentially tested against, so the retried operator
  produces the same rows and the same work count.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from repro.algebra.ops import Exchange, PlanNode
from repro.catalog.catalog import Database
from repro.engine import faults
from repro.engine.dataset import DataSet
from repro.engine.governor import ResourceGovernor
from repro.engine.operators import child_frames, operator_for
from repro.engine.stats import ExecutionStats
from repro.engine.vector.batch import ColumnBatch
from repro.engine.vector.morsel import MorselDriver
from repro.errors import ResourceError, raise_through_frames
from repro.sqltypes.values import SqlValue


class VectorExecutor:
    """Executes fused logical plans against columnar batches.

    Constructed by :class:`repro.engine.executor.Executor` when
    ``config.engine == "vector"``; not normally instantiated directly.
    ``config`` is the shared :class:`ExecutorConfig` (join algorithm,
    aggregation strategy, RowID exposure, order exploitation, and the
    resource budget).
    """

    def __init__(
        self,
        database: Database,
        config,
        params: Optional[Mapping[str, SqlValue]] = None,
    ) -> None:
        self.database = database
        self.config = config
        self.params = params
        # The recursion hook: every operator recurses into children through
        # this indirection.  run() points it at the morsel driver when
        # streaming is enabled, so fused chains anywhere in the plan are
        # intercepted; morsel_size=None keeps the classic per-operator path.
        self._recurse = self._execute

    def run(self, fused: PlanNode) -> Tuple[DataSet, ExecutionStats]:
        """Execute an already-fused plan; returns (result, statistics)."""
        batch, stats = self.run_columns(fused)
        return batch.to_dataset(), stats

    def run_columns(self, fused: PlanNode) -> Tuple[ColumnBatch, ExecutionStats]:
        """:meth:`run` with the root batch as it stands — what a shard
        ships (:func:`repro.engine.exchange.run_shard`), untransposed."""
        stats = ExecutionStats()
        governor = ResourceGovernor.from_config(self.config)
        if self.config.morsel_size is not None:
            driver = MorselDriver(self)
            self._recurse = driver.execute_node
            stats.pipelines = driver.pipeline
        else:
            self._recurse = self._execute
        try:
            batch = self._recurse(fused, stats, governor)
        finally:
            stats.spill_count = governor.spill_count
            stats.spilled_rows = governor.spilled_rows
            governor.close()
        return batch, stats

    # -- dispatch -----------------------------------------------------------

    def _execute(
        self,
        node: PlanNode,
        stats: ExecutionStats,
        governor: ResourceGovernor,
        position: str = "",
    ) -> ColumnBatch:
        """One operator frame: budget check, dispatch, breadcrumb annotation.

        The row executor's frame (same breadcrumbs, same
        :class:`MemoryError` conversion, both through
        :func:`~repro.errors.raise_through_frames`), except that non-Repro
        kernel exceptions surviving the degradation ladder are wrapped in
        a typed :class:`~repro.errors.ExecutionError` so nothing escapes
        bare.
        """
        label = node.label()
        try:
            governor.check(label)
            result = self._dispatch(node, stats, governor)
            governor.charge_rows(result.length, label)
            return result
        except Exception as error:
            raise_through_frames(
                error,
                (f"{position}:{label}" if position else label,),
                wrap_bare=True,
            )

    def _dispatch(
        self, node: PlanNode, stats: ExecutionStats, governor: ResourceGovernor
    ) -> ColumnBatch:
        if isinstance(node, Exchange):
            # The Exchange runner is engine-agnostic (run_shard re-enters
            # the public executor per shard with this engine and morsel
            # size, so shard subplans still run on the vector engine,
            # morsel driver and all) and its merged stream is a batch.
            from repro.engine.exchange import run_exchange

            governor.tick(node.label())
            return run_exchange(self, node, stats, governor)
        operator_for(node)  # unexecutable nodes fail before any child runs
        governor.tick(node.label())
        inputs = tuple(
            self._recurse(child, stats, governor, position)
            for child, position in child_frames(node)
        )
        return self.apply(node, inputs, stats, governor)

    def apply(
        self,
        node: PlanNode,
        inputs: Tuple[ColumnBatch, ...],
        stats: ExecutionStats,
        governor: ResourceGovernor,
    ) -> ColumnBatch:
        """One operator of the table over already-computed input batches.

        Spill-routed operators run the row body (it owns the spill
        machinery).  Everything else runs the vector kernel; a kernel that
        answers ``None`` hands its inputs to that same row body, uncounted,
        and a failing kernel retries once on it when ``config.degrade`` is
        on, the failure recorded in the stats.  Resource-budget errors
        (and raw allocation failures) are never retried — the row engine
        shares the same budget and would only fail later.  The
        fault-injection point lives inside the guard so an injected kernel
        fault exercises exactly this ladder.

        Reached from :meth:`_dispatch` and from the morsel driver's
        materialized segment replay.
        """
        operator = operator_for(node)
        label = node.label()

        def row_body() -> Tuple[ColumnBatch, int]:
            dataset, work = operator.row(
                node, tuple(batch.to_dataset() for batch in inputs), self, governor
            )
            return ColumnBatch.from_dataset(dataset), work

        result = None
        if operator.spills is None or not operator.spills(
            node, inputs, self, governor
        ):
            try:
                faults.injection_point("vector", label)
                result = operator.vector(node, inputs, self)
            except (ResourceError, MemoryError):
                raise
            except Exception as error:
                if not self.config.degrade:
                    raise
                stats.note_degradation(label, error)
                governor.check(label)  # don't retry past the deadline
        batch, work = row_body() if result is None else result
        stats.record_node(
            node,
            operator.kind,
            (child.length for child in inputs),
            batch.length,
            work,
        )
        return batch
