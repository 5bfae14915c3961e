"""Morsel-driven streaming pipelines for the vector executor.

The materialize-per-operator vector backend produces one full
:class:`~repro.engine.vector.batch.ColumnBatch` per plan node, so peak
memory scales with input size even when the plan is a straight
scan→filter→project→aggregate chain.  This module restructures execution
into *pipeline segments*: each physical plan is split at its pipeline
breakers (joins, sorts, sort-mode grouping, spill-routed operators), and
every maximal non-blocking chain of ``Select``/``Project`` stages — with
an optional terminal hash-mode ``GroupApply`` maintaining streaming
partial-aggregation state — is fused into one per-morsel loop over
fixed-size zero-copy slices of the segment's source batch
(:meth:`ColumnBatch.slice`).

The contract with the materialized path is strict and held to account by
the differential harness: a streamed segment produces the same result
multiset, the same ordering metadata, and **identical per-operator
statistics** (labels, cardinalities, work counters, in the same
``stats.order``) as running each operator over fully materialized
batches.  The sequencing mirrors the per-frame recursion exactly:

* **Phase A** — ``governor.check`` fires once per stage, top-down, before
  the source executes (as the recursive ``_execute`` frames would);
* **Phase B** — ``faults.injection_point("vector", label)`` fires once
  per stage, bottom-up (the order the per-operator kernel guards would
  reach them);
* **Phase C** — morsels stream through the fused chain,
  ``governor.tick`` firing per stage per morsel boundary;
* **Phase D** — per-stage ``NodeStats`` are recorded and ``charge_rows``
  is called bottom-up with the stage *totals*, matching the materialized
  per-operator accounting.

Degradation falls back for a **whole segment**: any non-resource failure
inside the fused loop (including injected kernel faults) re-runs the
segment through :meth:`MorselDriver._run_materialized`, which applies
the ordinary per-operator kernel ladder over the retained source batch —
so a degraded streamed run records exactly the stats a degraded
materialized run would.  The same routine is the single-morsel bypass
(inputs no larger than one morsel take the materialized path outright,
keeping small-query behaviour bit-identical) and the empty-input path.

Determinism under reordering: morsel boundaries change *when* rows reach
the aggregation state, never *what* it folds to.  That is the contract of
the one grouped fold (:mod:`repro.engine.vector.grouping`), which the
terminal stage (:mod:`repro.engine.vector.stages`) merely feeds a morsel
at a time: its state does not depend on how the input was chunked, and
the exports of consecutive ranges
merge, in range order, to the state of one pass — except where a
non-integer SUM/AVG makes a partial *order-sensitive*, which the export
says and the parallel driver answers by re-running the segment serially.
"""

from __future__ import annotations

from typing import List, Optional

from repro.algebra.ops import GroupApply, PlanNode, Project, Select
from repro.costing.cost import resolve_workers
from repro.engine import faults
from repro.engine.governor import ResourceGovernor, estimate_table_bytes
from repro.engine.stats import ExecutionStats, PipelineStats
from repro.engine.vector import parallel
from repro.engine.vector.batch import ColumnBatch, _Gather, _Repeat
from repro.engine.vector.stages import (
    SegmentKernelError,
    _AggStage,
    _ProjectStage,
    _reset_stage,
    _SelectStage,
    run_morsel,
)
from repro.errors import ReproError, ResourceError, raise_through_frames
from repro.sqltypes.values import SqlValue


# -- segment driver ----------------------------------------------------------


class MorselDriver:
    """Routes plan execution through streamed pipeline segments.

    Installed by :meth:`VectorExecutor.run` as the executor's recursion
    hook when ``config.morsel_size`` is set: every child-node recursion
    funnels through :meth:`execute_node`, which streams the node's
    maximal fused chain when one exists and otherwise dispatches to the
    ordinary materialized operator (whose own child recursions re-enter
    the driver, so chains *below* pipeline breakers still stream).
    """

    def __init__(self, executor) -> None:
        self.executor = executor
        self.config = executor.config
        self.morsel_size: int = executor.config.morsel_size
        #: Autotuned worker count (``workers=0`` resolves to the clamped
        #: cpu count; explicit counts pass through).
        self.workers: int = resolve_workers(executor.config.workers)
        self.pipeline = PipelineStats()

    def execute_node(
        self,
        node: PlanNode,
        stats: ExecutionStats,
        governor: ResourceGovernor,
        position: str = "",
    ) -> ColumnBatch:
        extracted = self._chain(node, governor)
        if extracted is None:
            return self.executor._execute(node, stats, governor, position)
        return self._run_segment(node, extracted, stats, governor, position)

    def _chain(self, node: PlanNode, governor: ResourceGovernor):
        """The maximal streamable chain headed at ``node``, top-down.

        Pipeline breakers (joins, products, sorts, bare groups, sort-mode
        aggregation) never join a chain — they run materialized, becoming
        segment sources or consumers.  A hash-mode GroupApply heads a
        chain only when no memory budget is set: under a budget the
        materialized operator keeps the exact spill-decision sequence
        (full-input estimate, row-engine spill machinery) the serial
        engine is differentially tested on.
        """
        stages: List[object] = []
        cursor = node
        if (
            isinstance(cursor, GroupApply)
            and self.config.aggregation != "sort"
            and governor.memory_limit_bytes is None
        ):
            stages.append(_AggStage(cursor))
            cursor = cursor.child
        while isinstance(cursor, (Select, Project)):
            stages.append(
                _SelectStage(cursor)
                if isinstance(cursor, Select)
                else _ProjectStage(cursor)
            )
            cursor = cursor.child
        if not stages:
            return None
        return stages, cursor

    def _run_segment(
        self,
        node: PlanNode,
        extracted,
        stats: ExecutionStats,
        governor: ResourceGovernor,
        position: str,
    ) -> ColumnBatch:
        stages_top_down, source_node = extracted
        bottom_up = stages_top_down[::-1]
        top_index = len(bottom_up) - 1
        active = 0
        try:
            # Phase A: per-frame budget checks, top-down — exactly the
            # order the recursive _execute frames would run them.
            for index in range(top_index, -1, -1):
                active = index
                governor.check(bottom_up[index].label)
            active = 0
            source = self.executor._execute(source_node, stats, governor)
        except (MemoryError, ReproError) as error:
            raise_through_frames(error, _frames(bottom_up, active, position))
        return self._stream(bottom_up, source, stats, governor, position)

    def _stream(
        self,
        bottom_up,
        source: ColumnBatch,
        stats: ExecutionStats,
        governor: ResourceGovernor,
        position: str,
    ) -> ColumnBatch:
        morsel_size = self.morsel_size
        pipe = self.pipeline
        pipe.segments += 1
        n = source.length
        top_index = len(bottom_up) - 1

        if n <= morsel_size:
            # At most one chunk: the fused loop would degenerate to the
            # materialized per-operator execution — run that outright
            # (bit-identical small-query behaviour, lazy views intact).
            if n:
                pipe.morsels += 1
                pipe.note_inflight(estimate_table_bytes(n, len(source.names)))
            return self._run_materialized(
                bottom_up, source, stats, governor, position
            )

        # Pre-warm what the morsel slices read, so no chunk converts a
        # column again: a plain column's array (cached on ``source``; its
        # slices are views of it) and an unmaterialized gather's *source*
        # array (cached where that source lives; a slice narrows only the
        # selection and gathers its own rows).  The gather itself is left
        # alone: its full-length array is read by no slice.
        for i, column in enumerate(source.columns):
            if isinstance(column, _Gather) and column._data is None:
                column.source_view()
            elif not isinstance(column, _Repeat):
                source.as_array(i)

        n_morsels = -(-n // morsel_size)
        active = 0
        try:
            # Phase B: bottom-up fault-injection visits (the order the
            # kernel guards would fire); an armed fault degrades the
            # whole segment, and the materialized replay then re-visits
            # every stage's injection point for remaining armed faults.
            for index, stage in enumerate(bottom_up):
                active = index
                faults.injection_point("vector", stage.label)

            # Compile stages and push the (empty) schema through.
            params = self.executor.params
            schema = source.slice(0, 0)
            agg: Optional[_AggStage] = None
            chain: List[object] = []
            for index, stage in enumerate(bottom_up):
                active = index
                schema = stage.begin(schema, params)
                if isinstance(stage, _AggStage):
                    agg = stage
                else:
                    chain.append(stage)

            # Phase C: drive morsels through the fused chain.
            active = top_index
            parallel_inflight = None
            if agg is not None and self._parallel_eligible(
                governor, n_morsels, chain
            ):
                parallel_inflight = parallel.run_parallel_segment(
                    bottom_up=bottom_up,
                    chain=chain,
                    agg=agg,
                    source=source,
                    morsel_size=morsel_size,
                    n_morsels=n_morsels,
                    workers=self.workers,
                    governor=governor,
                )
            if parallel_inflight is not None:
                pipe.morsels += n_morsels
                pipe.note_inflight(parallel_inflight)
            else:

                def visit(index: int, stage) -> None:
                    nonlocal active
                    active = index
                    governor.tick(stage.label)

                out_batches: List[ColumnBatch] = []
                for m in range(n_morsels):
                    current, inflight = run_morsel(
                        source, m, morsel_size, bottom_up, visit
                    )
                    if agg is None:
                        out_batches.append(current)
                    pipe.morsels += 1
                    pipe.note_inflight(inflight)

            active = top_index
            if agg is not None:
                final = agg.finish()
            else:
                final = _concat(schema, out_batches)
        except (MemoryError, ResourceError) as error:
            raise_through_frames(error, _frames(bottom_up, active, position))
        except Exception as error:
            if isinstance(error, SegmentKernelError):
                active = error.stage_index  # a worker's stage, not ours
            return self._degrade(
                bottom_up, source, stats, governor, position, active, error
            )

        # Phase D: record per-stage stats and charge the governor with
        # stage totals, bottom-up — the materialized accounting sequence.
        index = 0
        try:
            for index, stage in enumerate(bottom_up):
                stats.record_node(
                    stage.node, stage.kind, (stage.in_rows,),
                    stage.out_rows, stage.work(),
                )
                governor.charge_rows(stage.out_rows, stage.label)
        except ReproError as error:
            raise_through_frames(error, _frames(bottom_up, index, position))
        return final

    def _parallel_eligible(self, governor, n_morsels: int, chain) -> bool:
        if self.workers < 2 or n_morsels < 2:
            return False
        if governor.memory_limit_bytes is not None:
            # Spill parity: budgeted runs stay serial so every should_spill
            # decision is made from the one global deterministic estimate.
            return False
        if any(getattr(stage, "distinct", False) for stage in chain):
            return False  # global first-occurrence dedup is sequential
        return parallel.fork_available()

    # -- whole-segment degradation ---------------------------------------------

    def _degrade(
        self, bottom_up, source, stats, governor, position, index, error
    ) -> ColumnBatch:
        label = bottom_up[index].label
        frames = _frames(bottom_up, index, position)
        if not self.config.degrade:
            raise_through_frames(error, frames, wrap_bare=True)
        stats.note_degradation(label, error)
        try:
            governor.check(label)  # don't retry past the deadline
        except ReproError as check_error:
            raise_through_frames(check_error, frames)
        for stage in bottom_up:  # discard partial streaming state
            _reset_stage(stage)
        return self._run_materialized(
            bottom_up, source, stats, governor, position
        )

    # -- the materialized replay -----------------------------------------------

    def _run_materialized(
        self, bottom_up, source, stats, governor, position
    ) -> ColumnBatch:
        """The segment, one materialized operator at a time.

        Serves three roles with one code path: the single-morsel bypass,
        the empty-input path, and the whole-segment degradation fallback.
        Each stage is the operator table's entry for its node, run by
        :meth:`VectorExecutor.apply` (spill rule, injection point, vector
        kernel, row-body retry, ``NodeStats``) over the retained source
        batch; only the frame's tick and row charge are spelled here.
        """
        current = source
        index = 0
        try:
            for index, stage in enumerate(bottom_up):
                governor.tick(stage.label)
                current = self.executor.apply(
                    stage.node, (current,), stats, governor
                )
                governor.charge_rows(current.length, stage.label)
            return current
        except Exception as error:
            raise_through_frames(
                error, _frames(bottom_up, index, position), wrap_bare=True
            )


def _frames(bottom_up, from_index: int, position: str) -> List[str]:
    """Breadcrumbs for fused frames: innermost-first, as if unwinding."""
    frames = [stage.label for stage in bottom_up[from_index:]]
    if position:
        frames[-1] = f"{position}:{frames[-1]}"
    return frames


def _concat(schema: ColumnBatch, batches: List[ColumnBatch]) -> ColumnBatch:
    """Stitch morsel outputs back into one batch, in stream order.

    The per-morsel ordering metadata is data-independent (every morsel
    ran the same annotation rules), and morsels are contiguous slices
    processed in order — so the concatenation carries the same ordering
    and the same physical row order the materialized operators produce.
    """
    names = schema.names
    ordering = batches[0].ordering if batches else schema.ordering
    length = sum(batch.length for batch in batches)
    columns: List[List[SqlValue]] = []
    for i in range(len(names)):
        column: List[SqlValue] = []
        for batch in batches:
            part = batch.columns[i]
            column.extend(part if isinstance(part, list) else list(part))
        columns.append(column)
    return ColumnBatch(names, columns, length=length, ordering=ordering)
