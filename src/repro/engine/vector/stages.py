"""The fused stages of a streamed segment and the one per-morsel loop.

What the serial driver (:mod:`repro.engine.vector.morsel`) and every forked
worker (:mod:`repro.engine.vector.parallel`) both run: a ``Select`` /
``Project`` / terminal ``GroupApply`` stage each compile once and apply per
morsel, :func:`run_morsel` pushes one morsel through them, and
:func:`_reset_stage` puts them back as they were before the first.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.algebra.ops import GroupApply, Project, Select
from repro.engine.governor import estimate_table_bytes
from repro.engine.operators import project_columns
from repro.engine.vector.batch import ColumnBatch
from repro.engine.vector.compile import compile_selection
from repro.engine.vector.grouping import GroupedFold
from repro.sqltypes.values import group_key


class SegmentKernelError(Exception):
    """A kernel failure inside a streamed segment, tagged with its stage.

    Raised out of parallel workers (and unwrapped by the driver) so the
    degradation event is attributed to the operator that failed, exactly
    as the per-operator kernel guard would attribute it.
    """

    def __init__(self, stage_index: int, cause: str) -> None:
        super().__init__(cause)
        self.stage_index = stage_index
        self.cause = cause


class _SelectStage:
    """σ[C] fused into the morsel loop: compile once, filter per morsel."""

    kind = "select"

    def __init__(self, node: Select) -> None:
        self.node = node
        self.label = node.label()
        self.in_rows = 0
        self.out_rows = 0
        self.select = None
        self.params = None

    def begin(self, schema: ColumnBatch, params) -> ColumnBatch:
        self.select = compile_selection(self.node.condition, schema.names)
        self.params = params
        return self.apply(schema)

    def apply(self, batch: ColumnBatch) -> ColumnBatch:
        selection = self.select(batch, self.params)
        if len(selection) == batch.length:
            return batch  # nothing filtered: share the columns outright
        return batch.take(selection, ordering=batch.ordering)

    def work(self) -> int:
        return self.in_rows


class _ProjectStage:
    """π fused into the morsel loop; DISTINCT dedups against global state."""

    kind = "project"

    def __init__(self, node: Project) -> None:
        self.node = node
        self.label = node.label()
        self.in_rows = 0
        self.out_rows = 0
        self.distinct = bool(node.distinct)
        # Persistent =ⁿ dedup state, keyed by group_key as the row
        # engine's distinct() is, so one key scheme serves every morsel
        # whatever its type census.
        self.seen: Dict[Tuple, None] = {}

    def begin(self, schema: ColumnBatch, params) -> ColumnBatch:
        return self.apply(schema)

    def apply(self, batch: ColumnBatch) -> ColumnBatch:
        out = project_columns(self.node, batch)
        if not self.distinct:
            return out
        seen = self.seen
        selection: List[int] = []
        for i, row in enumerate(out.iter_rows()):
            key = group_key(row)
            if key not in seen:
                seen[key] = None
                selection.append(i)
        # Like the row engine's distinct(), DISTINCT drops the ordering.
        return out.take(selection)

    def work(self) -> int:
        return self.in_rows * 2 if self.distinct else self.in_rows


class _AggStage:
    """Terminal hash-mode G[GA]+F(AA): the grouped fold
    (:mod:`repro.engine.vector.grouping`) fed one morsel at a time.

    The stage owns what the driver accounts for — row counts, the work
    formula, the in-flight estimate's inputs — and nothing about groups or
    aggregates.  Output groups emerge in global first-appearance order.
    """

    kind = "groupby"

    def __init__(self, node: GroupApply) -> None:
        self.node = node
        self.label = node.label()
        self.in_rows = 0
        self.fold: Optional[GroupedFold] = None

    def begin(self, schema: ColumnBatch, params) -> ColumnBatch:
        self.fold = GroupedFold(
            schema, self.node.grouping_columns, self.node.aggregates, params
        )
        return schema  # terminal stage: nothing streams past it

    @property
    def out_rows(self) -> int:
        return len(self.fold.index)

    @property
    def out_arity(self) -> int:
        return len(self.fold.group_indexes) + len(self.node.aggregates)

    def work(self) -> int:
        return self.in_rows + self.out_rows

    def feed(self, batch: ColumnBatch) -> None:
        self.in_rows += batch.length
        self.fold.feed(batch)

    def export_partial(self, chain_counts, max_inflight: int):
        """This (worker-local) state as one picklable merge unit."""
        return {
            **self.fold.export(),
            "in_rows": self.in_rows,
            "chain_counts": chain_counts,
            "max_inflight": max_inflight,
        }

    def merge_partial(self, partial) -> None:
        self.fold.merge(partial)
        self.in_rows += partial["in_rows"]

    def finish(self) -> ColumnBatch:
        return self.fold.finish()


def run_morsel(source: ColumnBatch, m: int, morsel_size: int, stages, visit):
    """Push morsel ``m`` of ``source`` through ``stages``, bottom-up.

    The one per-morsel loop: the serial driver and every forked worker
    run it.  ``visit(index, stage)`` fires before each stage — the serial
    driver ticks the governor there, and both callers keep the index for
    error attribution.  Returns what leaves the last non-aggregating stage
    and the morsel's in-flight byte estimate.
    """
    lo = m * morsel_size
    current = source.slice(lo, min(source.length, lo + morsel_size))
    inflight = estimate_table_bytes(current.length, len(source.names))
    for index, stage in enumerate(stages):
        visit(index, stage)
        if isinstance(stage, _AggStage):
            stage.feed(current)
            inflight += estimate_table_bytes(stage.out_rows, stage.out_arity)
        else:
            stage.in_rows += current.length
            current = stage.apply(current)
            stage.out_rows += current.length
            inflight += estimate_table_bytes(current.length, len(current.names))
    return current, inflight


def _reset_stage(stage) -> None:
    stage.in_rows = 0
    if isinstance(stage, _AggStage):
        if stage.fold is not None:  # None: the segment failed before begin()
            stage.fold.reset()
    else:
        stage.out_rows = 0
        if isinstance(stage, _ProjectStage):
            stage.seen = {}
