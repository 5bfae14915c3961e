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

Determinism under reordering: morsel boundaries change *when* partial
aggregation states are merged, never *what* they merge to.  COUNT and
integer SUM/AVG partials merge with exact integer arithmetic; MIN/MAX
merge with the same strict comparison the sequential fold uses; DISTINCT
aggregates fold their value set in global first-appearance order; and
non-integer SUM/AVG (float addition is non-associative) always fold
per-row in input order — parallel workers flag such aggregates
*order-sensitive* and the driver re-runs the segment serially.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra.ops import GroupApply, PlanNode, Project, Select
from repro.engine import faults
from repro.engine.governor import ResourceGovernor, estimate_table_bytes
from repro.engine.operators import project_columns
from repro.engine.stats import ExecutionStats, PipelineStats
from repro.engine.vector import kernels
from repro.engine.vector.batch import ColumnBatch, _np
from repro.errors import (
    ExecutionError,
    ReproError,
    ResourceError,
    raise_through_frames,
)
from repro.expressions.compile import (
    TRUE_CODE,
    GroupVectors,
    compile_aggregate_arguments,
    compile_group_expression,
    compile_predicate,
)
from repro.sqltypes.values import NULL, SqlValue, group_key, sql_add, sql_div


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


class _GuardColumn:
    """A synthetic column that refuses to be read.

    Stands in for non-grouping source columns of the streamed-aggregation
    finalizer: grouped-table discipline means a valid plan never reads
    them outside an aggregate, so any access marks an invalid plan —
    raising here routes the segment through the materialized fallback,
    which produces the error (or value) the per-operator path would.
    """

    __slots__ = ("name", "n")

    def __init__(self, name: str, n: int) -> None:
        self.name = name
        self.n = n

    def __len__(self) -> int:
        return self.n

    def _refuse(self):
        raise ExecutionError(
            f"column {self.name!r} read outside the grouping columns"
        )

    def __getitem__(self, index):
        self._refuse()

    def __iter__(self):
        self._refuse()


class _GrowAcc:
    """A growable per-group accumulator with order-independent merging.

    Implements the sequential
    :class:`~repro.engine.vector.kernels._Accumulator` fold semantics,
    but groups are appended as they are discovered and exported partial
    states can be merged in: integer COUNT/SUM/AVG partials add exactly,
    MIN/MAX merge by the same strict comparison the fold uses (so the
    globally-first value among ``=ⁿ`` ties survives), and DISTINCT
    aggregates keep their value set in first-seen order and fold once at
    merge time.  ``order_sensitive`` flips when a non-integer value
    reaches a non-distinct SUM/AVG — those folds are only exact in input
    order, so their partials must not be merged out of order.
    """

    __slots__ = (
        "function", "distinct", "counts", "state", "seen", "order_sensitive"
    )

    def __init__(self, function: str, distinct: bool) -> None:
        self.function = function
        self.distinct = distinct
        self.counts: List[int] = []
        self.state: List[SqlValue] = []
        self.seen: Optional[List[Dict[Tuple, SqlValue]]] = (
            [] if distinct else None
        )
        self.order_sensitive = False

    def grow(self, n_groups: int) -> None:
        add = n_groups - len(self.counts)
        if add > 0:
            self.counts.extend([0] * add)
            self.state.extend([NULL] * add)
            if self.seen is not None:
                self.seen.extend({} for __ in range(add))

    def feed(self, gid: int, value: SqlValue) -> None:
        if value is NULL:
            return
        if self.seen is not None:
            key = group_key((value,))
            bucket = self.seen[gid]
            if key in bucket:
                return
            bucket[key] = value
        function = self.function
        count = self.counts[gid]
        self.counts[gid] = count + 1
        if function == "COUNT":
            return
        if count == 0:
            self.state[gid] = value
            if function in ("SUM", "AVG") and type(value) is not int:
                self.order_sensitive = True
        elif function in ("SUM", "AVG"):
            if type(value) is not int:
                self.order_sensitive = True
            self.state[gid] = sql_add(self.state[gid], value)
        elif function == "MIN":
            if value < self.state[gid]:  # type: ignore[operator]
                self.state[gid] = value
        elif function == "MAX":
            if self.state[gid] < value:  # type: ignore[operator]
                self.state[gid] = value
        else:
            raise ExecutionError(f"unknown aggregate function {function}")

    def add_star(self, gid: int, count: int) -> None:
        """COUNT(*): group sizes, no argument values."""
        self.counts[gid] += count

    def add_int_partial(self, gid: int, total: SqlValue, count: int) -> None:
        """Merge an exact integer partial (COUNT/SUM/AVG over int values)."""
        if count == 0:
            return
        had = self.counts[gid]
        self.counts[gid] = had + count
        if self.function == "COUNT":
            return
        if had == 0:
            self.state[gid] = total
        else:
            self.state[gid] = self.state[gid] + total  # type: ignore[operator]

    def merge_minmax(self, gid: int, state: SqlValue, count: int) -> None:
        if count == 0:
            return
        had = self.counts[gid]
        self.counts[gid] = had + count
        if had == 0:
            self.state[gid] = state
        elif self.function == "MIN":
            if state < self.state[gid]:  # type: ignore[operator]
                self.state[gid] = state
        else:
            if self.state[gid] < state:  # type: ignore[operator]
                self.state[gid] = state

    def export(self, n_groups: int):
        """A picklable partial covering local groups ``[0, n_groups)``."""
        self.grow(n_groups)
        if self.seen is not None:
            return [list(bucket.values()) for bucket in self.seen]
        return list(zip(self.counts, self.state))

    def merge(self, gid: int, partial) -> None:
        """Fold one exported local-group partial into global group ``gid``."""
        if self.seen is not None:
            for value in partial:
                self.feed(gid, value)
            return
        count, state = partial
        if self.function in ("COUNT", "SUM", "AVG"):
            self.add_int_partial(gid, state, count)
        else:
            self.merge_minmax(gid, state, count)

    def finish(self) -> List[SqlValue]:
        if self.function == "COUNT":
            return list(self.counts)
        if self.function == "AVG":
            return [
                NULL
                if count == 0
                else (
                    sql_div(total, count)
                    if not isinstance(total, int)
                    else total / count
                )
                for total, count in zip(self.state, self.counts)
            ]
        return self.state


def _minmax_array(values, batch: ColumnBatch):
    """A numpy view of a MIN/MAX argument column, or ``None``.

    Stricter than :func:`kernels._values_array`: MIN/MAX keep the *exact
    winning value* (type identity matters for ``=ⁿ`` bit-equality), so
    only direct batch columns qualify — :meth:`ColumnBatch.as_array`
    guarantees those are homogeneous ``{int}`` or ``{float}`` and
    NULL-free, so ``tolist()`` round-trips every element exactly.
    Computed argument lists may mix int and float (``asarray`` would
    silently promote the ints) and are left to the per-row fold.  Float
    columns containing NaN also fall back: ``reduceat`` propagates NaN
    while the fold's strict ``<`` never selects it.
    """
    if _np is None:
        return None
    for index, column in enumerate(batch.columns):
        if column is values:
            arr = batch.as_array(index)
            if arr is None:
                return None
            if arr.dtype.kind == "f" and _np.isnan(arr).any():
                return None
            return arr
    return None


# -- pipeline stages ---------------------------------------------------------


class _SelectStage:
    """σ[C] fused into the morsel loop: compile once, filter per morsel."""

    kind = "select"

    def __init__(self, node: Select) -> None:
        self.node = node
        self.label = node.label()
        self.in_rows = 0
        self.out_rows = 0
        self.predicate = None
        self.params = None

    def begin(self, schema: ColumnBatch, params) -> ColumnBatch:
        self.predicate = compile_predicate(self.node.condition, schema.names)
        self.params = params
        return self.apply(schema)

    def apply(self, batch: ColumnBatch) -> ColumnBatch:
        codes = self.predicate(batch, self.params)
        selection = [i for i, code in enumerate(codes) if code == TRUE_CODE]
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
        # Persistent =ⁿ dedup state.  group_key equality coincides with
        # raw-tuple equality whenever distinct_batch's raw path is sound,
        # so one key scheme serves every morsel whatever its type census.
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
        # Like distinct_batch / the row engine, DISTINCT drops the ordering.
        return out.take(selection)

    def work(self) -> int:
        return self.in_rows * 2 if self.distinct else self.in_rows


class _AggStage:
    """Terminal hash-mode G[GA]+F(AA) maintaining streaming partial state.

    Grouping keys live in a persistent ``group_key``-keyed table; the raw
    key tuple of each group's globally-first row is captured as its
    representative (the row engine's choice).  Integer COUNT/SUM/AVG
    arguments fold per morsel at C speed through ``np.bincount`` (exact —
    integer partials merge associatively); everything else feeds per row,
    in input order, with the same accumulator semantics the materialized
    kernel uses.  Output groups emerge in global first-appearance order.
    """

    kind = "groupby"

    def __init__(self, node: GroupApply) -> None:
        self.node = node
        self.label = node.label()
        self.in_rows = 0
        self.params = None
        self.in_names: Tuple[str, ...] = ()
        self.group_indexes: Tuple[int, ...] = ()
        self.compiled = []
        self.slots = {}
        self.accs: List[_GrowAcc] = []
        self.table: Dict[Tuple, int] = {}
        self.reps_raw: List[Tuple[SqlValue, ...]] = []

    def begin(self, schema: ColumnBatch, params) -> ColumnBatch:
        self.params = params
        self.in_names = schema.names
        self.group_indexes = schema.indexes_of(self.node.grouping_columns)
        self.compiled, self.slots = compile_aggregate_arguments(
            self.node.aggregates, schema.names
        )
        self.accs = [
            _GrowAcc(aggregate.function, aggregate.distinct)
            for aggregate in self.compiled
        ]
        return schema  # terminal stage: nothing streams past it

    @property
    def out_rows(self) -> int:
        return len(self.reps_raw)

    @property
    def out_arity(self) -> int:
        return len(self.group_indexes) + len(self.node.aggregates)

    def work(self) -> int:
        return self.in_rows + len(self.reps_raw)

    def order_sensitive(self) -> bool:
        return any(acc.order_sensitive for acc in self.accs)

    def _factorize(self, batch: ColumnBatch):
        """Global group ids for a morsel's rows (appending new groups).

        The fast path factorizes morsel-local numeric key arrays with
        ``np.unique`` and maps each local group through the persistent
        ``group_key`` table, so the *partition* is always the ``=ⁿ``
        partition whichever path a given morsel takes.
        """
        n = batch.length
        indexes = self.group_indexes
        table = self.table
        reps = self.reps_raw
        if indexes and _np is not None:
            arrays = []
            for i in indexes:
                arr = batch.as_array(i)
                if arr is None:
                    arrays = None
                    break
                if arr.dtype.kind == "f" and _np.isnan(arr).any():
                    arrays = None  # NaN equality differs from the Python path
                    break
                arrays.append(arr)
            if arrays:
                codes = (
                    arrays[0]
                    if len(arrays) == 1
                    else kernels._combine_codes(arrays)
                )
                __, first, inverse = _np.unique(
                    codes, return_index=True, return_inverse=True
                )
                columns = [batch.columns[i] for i in indexes]
                local2global = _np.empty(len(first), dtype=_np.int64)
                for u, first_row in enumerate(first.tolist()):
                    raw = tuple(column[first_row] for column in columns)
                    key = group_key(raw)
                    gid = table.get(key)
                    if gid is None:
                        gid = len(reps)
                        table[key] = gid
                        reps.append(raw)
                    local2global[u] = gid
                return local2global[inverse.reshape(-1)]
        # Generic path: per-row =ⁿ keys in input order.
        gids: List[int] = [0] * n
        if not indexes:
            empty: Tuple[SqlValue, ...] = ()
            key = group_key(empty)
            gid = table.get(key)
            if gid is None and n:
                gid = len(reps)
                table[key] = gid
                reps.append(empty)
            for r in range(n):
                gids[r] = gid
        else:
            columns = [batch.columns[i] for i in indexes]
            for r, raw in enumerate(zip(*columns)):
                key = group_key(raw)
                gid = table.get(key)
                if gid is None:
                    gid = len(reps)
                    table[key] = gid
                    reps.append(raw)
                gids[r] = gid
        if _np is not None:
            return _np.asarray(gids, dtype=_np.int64)
        return gids

    def feed(self, batch: ColumnBatch) -> None:
        n = batch.length
        self.in_rows += n
        if n == 0:
            return
        gids = self._factorize(batch)
        n_groups = len(self.reps_raw)
        gids_list: Optional[List[int]] = None
        counts = None
        present: List[int] = []
        if _np is not None:
            counts = _np.bincount(gids, minlength=n_groups)
            present = _np.nonzero(counts)[0].tolist()
        for acc, aggregate in zip(self.accs, self.compiled):
            acc.grow(n_groups)
            if aggregate.argument is None:  # COUNT(*): group sizes
                if counts is not None:
                    for g in present:
                        acc.add_star(g, int(counts[g]))
                else:
                    for gid in gids:
                        acc.add_star(gid, 1)
                continue
            values = aggregate.argument(batch, self.params)
            if (
                counts is not None
                and not aggregate.distinct
                and not acc.order_sensitive
                and acc.function in ("COUNT", "SUM", "AVG")
            ):
                arr = kernels._values_array(values, batch)
                if arr is not None and (
                    acc.function == "COUNT" or arr.dtype.kind == "i"
                ):
                    if acc.function == "COUNT":
                        # An array view exists ⇒ no NULLs: count = size.
                        for g in present:
                            acc.add_int_partial(g, 0, int(counts[g]))
                        continue
                    amax = int(_np.abs(arr).max()) if arr.size else 0
                    if 0 <= amax and amax * arr.size < 2 ** 53:
                        totals = _np.bincount(
                            gids, weights=arr, minlength=n_groups
                        )
                        for g in present:
                            acc.add_int_partial(
                                g, int(totals[g]), int(counts[g])
                            )
                        continue
            if (
                counts is not None
                and not aggregate.distinct
                and acc.function in ("MIN", "MAX")
            ):
                arr = _minmax_array(values, batch)
                if arr is not None:
                    # Per-morsel extreme per group: one stable argsort on
                    # the gid array, then a single reduceat over the
                    # group-contiguous permutation — C speed instead of a
                    # per-row Python fold.  Merging the morsel extreme
                    # uses the same strict comparison as the fold, so
                    # the globally-first value among ties still wins.
                    order = _np.argsort(gids, kind="stable")
                    sorted_gids = gids[order]
                    sorted_values = arr[order]
                    starts = _np.flatnonzero(
                        _np.r_[True, sorted_gids[1:] != sorted_gids[:-1]]
                    )
                    reducer = (
                        _np.minimum if acc.function == "MIN" else _np.maximum
                    )
                    extremes = reducer.reduceat(sorted_values, starts)
                    for g, extreme in zip(
                        sorted_gids[starts].tolist(), extremes.tolist()
                    ):
                        acc.merge_minmax(g, extreme, int(counts[g]))
                    continue
            if gids_list is None:
                gids_list = gids if isinstance(gids, list) else gids.tolist()
            feed = acc.feed
            for r in range(n):
                feed(gids_list[r], values[r])

    def export_partial(self, chain_counts, max_inflight: int):
        """This (worker-local) state as one picklable merge unit."""
        n_groups = len(self.reps_raw)
        return {
            "groups": self.reps_raw,
            "accs": [acc.export(n_groups) for acc in self.accs],
            "in_rows": self.in_rows,
            "chain_counts": chain_counts,
            "order_sensitive": self.order_sensitive(),
            "max_inflight": max_inflight,
        }

    def merge_partial(self, partial) -> None:
        table = self.table
        reps = self.reps_raw
        mapping: List[int] = []
        for raw in partial["groups"]:
            key = group_key(raw)
            gid = table.get(key)
            if gid is None:
                gid = len(reps)
                table[key] = gid
                reps.append(raw)
            mapping.append(gid)
        n_groups = len(reps)
        for acc, exported in zip(self.accs, partial["accs"]):
            acc.grow(n_groups)
            for local_gid, item in enumerate(exported):
                acc.merge(mapping[local_gid], item)
        self.in_rows += partial["in_rows"]

    def finish(self) -> ColumnBatch:
        n_groups = len(self.reps_raw)
        agg_columns = [acc.finish() for acc in self.accs]
        key_cols: List[List[SqlValue]] = [
            [raw[j] for raw in self.reps_raw]
            for j in range(len(self.group_indexes))
        ]
        position = {index: j for j, index in enumerate(self.group_indexes)}
        src_columns: List[Sequence[SqlValue]] = [
            key_cols[position[i]]
            if i in position
            else _GuardColumn(name, n_groups)
            for i, name in enumerate(self.in_names)
        ]
        source = ColumnBatch(self.in_names, src_columns, length=n_groups)
        groups = GroupVectors(source, list(range(n_groups)), agg_columns)
        specs = self.node.aggregates
        spec_columns = [
            compile_group_expression(
                spec.expression, self.in_names, self.slots
            )(groups, self.params)
            for spec in specs
        ]
        out_names = tuple(
            self.in_names[i] for i in self.group_indexes
        ) + tuple(spec.name for spec in specs)
        out_columns: List[Sequence[SqlValue]] = list(key_cols)
        out_columns.extend(spec_columns)
        return ColumnBatch(out_names, out_columns, length=n_groups, ordering=())


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
        from repro.engine.vector.parallel import resolve_workers

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

        # Pre-warm the source's array cache: every morsel slice then
        # shares the same numpy base buffers (zero-copy views) instead of
        # re-attempting column conversions per chunk.
        for i in range(len(source.names)):
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
                from repro.engine.vector.parallel import run_parallel_segment

                parallel_inflight = run_parallel_segment(
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
        from repro.engine.vector.parallel import fork_available

        return fork_available()

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
            inflight += estimate_table_bytes(len(stage.reps_raw), stage.out_arity)
        else:
            stage.in_rows += current.length
            current = stage.apply(current)
            stage.out_rows += current.length
            inflight += estimate_table_bytes(current.length, len(current.names))
    return current, inflight


def _reset_stage(stage) -> None:
    stage.in_rows = 0
    if isinstance(stage, _AggStage):
        stage.table = {}
        stage.reps_raw = []
        stage.accs = [
            _GrowAcc(aggregate.function, aggregate.distinct)
            for aggregate in stage.compiled
        ]
    else:
        stage.out_rows = 0
        if isinstance(stage, _ProjectStage):
            stage.seen = {}


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
