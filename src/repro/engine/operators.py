"""The operator table: one definition per physical operator.

The paper defines each algebra operator (σ, π, ×, G, F[AA]) exactly once;
so does the engine.  :data:`OPERATORS` maps every executable plan-node
type to its

* **row body** — ``(node, input DataSets, env, governor) -> (DataSet,
  work)``: the specification, and the owner of the spill machinery;
* **vector kernel** — ``(node, input ColumnBatches, env) -> (ColumnBatch,
  work)``: the same operator over columns, differentially tested against
  the row body — or ``None`` when it has no array path for these inputs,
  and the row body takes them (a hand-off, not a degradation);
* **spill rule** — ``(node, input ColumnBatches, env, governor) -> bool``:
  when the vector engine must hand the operator to the row body because
  its state would not fit the memory budget (the same deterministic
  estimate the row body re-checks, so both engines spill on the same
  operators);
* **kind** — the ``NodeStats.kind`` it is recorded under
  (:meth:`~repro.engine.stats.ExecutionStats.record_node`).

``env`` is whoever is executing — anything with ``database``, ``config``
and ``params`` (both executors qualify).  Three consumers read the table
and none re-spells a body: :class:`repro.engine.executor.Executor` runs the
row bodies, :meth:`repro.engine.vector.executor.VectorExecutor.apply` runs
the kernels with the row body as hand-off, spill route and degradation
fallback, and the morsel driver replays segments through that same ``apply``.
:func:`evaluate` is the frameless entry the Exchange merge uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.algebra.ops import (
    Apply,
    Group,
    GroupApply,
    Join,
    PlanNode,
    Product,
    Project,
    Relation,
    Select,
    Sort,
)
from repro.engine import joins
from repro.engine.aggregation import distinct, hash_group, sort_group
from repro.engine.dataset import DataSet, rowid_column
from repro.engine.governor import estimate_table_bytes
from repro.engine.sorting import is_sorted_on, sort_dataset
from repro.engine.vector import kernels
from repro.engine.vector.batch import ColumnBatch
from repro.engine.vector.columnar import table_to_batch
from repro.errors import ExecutionError
from repro.expressions.eval import ReusableRowScope, evaluate_predicate


@dataclass(frozen=True)
class Operator:
    """One physical operator's row body, vector kernel and spill rule."""

    kind: str
    row: Callable
    vector: Callable
    spills: Optional[Callable] = None


# -- scan --------------------------------------------------------------------


def _scan_rows(node: Relation, inputs, env, governor):
    table = env.database.table(node.table_name)
    correlation = node.correlation
    columns = [f"{correlation}.{c}" for c in table.column_names()]
    if env.config.expose_rowids:
        columns.append(rowid_column(correlation))
        rows = [row.values + (row.rowid,) for row in table]
    else:
        rows = [row.values for row in table]
    dataset = DataSet(columns, rows)
    return dataset, dataset.cardinality


def _scan_batch(node: Relation, inputs, env):
    batch = table_to_batch(
        env.database.table(node.table_name),
        node.correlation,
        expose_rowids=env.config.expose_rowids,
    )
    return batch, batch.length


# -- σ and π -----------------------------------------------------------------


def _select_rows(node: Select, inputs, env, governor):
    (child,) = inputs
    params = env.params
    scope = ReusableRowScope(child.columns)
    out_rows = []
    for row in child.rows:
        governor.tick("select")
        if evaluate_predicate(node.condition, scope.bind(row), params).is_true():
            out_rows.append(row)
    # Filtering preserves any known sort order.
    filtered = DataSet(child.columns, out_rows, ordering=child.ordering)
    return filtered, child.cardinality


def _select_batch(node: Select, inputs, env):
    return kernels.filter_batch(inputs[0], node.condition, env.params)


def _project_rows(node: Project, inputs, env, governor):
    (child,) = inputs
    projected = child.project(node.columns)
    work = child.cardinality
    if node.distinct:
        projected, distinct_work = distinct(projected, governor)
        work += distinct_work
    return projected, work


def project_columns(node: Project, batch):
    """π without its DISTINCT — streamed projections dedup across morsels
    themselves (:class:`repro.engine.vector.morsel._ProjectStage`)."""
    return kernels.project_batch(batch, node.columns)


def _project_batch(node: Project, inputs, env):
    if node.distinct:
        return None  # a materialized DISTINCT is the row body's
    (child,) = inputs
    return project_columns(node, child), child.length


# -- × and ⋈ -----------------------------------------------------------------


def _join_condition(node):
    return node.condition if isinstance(node, Join) else None  # × has none


def _join_rows(node, inputs, env, governor):
    left, right = inputs
    condition = _join_condition(node)
    algorithm = env.config.join_algorithm
    if condition is None:
        return joins.cartesian_product(left, right, governor)
    if algorithm == "nested_loop":
        return joins.nested_loop_join(left, right, condition, env.params, governor)
    if algorithm == "sort_merge":
        return joins.sort_merge_join(left, right, condition, env.params, governor)
    # "hash" and "auto": hash_join falls back to nested loop itself
    return joins.hash_join(left, right, condition, env.params, governor)


def _join_batch(node, inputs, env):
    left, right = inputs
    condition = _join_condition(node)
    algorithm = env.config.join_algorithm
    if condition is None:
        return kernels.cartesian_product_batch(left, right)
    if algorithm in ("nested_loop", "sort_merge"):
        return None  # no array path: the row body's
    return kernels.hash_join_batch(left, right, condition, env.params)


def _join_spills(node, inputs, env, governor) -> bool:
    """The row engine's spill decision on the same estimates.

    Hash joins check the build side exactly as :func:`joins.hash_join`
    does (raising when over budget with spilling disabled); sort-merge
    delegates whenever a side *might* exceed the budget — the row body
    then re-checks on the NULL-filtered inputs, so the actual spill/raise
    behaviour matches the row engine's precisely.
    """
    left, right = inputs
    condition = _join_condition(node)
    algorithm = env.config.join_algorithm
    if governor.memory_limit_bytes is None or condition is None:
        return False
    if algorithm == "nested_loop":
        return False
    pairs, __ = joins.extract_equi_keys(condition, left, right)
    if not pairs:
        return False  # falls back to nested loop on both backends
    right_bytes = estimate_table_bytes(right.length, len(right.names))
    if algorithm == "sort_merge":
        left_bytes = estimate_table_bytes(left.length, len(left.names))
        return max(left_bytes, right_bytes) > governor.memory_limit_bytes
    return governor.should_spill(right_bytes, "hash join build")


# -- F[AA] G[GA], bare G[GA], sort -------------------------------------------


def _presorted(node: GroupApply, child, config) -> bool:
    """§2's pipelined aggregation: sort-mode grouping skips its sort when
    the input already arrives grouped on GA."""
    return (
        config.aggregation == "sort"
        and config.exploit_orders
        and is_sorted_on(child, node.grouping_columns)
    )


def _group_rows(node: GroupApply, inputs, env, governor):
    (child,) = inputs
    if env.config.aggregation == "sort":
        return sort_group(
            child, node.grouping_columns, node.aggregates, env.params,
            presorted=_presorted(node, child, env.config), governor=governor,
        )
    return hash_group(
        child, node.grouping_columns, node.aggregates, env.params, governor
    )


def _group_batch(node: GroupApply, inputs, env):
    (child,) = inputs
    return kernels.grouped_aggregate(
        child, node.grouping_columns, node.aggregates, env.params,
        mode=env.config.aggregation,
        presorted=_presorted(node, child, env.config),
    )


def _group_spills(node: GroupApply, inputs, env, governor) -> bool:
    (child,) = inputs
    state_bytes = estimate_table_bytes(child.length, len(child.names))
    if env.config.aggregation == "sort":
        return not _presorted(node, child, env.config) and governor.should_spill(
            state_bytes, "sort group"
        )
    return governor.should_spill(state_bytes, "group by")


def _sort_keys(node):
    # G[GA] alone: the defining SQL is SELECT * FROM R ORDER BY GA —
    # grouping realized by sorting, rows unchanged.
    if isinstance(node, Group):
        return node.grouping_columns, None
    return node.columns, node.descending


def _sort_rows(node, inputs, env, governor):
    columns, descending = _sort_keys(node)
    return sort_dataset(inputs[0], columns, descending, governor)


def _sort_batch(node, inputs, env):
    return kernels.sort_batch(inputs[0], *_sort_keys(node))


def _sort_spills(node, inputs, env, governor) -> bool:
    (child,) = inputs
    return governor.should_spill(
        estimate_table_bytes(child.length, len(child.names)), "sort"
    )


# -- the table ---------------------------------------------------------------

_JOIN = Operator("join", _join_rows, _join_batch, _join_spills)

OPERATORS: Dict[type, Operator] = {
    Relation: Operator("scan", _scan_rows, _scan_batch),
    Select: Operator("select", _select_rows, _select_batch),
    Project: Operator("project", _project_rows, _project_batch),
    Product: _JOIN,
    Join: _JOIN,
    GroupApply: Operator("groupby", _group_rows, _group_batch, _group_spills),
    Group: Operator("groupby", _sort_rows, _sort_batch, _sort_spills),
    Sort: Operator("sort", _sort_rows, _sort_batch, _sort_spills),
}


def operator_for(node: PlanNode) -> Operator:
    operator = OPERATORS.get(type(node))
    if operator is not None:
        return operator
    if isinstance(node, Apply):
        raise ExecutionError(
            "Apply without Group beneath it; run fuse_group_apply first"
        )
    raise ExecutionError(f"cannot execute node {type(node).__name__}")


def child_frames(node: PlanNode) -> Iterator[Tuple[PlanNode, str]]:
    """``node``'s children with their breadcrumb position: "L"/"R" under a
    binary parent, unmarked otherwise."""
    children = node.children()
    return zip(children, ("L", "R") if len(children) == 2 else ("",))


def evaluate(node: PlanNode, inputs, env, governor=None):
    """One operator on ``env.config.engine`` over input batches, a batch
    back — no frame, no statistics (the Exchange merge above the wire).
    The vector kernel takes them as they are; the row body — the row
    engine's, or a kernel's hand-off — is handed rows and its rows are
    transposed back."""
    operator = operator_for(node)
    if env.config.engine == "vector":
        result = operator.vector(node, inputs, env)
        if result is not None:
            return result
    dataset, work = operator.row(
        node, tuple(batch.to_dataset() for batch in inputs), env, governor
    )
    return ColumnBatch.from_dataset(dataset), work
