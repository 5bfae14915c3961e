"""Join algorithms: nested-loop, hash, and sort-merge.

All three produce identical results (σ[C](L × R) with WHERE semantics:
a pair qualifies only when the condition is TRUE); they differ in the work
they report, which is what the cost study consumes.

Equi-join keys are extracted from the conjuncts of the join condition;
non-equality residue is applied as a post-filter.  NULL join keys never
match under ``=`` (UNKNOWN ⇒ drop), per SQL2 — this differs from the
grouping semantics and both are exercised by tests.  A NaN key matches
every NaN key (NaN = NaN is TRUE, as in PostgreSQL and ``group_key``) in
all three algorithms, whatever object holds it.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

from repro.engine.dataset import DataSet
from repro.engine.governor import (
    PartitionedSpill,
    ResourceGovernor,
    estimate_table_bytes,
    external_sort_rows,
)
from repro.engine.sorting import is_sorted_on
from repro.errors import BindingError
from repro.expressions.analysis import classify_atomic, Type2Condition
from repro.expressions.ast import Expression
from repro.expressions.eval import ReusableRowScope, evaluate_predicate
from repro.expressions.normalize import conjoin, split_conjuncts
from repro.sqltypes.values import (
    SqlValue,
    inexact_positions,
    is_null,
    nan_keyed,
    sort_key,
)


def _combined(left: DataSet, right: DataSet) -> Tuple[str, ...]:
    return left.columns + right.columns


def _side_index(dataset: DataSet, name: str) -> Optional[int]:
    """The column's index when it binds on this side, else ``None``."""
    try:
        return dataset.index_of(name)
    except BindingError:
        return None


def extract_equi_keys(
    condition: Optional[Expression], left: DataSet, right: DataSet
) -> Tuple[List[Tuple[int, int]], Optional[Expression]]:
    """Split a join condition into equi-key index pairs and a residual.

    Returns ``(pairs, residual)`` where each pair is ``(left_index,
    right_index)`` and ``residual`` is the conjunction of everything that is
    not a cross-input column equality.  An equality is a join key only when
    its two columns bind on *opposite* sides, each unambiguously: an
    equality between two columns of the same side (e.g. ``A.X = A.Y``) is
    a per-row filter, not a key, and stays in the residual.
    """
    pairs: List[Tuple[int, int]] = []
    residual: List[Expression] = []
    for conjunct in split_conjuncts(condition):
        classified = classify_atomic(conjunct)
        matched = False
        if isinstance(classified, Type2Condition):
            first = classified.left.qualified
            second = classified.right.qualified
            first_left = _side_index(left, first)
            first_right = _side_index(right, first)
            second_left = _side_index(left, second)
            second_right = _side_index(right, second)
            if (
                first_left is not None
                and first_right is None
                and second_right is not None
                and second_left is None
            ):
                pairs.append((first_left, second_right))
                matched = True
            elif (
                second_left is not None
                and second_right is None
                and first_right is not None
                and first_left is None
            ):
                pairs.append((second_left, first_right))
                matched = True
        if not matched:
            residual.append(conjunct)
    return pairs, conjoin(residual)


def nested_loop_join(
    left: DataSet,
    right: DataSet,
    condition: Optional[Expression],
    params: Optional[Mapping[str, SqlValue]] = None,
    governor: Optional[ResourceGovernor] = None,
) -> Tuple[DataSet, int]:
    """Examine every pair; work = |L| × |R| (the paper's join-size metric)."""
    columns = _combined(left, right)
    out_rows: List[Tuple[SqlValue, ...]] = []
    scope = ReusableRowScope(columns)
    for left_row in left.rows:
        for right_row in right.rows:
            if governor is not None:
                governor.tick("nested loop join")
            combined = left_row + right_row
            if condition is None or evaluate_predicate(
                condition, scope.bind(combined), params
            ).is_true():
                out_rows.append(combined)
    work = left.cardinality * right.cardinality
    return DataSet(columns, out_rows), work


def hash_join(
    left: DataSet,
    right: DataSet,
    condition: Optional[Expression],
    params: Optional[Mapping[str, SqlValue]] = None,
    governor: Optional[ResourceGovernor] = None,
) -> Tuple[DataSet, int]:
    """Hash join on extracted equi-keys; falls back to nested loop when the
    condition has no usable equality.  Work = |L| + |R| + matches examined.

    When a governor signals memory pressure on the build side, the join
    switches to a grace (partitioned) strategy that spills both inputs to
    disk and joins partition-by-partition — producing the identical output
    rows in the identical order, with the identical work count.
    """
    pairs, residual = extract_equi_keys(condition, left, right)
    if not pairs:
        return nested_loop_join(left, right, condition, params, governor)

    columns = _combined(left, right)
    left_keys = [p[0] for p in pairs]
    right_keys = [p[1] for p in pairs]
    # NaN = NaN: a key component whose build census holds a float or a
    # Decimal keys every NaN as one token; int and str keys stay raw.
    inexact = inexact_positions(right.rows, right_keys)

    if governor is not None:
        build_bytes = estimate_table_bytes(
            right.cardinality, len(right.columns)
        )
        if governor.should_spill(build_bytes, "hash join build"):
            return _grace_hash_join(
                left, right, columns, left_keys, right_keys, inexact,
                residual, params, governor, build_bytes,
            )

    table: dict = {}
    for right_row in right.rows:
        key_values = tuple(right_row[i] for i in right_keys)
        if any(is_null(v) for v in key_values):
            continue  # NULL keys never match under `=`
        if inexact:
            key_values = nan_keyed(key_values, inexact)
        table.setdefault(key_values, []).append(right_row)

    out_rows: List[Tuple[SqlValue, ...]] = []
    probes = 0
    scope = ReusableRowScope(columns)
    for left_row in left.rows:
        if governor is not None:
            governor.tick("hash join probe")
        key_values = tuple(left_row[i] for i in left_keys)
        if any(is_null(v) for v in key_values):
            continue
        if inexact:
            key_values = nan_keyed(key_values, inexact)
        for right_row in table.get(key_values, ()):
            probes += 1
            combined = left_row + right_row
            if residual is None or evaluate_predicate(
                residual, scope.bind(combined), params
            ).is_true():
                out_rows.append(combined)
    work = left.cardinality + right.cardinality + probes
    return DataSet(columns, out_rows), work


def _grace_hash_join(
    left: DataSet,
    right: DataSet,
    columns: Tuple[str, ...],
    left_keys: List[int],
    right_keys: List[int],
    inexact: Tuple[int, ...],
    residual: Optional[Expression],
    params: Optional[Mapping[str, SqlValue]],
    governor: ResourceGovernor,
    build_bytes: int,
) -> Tuple[DataSet, int]:
    """Grace hash join: partition both sides to disk, join per partition.

    Equal keys hash to the same partition, so every left row meets exactly
    the right rows it would have met in memory, in right-input order.
    Each probe row is tagged with its original left index and the merged
    output is stably re-sorted on that index, reproducing the in-memory
    probe order exactly.  Probe counts (and hence work) are unchanged.
    """
    partitions = governor.spill_partitions(build_bytes)
    spill = governor.spill_manager()
    chunk = max(16, governor.rows_per_run(len(columns)) // partitions)
    # ``inexact`` as in memory: a NaN hashes to one partition, one bucket.
    def key_of(row, keys):
        key_values = tuple(row[i] for i in keys)
        return nan_keyed(key_values, inexact) if inexact else key_values

    build = PartitionedSpill(spill, partitions, chunk, "join-build")
    for right_row in right.rows:
        governor.tick("hash join partition")
        key_values = key_of(right_row, right_keys)
        if any(is_null(v) for v in key_values):
            continue  # NULL keys never match under `=`
        build.add(hash(key_values) % partitions, right_row)

    probe = PartitionedSpill(spill, partitions, chunk, "join-probe")
    for index, left_row in enumerate(left.rows):
        governor.tick("hash join partition")
        key_values = key_of(left_row, left_keys)
        if any(is_null(v) for v in key_values):
            continue
        probe.add(hash(key_values) % partitions, (index, left_row))
    governor.note_spill(build.rows_added + probe.rows_added, "hash join")

    tagged: List[Tuple[int, Tuple[SqlValue, ...]]] = []
    probes = 0
    scope = ReusableRowScope(columns)
    for partition in range(partitions):
        table: dict = {}
        for right_row in build.read(partition):
            governor.tick("hash join build")
            table.setdefault(key_of(right_row, right_keys), []).append(right_row)
        for index, left_row in probe.read(partition):
            governor.tick("hash join probe")
            key_values = key_of(left_row, left_keys)
            for right_row in table.get(key_values, ()):
                probes += 1
                combined = left_row + right_row
                if residual is None or evaluate_predicate(
                    residual, scope.bind(combined), params
                ).is_true():
                    tagged.append((index, combined))
    tagged.sort(key=lambda item: item[0])
    out_rows = [row for __, row in tagged]
    work = left.cardinality + right.cardinality + probes
    return DataSet(columns, out_rows), work


def sort_merge_join(
    left: DataSet,
    right: DataSet,
    condition: Optional[Expression],
    params: Optional[Mapping[str, SqlValue]] = None,
    governor: Optional[ResourceGovernor] = None,
) -> Tuple[DataSet, int]:
    """Sort-merge join on extracted equi-keys (nested-loop fallback).

    Rows with NULL keys are skipped before the merge (they cannot match).
    Work = sort costs (n log n approximations) + merge scan + matches.
    Under memory pressure each sort phase runs as an external merge sort
    (same stable permutation, so identical output), signalled per side.
    """
    import math

    pairs, residual = extract_equi_keys(condition, left, right)
    if not pairs:
        return nested_loop_join(left, right, condition, params, governor)

    columns = _combined(left, right)
    left_keys = [p[0] for p in pairs]
    right_keys = [p[1] for p in pairs]

    # Exploit interesting orders (§7): an input already sorted on its join
    # keys — e.g. the output of an eager aggregation on GA1+ — skips its
    # sort phase.  NULL-key filtering preserves order.
    left_presorted = is_sorted_on(left, [left.columns[i] for i in left_keys])
    right_presorted = is_sorted_on(right, [right.columns[i] for i in right_keys])

    left_filtered = [
        row for row in left.rows if not any(is_null(row[i]) for i in left_keys)
    ]
    right_filtered = [
        row for row in right.rows if not any(is_null(row[i]) for i in right_keys)
    ]
    def sorted_side(filtered, keys, presorted, arity, side):
        if presorted:
            return filtered
        key = lambda row: sort_key(tuple(row[i] for i in keys))
        if governor is not None and governor.should_spill(
            estimate_table_bytes(len(filtered), arity), f"sort-merge {side}"
        ):
            return external_sort_rows(
                filtered, key, arity, governor, f"merge-{side}"
            )
        return sorted(filtered, key=key)

    left_sorted = sorted_side(
        left_filtered, left_keys, left_presorted, len(left.columns), "left"
    )
    right_sorted = sorted_side(
        right_filtered, right_keys, right_presorted, len(right.columns), "right"
    )

    out_rows: List[Tuple[SqlValue, ...]] = []
    matches = 0
    scope = ReusableRowScope(columns)
    i = j = 0
    while i < len(left_sorted) and j < len(right_sorted):
        if governor is not None:
            governor.tick("sort-merge join")
        left_key = sort_key(tuple(left_sorted[i][k] for k in left_keys))
        right_key = sort_key(tuple(right_sorted[j][k] for k in right_keys))
        if left_key < right_key:
            i += 1
        elif right_key < left_key:
            j += 1
        else:
            # Collect the equal-key run on the right, pair with the run on
            # the left.
            j_end = j
            while j_end < len(right_sorted) and sort_key(
                tuple(right_sorted[j_end][k] for k in right_keys)
            ) == right_key:
                j_end += 1
            i_run = i
            while i_run < len(left_sorted) and sort_key(
                tuple(left_sorted[i_run][k] for k in left_keys)
            ) == left_key:
                for right_row in right_sorted[j:j_end]:
                    matches += 1
                    combined = left_sorted[i_run] + right_row
                    if residual is None or evaluate_predicate(
                        residual, scope.bind(combined), params
                    ).is_true():
                        out_rows.append(combined)
                i_run += 1
            i = i_run
            j = j_end

    def sort_cost(n: int) -> int:
        return n * max(1, math.ceil(math.log2(n))) if n > 1 else n

    work = (
        (0 if left_presorted else sort_cost(left.cardinality))
        + (0 if right_presorted else sort_cost(right.cardinality))
        + left.cardinality
        + right.cardinality
        + matches
    )
    # The merge emits runs in left-key order.
    ordering = tuple(left.columns[i] for i in left_keys)
    return DataSet(columns, out_rows, ordering=ordering), work


def cartesian_product(
    left: DataSet,
    right: DataSet,
    governor: Optional[ResourceGovernor] = None,
) -> Tuple[DataSet, int]:
    """L × R with no condition; work = |L| × |R|."""
    columns = _combined(left, right)
    if governor is None:
        out_rows = [
            left_row + right_row
            for left_row in left.rows
            for right_row in right.rows
        ]
    else:
        out_rows = []
        for left_row in left.rows:
            for right_row in right.rows:
                governor.tick("cartesian product")
                out_rows.append(left_row + right_row)
    return DataSet(columns, out_rows), left.cardinality * right.cardinality
