"""Vectorized operator kernels over :class:`ColumnBatch`.

Each kernel mirrors one row-engine operator (``engine/joins.py``,
``engine/aggregation.py``, ``engine/sorting.py``) and returns the same
``(result, work)`` pair computing the *identical* work formula — the §7
cost study must not be able to tell the backends apart.  What changes is
the inner loop: predicates and aggregate arguments are compiled once per
operator (:mod:`repro.engine.vector.compile`) and applied to whole columns,
selection vectors replace row copying, and grouped aggregation folds
per-group accumulators (:mod:`.grouping`) instead of row lists per group.

NULL handling follows the per-batch type census: kernels consult
:meth:`ColumnBatch.column_kinds` to decide whether the ``=ⁿ``/3VL-aware
slow path is needed at all, and use raw values when it is not.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.ops import AggregateSpec
from repro.engine.joins import extract_equi_keys
from repro.engine.sorting import is_sorted_on
from repro.engine.vector.batch import ColumnBatch, _Gather, _Repeat, _np
from repro.engine.vector.compile import TRUE_CODE, compile_predicate
from repro.engine.vector.grouping import GroupedFold, dense_offsets, key_runs
from repro.expressions.ast import Expression
from repro.sqltypes.values import (
    INEXACT_TYPES,
    NULL,
    SqlValue,
    group_key,
    nan_keyed,
    sort_key,
)

Params = Optional[Mapping[str, SqlValue]]


def _sort_cost(n: int) -> int:
    return n * max(1, math.ceil(math.log2(n))) if n > 1 else n


# -- filter ------------------------------------------------------------------


def filter_batch(
    batch: ColumnBatch, condition: Expression, params: Params
) -> Tuple[ColumnBatch, int]:
    """σ[C]: keep rows where the predicate's truth code is TRUE (⌊C⌋)."""
    predicate = compile_predicate(condition, batch.names)
    codes = predicate(batch, params)
    selection = [i for i, code in enumerate(codes) if code == TRUE_CODE]
    if len(selection) == batch.length:
        result = batch  # nothing filtered: share the columns outright
    else:
        result = batch.take(selection, ordering=batch.ordering)
    return result, batch.length


# -- projection --------------------------------------------------------------


def project_batch(batch: ColumnBatch, columns: Sequence[str]) -> ColumnBatch:
    """π^A: zero-copy column selection; ordering survives as the longest
    leading prefix whose columns are all retained (DataSet.project rules)."""
    indexes = batch.indexes_of(columns)
    kept = {batch.names[i] for i in indexes}
    surviving: List[str] = []
    for column in batch.ordering:
        if column in kept:
            surviving.append(column)
        else:
            break
    return batch.select_columns(indexes, ordering=surviving)


def distinct_batch(batch: ColumnBatch) -> Tuple[ColumnBatch, int]:
    """π^D duplicate elimination under ``=ⁿ`` (keeps first occurrence)."""
    indexes = range(len(batch.names))
    selection: List[int] = []
    if batch.plain_keys_on(indexes):
        seen_raw: Dict[Tuple[SqlValue, ...], None] = {}
        for i, row in enumerate(batch.iter_rows()):
            if row not in seen_raw:
                seen_raw[row] = None
                selection.append(i)
    else:
        seen: Dict[Tuple, None] = {}
        for i, row in enumerate(batch.iter_rows()):
            key = group_key(row)
            if key not in seen:
                seen[key] = None
                selection.append(i)
    # The row engine's distinct() drops the ordering property.
    return batch.take(selection), batch.length


# -- joins -------------------------------------------------------------------


def _pair_batch(
    left: ColumnBatch,
    right: ColumnBatch,
    left_sel: Sequence[int],
    right_sel: Sequence[int],
) -> ColumnBatch:
    """Gather matched (left, right) row pairs into one combined batch.

    The gathers are lazy (:class:`_Gather` views): a column of the join
    output is only materialized if a downstream operator reads it — late
    materialization, the classic columnar-join trick.
    """
    columns: List[Sequence[SqlValue]] = [
        _Gather(column, left_sel, owner=(left, i))
        for i, column in enumerate(left.columns)
    ]
    columns.extend(
        _Gather(column, right_sel, owner=(right, j))
        for j, column in enumerate(right.columns)
    )
    return ColumnBatch(left.names + right.names, columns, length=len(left_sel))


def _apply_residual(
    pairs: ColumnBatch, residual: Optional[Expression], params: Params
) -> ColumnBatch:
    if residual is None:
        return pairs
    predicate = compile_predicate(residual, pairs.names)
    codes = predicate(pairs, params)
    selection = [i for i, code in enumerate(codes) if code == TRUE_CODE]
    if len(selection) == pairs.length:
        return pairs
    return pairs.take(selection)


def _key_rows(
    batch: ColumnBatch, key_indexes: Sequence[int]
) -> Tuple[List[Optional[Tuple[SqlValue, ...]]], int]:
    """Per-row raw key tuples, with ``None`` marking NULL-containing keys.

    Returns (keys, valid_count).  The row engine keys its hash table with
    raw value tuples (after dropping NULL keys), so raw tuples are exactly
    right here too.
    """
    key_columns = [batch.columns[i] for i in key_indexes]
    if len(key_columns) == 1:
        column = key_columns[0]
        if not batch.has_nulls(key_indexes[0]):
            return [(value,) for value in column], batch.length
        keys: List[Optional[Tuple[SqlValue, ...]]] = [
            None if value is NULL else (value,) for value in column
        ]
        return keys, sum(1 for k in keys if k is not None)
    if not any(batch.has_nulls(i) for i in key_indexes):
        rows = list(zip(*key_columns)) if key_columns else [()] * batch.length
        return rows, batch.length
    keys = []
    valid = 0
    for row in zip(*key_columns):
        if any(value is NULL for value in row):
            keys.append(None)
        else:
            keys.append(row)
            valid += 1
    return keys, valid


def _matches_at_most_once(counts) -> bool:
    """The lookup's gate: does no probe match more than one build row?"""
    return int(counts.max(initial=0)) <= 1


def _np_equi_join(left: ColumnBatch, right: ColumnBatch, left_key: int, right_key: int):
    """C-speed single-key equi-join: each probe finds its run of equal keys
    in the stably sorted build side.

    Integer build keys whose span the two inputs cover
    (:func:`~repro.engine.vector.grouping.dense_offsets`) are addressed: a
    probe's run is read at ``key - low`` from the per-key tables, one
    gather.  Any other build side is binary-searched, twice per probe.
    When no probe matches more than one build row — an equality on the
    build side's key — each matching probe's pair is read off at its run
    start, a lookup; otherwise the runs are expanded into pairs.

    Either way it emits the *identical* pair sequence the dict-of-buckets
    probe does: left rows in order, and (because the argsort is stable)
    each left row's matches in original right-row order.  Only taken when
    both key columns have exact same-dtype array views — mixed dtypes or
    NaN would change equality semantics.  Returns (left_sel, right_sel,
    probes) or ``None``.
    """
    if _np is None:
        return None
    left_arr = left.as_array(left_key)
    right_arr = right.as_array(right_key)
    if left_arr is None or right_arr is None or left_arr.dtype != right_arr.dtype:
        return None
    if left_arr.dtype.kind == "f" and (
        _np.isnan(left_arr).any() or _np.isnan(right_arr).any()
    ):
        return None
    order = _np.argsort(right_arr, kind="stable")
    dense = dense_offsets(right_arr, left.length + right.length)
    if dense is None:
        sorted_keys = right_arr[order]
        lo = _np.searchsorted(sorted_keys, left_arr, side="left")
        counts = _np.searchsorted(sorted_keys, left_arr, side="right") - lo
    else:
        codes, span, low = dense
        starts, lengths = key_runs(codes, span)
        # Probes outside [low, high] match nothing, and are masked before
        # the subtraction: int64's minimum minus a positive low would wrap.
        inside = (left_arr >= low) & (left_arr <= low + span - 1)
        if inside.all():
            at = left_arr - low
            counts = lengths[at]
        else:
            at = _np.where(inside, left_arr, low) - low
            counts = _np.where(inside, lengths[at], 0)
        lo = starts[at]
    probes = int(counts.sum())
    if _matches_at_most_once(counts):
        # A pair per matching probe, at its run start: nothing to expand.
        left_sel = counts.nonzero()[0]
        return left_sel, order[lo[left_sel]], probes
    left_sel = _np.repeat(_np.arange(left.length), counts)
    # Pair p of probe i sits at lo[i] + (p - offsets[i]) in the sorted keys.
    offsets = _np.cumsum(counts) - counts
    right_sel = order[_np.repeat(lo - offsets, counts) + _np.arange(probes)]
    return left_sel, right_sel, probes


def hash_join_batch(
    left: ColumnBatch,
    right: ColumnBatch,
    condition: Optional[Expression],
    params: Params,
) -> Tuple[ColumnBatch, int]:
    """Hash join on extracted equi-keys; nested-loop fallback without one.

    Same contract as :func:`repro.engine.joins.hash_join`: NULL keys are
    dropped on both sides, every NaN key matches every NaN key, work =
    |L| + |R| + bucket matches examined.
    """
    pairs, residual = extract_equi_keys(condition, left, right)
    if not pairs:
        return nested_loop_join_batch(left, right, condition, params)

    left_keys = [p[0] for p in pairs]
    right_keys = [p[1] for p in pairs]

    if len(pairs) == 1:
        fast = _np_equi_join(left, right, left_keys[0], right_keys[0])
        if fast is not None:
            left_sel, right_sel, probes = fast
            combined = _apply_residual(
                _pair_batch(left, right, left_sel, right_sel), residual, params
            )
            return combined, left.length + right.length + probes

    right_key_rows, __ = _key_rows(right, right_keys)
    left_key_rows, __ = _key_rows(left, left_keys)
    # NaN = NaN, as in the row engine's hash join: a key component whose
    # build census holds a float or a Decimal keys every NaN as one token.
    inexact = tuple(
        c for c, i in enumerate(right_keys)
        if not INEXACT_TYPES.isdisjoint(right.column_kinds(i))
    )
    if inexact:
        right_key_rows = [
            None if key is None else nan_keyed(key, inexact) for key in right_key_rows
        ]
        left_key_rows = [
            None if key is None else nan_keyed(key, inexact) for key in left_key_rows
        ]
    table: Dict[Tuple[SqlValue, ...], List[int]] = {}
    for j, key in enumerate(right_key_rows):
        if key is not None:
            table.setdefault(key, []).append(j)

    left_sel: List[int] = []
    right_sel: List[int] = []
    probes = 0
    get_bucket = table.get
    for i, key in enumerate(left_key_rows):
        if key is None:
            continue
        bucket = get_bucket(key)
        if bucket:
            probes += len(bucket)
            left_sel.extend([i] * len(bucket))
            right_sel.extend(bucket)

    combined = _apply_residual(_pair_batch(left, right, left_sel, right_sel), residual, params)
    work = left.length + right.length + probes
    return combined, work


def nested_loop_join_batch(
    left: ColumnBatch,
    right: ColumnBatch,
    condition: Optional[Expression],
    params: Params,
) -> Tuple[ColumnBatch, int]:
    """Examine every pair; work = |L| × |R|.

    The condition is compiled once; each left row is broadcast against the
    whole right batch, producing one selection vector per left row.
    """
    names = left.names + right.names
    work = left.length * right.length
    left_sel: List[int] = []
    right_sel: List[int] = []
    if right.length:
        predicate = (
            None if condition is None else compile_predicate(condition, names)
        )
        for i in range(left.length):
            if predicate is None:
                left_sel.extend([i] * right.length)
                right_sel.extend(range(right.length))
                continue
            broadcast = ColumnBatch(
                names,
                [_Repeat(column[i], right.length) for column in left.columns]
                + list(right.columns),
                length=right.length,
            )
            codes = predicate(broadcast, params)
            matched = [j for j, code in enumerate(codes) if code == TRUE_CODE]
            left_sel.extend([i] * len(matched))
            right_sel.extend(matched)
    return _pair_batch(left, right, left_sel, right_sel), work


def sort_merge_join_batch(
    left: ColumnBatch,
    right: ColumnBatch,
    condition: Optional[Expression],
    params: Params,
) -> Tuple[ColumnBatch, int]:
    """Sort-merge join on extracted equi-keys (nested-loop fallback).

    Mirrors :func:`repro.engine.joins.sort_merge_join`: NULL-key rows are
    dropped pre-merge, presorted inputs skip their sort phase, work =
    sort costs + |L| + |R| + matches, output carries left-key ordering.
    """
    pairs, residual = extract_equi_keys(condition, left, right)
    if not pairs:
        return nested_loop_join_batch(left, right, condition, params)

    left_keys = [p[0] for p in pairs]
    right_keys = [p[1] for p in pairs]
    left_presorted = is_sorted_on(left, [left.names[i] for i in left_keys])
    right_presorted = is_sorted_on(right, [right.names[i] for i in right_keys])

    def merge_side(batch: ColumnBatch, key_indexes: List[int], presorted: bool):
        key_rows, __ = _key_rows(batch, key_indexes)
        indices = [i for i, key in enumerate(key_rows) if key is not None]
        keys = [sort_key(key_rows[i]) for i in indices]
        if not presorted:
            order = sorted(range(len(indices)), key=keys.__getitem__)
            indices = [indices[t] for t in order]
            keys = [keys[t] for t in order]
        return indices, keys

    left_idx, left_sorted_keys = merge_side(left, left_keys, left_presorted)
    right_idx, right_sorted_keys = merge_side(right, right_keys, right_presorted)

    left_sel: List[int] = []
    right_sel: List[int] = []
    matches = 0
    i = j = 0
    n_left, n_right = len(left_idx), len(right_idx)
    while i < n_left and j < n_right:
        left_key = left_sorted_keys[i]
        right_key = right_sorted_keys[j]
        if left_key < right_key:
            i += 1
        elif right_key < left_key:
            j += 1
        else:
            j_end = j
            while j_end < n_right and right_sorted_keys[j_end] == right_key:
                j_end += 1
            run = right_idx[j:j_end]
            i_run = i
            while i_run < n_left and left_sorted_keys[i_run] == left_key:
                matches += len(run)
                left_sel.extend([left_idx[i_run]] * len(run))
                right_sel.extend(run)
                i_run += 1
            i = i_run
            j = j_end

    combined = _apply_residual(_pair_batch(left, right, left_sel, right_sel), residual, params)
    work = (
        (0 if left_presorted else _sort_cost(left.length))
        + (0 if right_presorted else _sort_cost(right.length))
        + left.length
        + right.length
        + matches
    )
    ordering = tuple(left.names[i] for i in left_keys)
    return combined.with_ordering(ordering), work


def cartesian_product_batch(
    left: ColumnBatch, right: ColumnBatch
) -> Tuple[ColumnBatch, int]:
    """L × R; work = |L| × |R|.  Left values repeat blockwise, right cycles."""
    n_left, n_right = left.length, right.length
    columns: List[Sequence[SqlValue]] = [
        [value for value in column for __ in range(n_right)]
        for column in left.columns
    ]
    columns.extend(list(column) * n_left for column in right.columns)
    result = ColumnBatch(
        left.names + right.names, columns, length=n_left * n_right
    )
    return result, n_left * n_right


# -- sorting -----------------------------------------------------------------


def sort_batch(
    batch: ColumnBatch,
    columns: Sequence[str],
    descending: Optional[Sequence[bool]] = None,
) -> Tuple[ColumnBatch, int]:
    """Sort on ``columns`` (NULLS FIRST); mirrors ``sort_dataset``.

    A stable multi-pass sort over a permutation vector, least-significant
    key first; null-free columns sort on raw values (same order, no
    wrapper allocation).
    """
    indexes = batch.indexes_of(columns)
    flags = tuple(descending) if descending else tuple(False for __ in columns)
    work = _sort_cost(batch.length)
    ordering = tuple(batch.names[i] for i in indexes) if not any(flags) else ()
    fast = _np_sort_perm(batch, indexes, flags)
    if fast is not None:
        return batch.take(fast, ordering=ordering), work
    perm = list(range(batch.length))
    for index, desc in reversed(list(zip(indexes, flags))):
        column = batch.columns[index]
        if not batch.plain_keys_on((index,)):  # a NULL, BOOLEAN or NaN
            perm.sort(key=lambda i: sort_key((column[i],)), reverse=desc)
        else:
            perm.sort(key=column.__getitem__, reverse=desc)
    return batch.take(perm, ordering=ordering), work


def _np_sort_perm(batch: ColumnBatch, indexes: Sequence[int], flags: Sequence[bool]):
    """A C-speed stable sort permutation, or ``None`` when Python-only.

    Valid only for homogeneous null-free int/float key columns without
    NaN: there raw ``<`` agrees with ``sort_key`` order, and a stable
    argsort (descending keys negated — stability makes that equivalent to
    ``reverse=True``) reproduces the multi-pass ``list.sort`` exactly.
    A single integer key whose span the rows cover and 16 bits hold
    (:func:`~repro.engine.vector.grouping.dense_offsets`) sorts as its
    ``uint16`` offsets — numpy's radix sort, and the same permutation: a
    stable sort of an order-preserving recoding is the same sort.
    """
    if _np is None or batch.length <= 1 or not indexes:
        return None
    arrays = []
    for index, desc in zip(indexes, flags):
        arr = batch.as_array(index)
        if arr is None:
            return None
        if arr.dtype.kind == "f" and _np.isnan(arr).any():
            return None
        if desc:
            if arr.dtype.kind == "i" and arr.size and int(arr.min()) == -(2 ** 63):
                return None  # negation would overflow
            arr = -arr
        arrays.append(arr)
    if len(arrays) > 1:
        return _np.lexsort(tuple(reversed(arrays)))
    dense = dense_offsets(arrays[0], min(batch.length, 1 << 16))
    keys = arrays[0] if dense is None else dense[0].astype(_np.uint16)
    return _np.argsort(keys, kind="stable")


# -- grouped aggregation -----------------------------------------------------


def grouped_aggregate(
    batch: ColumnBatch,
    grouping_columns: Sequence[str],
    specs: Sequence[AggregateSpec],
    params: Params = None,
    mode: str = "hash",
    presorted: bool = False,
) -> Tuple[ColumnBatch, int]:
    """G[GA] + F(AA): the grouped fold (:mod:`.grouping`) fed one batch.

    ``mode="hash"`` mirrors :func:`repro.engine.aggregation.hash_group`
    (groups in first-appearance order, work = n + groups); ``mode="sort"``
    mirrors :func:`~repro.engine.aggregation.sort_group` (sort then
    boundary scan, output ordered by the grouping columns, work =
    n·log₂n + n, or n + groups when ``presorted``).
    """
    n = batch.length
    fold = GroupedFold(batch, grouping_columns, specs, params)
    sort_work = 0
    if mode == "sort" and not presorted:
        batch, sort_work = sort_batch(batch, grouping_columns)
    representatives = fold.feed(batch, runs=mode == "sort")
    result = fold.finish(batch, representatives)
    if mode != "sort":
        return result, n + result.length
    work = n + result.length if presorted else sort_work + n
    return result.with_ordering(result.names[: len(grouping_columns)]), work
