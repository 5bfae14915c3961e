"""Sorting of datasets (NULLS FIRST, ``=ⁿ``-consistent collation)."""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from repro.engine.dataset import DataSet
from repro.engine.governor import (
    ResourceGovernor,
    _ReverseKey,
    estimate_table_bytes,
    external_sort_rows,
)
from repro.errors import BindingError
from repro.sqltypes.values import sort_key


def sort_dataset(
    dataset: DataSet,
    columns: Sequence[str],
    descending: Optional[Sequence[bool]] = None,
    governor: Optional[ResourceGovernor] = None,
) -> Tuple[DataSet, int]:
    """Sort rows on ``columns``; NULLs first, all NULLs collating equal.

    ``descending`` gives a per-column direction (default all ascending);
    mixed directions are handled with a stable multi-pass sort.  Under
    memory pressure the sort runs externally with one composite key
    (descending components comparison-inverted), which yields the same
    permutation as the stable multi-pass form.
    Returns (sorted dataset, work units ≈ n·log₂n comparisons).
    """
    indexes = dataset.indexes_of(columns)
    flags = tuple(descending) if descending else tuple(False for __ in columns)
    n = dataset.cardinality
    if governor is not None and governor.should_spill(
        estimate_table_bytes(n, len(dataset.columns)), "sort"
    ):
        directed = tuple(zip(indexes, flags))

        def composite(row):
            return tuple(
                _ReverseKey(sort_key((row[i],))) if desc else sort_key((row[i],))
                for i, desc in directed
            )

        ordered = external_sort_rows(
            dataset.rows, composite, len(dataset.columns), governor, "sort"
        )
    else:
        ordered = list(dataset.rows)
        # Stable sorts compose: apply keys from least to most significant.
        for index, desc in reversed(list(zip(indexes, flags))):
            ordered.sort(key=lambda row: sort_key((row[index],)), reverse=desc)
    work = n * max(1, math.ceil(math.log2(n))) if n > 1 else n
    # Record the order property only for the all-ascending case (the form
    # downstream operators can exploit).
    ordering = (
        tuple(dataset.columns[i] for i in indexes) if not any(flags) else ()
    )
    return DataSet(dataset.columns, ordered, ordering=ordering), work


def is_sorted_on(dataset: DataSet, columns: Sequence[str]) -> bool:
    """Does the dataset's known ordering group rows by ``columns``?

    True when ``columns`` is exactly the leading prefix of the ordering
    (as a set): rows equal on the prefix are then contiguous, which is all
    grouping and merge-joining need.
    """
    try:
        wanted = set(dataset.indexes_of(columns))
    except BindingError:
        return False
    if not dataset.ordering or len(dataset.ordering) < len(wanted):
        return False
    prefix = set(dataset.indexes_of(dataset.ordering[: len(wanted)]))
    return prefix == wanted
