"""Hash/range partitioning of stored tables into read-only shard twins.

Section 7 of the paper argues eager aggregation pays off most in
distributed settings; this module supplies the "distributed" part: a
:class:`PartitionSpec` describes how one table's rows are split across
``shards`` partitions, and :func:`partition_table` materializes the
partitions as frozen :class:`~repro.storage.table.Table` twins sharing the
parent's ``Row`` objects (no copying of values, rowids preserved — so a
sharded scan's union is bit-identical, row for row and rowid for rowid, to
the unpartitioned scan).

Determinism rules:

* Hash partitioning uses a **stable** hash (blake2b over the canonical
  ``group_key`` repr), never Python's seeded ``hash()``, so shard
  assignment is identical across processes and ``PYTHONHASHSEED``
  settings.  SQL NULL keys land in shard 0.
* Range partitioning derives its bounds deterministically from the
  current table contents (equi-count quantiles over the sorted distinct
  key values) unless the spec pins explicit ``bounds``.
* With no key column the table is split on rowid — hash shards take
  ``stable_shard(rowid)``, range shards take contiguous rowid runs — so
  *any* table can be sharded, keys or not.

Partitioning composes with MVCC: the partitions of one spec are a
:meth:`~repro.storage.table.Table.derived` value of the table, so a
mutation (version bump) invalidates them and snapshot readers of a frozen
version keep getting the partitions of *that* version.

Each twin is minted with an **id** in the same derived entry
(:func:`identified_partitions`), so the id is exactly as fresh as the twin: it
names that immutable content and nothing else.  A shard worker keeps a
twin resident under its id (:mod:`repro.engine.exchange`), which is why an
id is random rather than ``(table name, version, spec)`` — two databases in
one process may both hold an ``A`` at version 3000 and share one worker
pool.
"""

from __future__ import annotations

import decimal
import hashlib
import os
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.sqltypes.values import group_key, is_null, sort_key
from repro.storage.table import Table


@dataclass(frozen=True)
class PartitionSpec:
    """How to split one table: ``method`` ∈ {"hash", "range"}, ``column``
    (bare column name; ``None`` = partition by rowid), ``shards``, and for
    range partitioning optional explicit ``bounds`` (upper-exclusive split
    points; ``len(bounds) == shards - 1``)."""

    method: str = "hash"
    column: Optional[str] = None
    shards: int = 2
    bounds: Tuple = ()

    def __init__(
        self,
        method: str = "hash",
        column: Optional[str] = None,
        shards: int = 2,
        bounds: Tuple = (),
    ) -> None:
        if method not in ("hash", "range"):
            raise ValueError(f"unknown partitioning method {method!r}")
        if shards < 1:
            raise ValueError("a partitioning needs at least one shard")
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "shards", shards)
        object.__setattr__(self, "bounds", tuple(bounds))

    def describe(self) -> str:
        key = self.column if self.column is not None else "#rowid"
        return f"{self.method}({key}) x {self.shards}"


def _canonical_repr(value: object) -> str:
    """A repr that is identical for group-equal values.

    ``group_key`` equates numerics across types (1 == 1.0 ==
    Decimal('1') under =ⁿ), so their hash input must coincide too —
    otherwise one group would straddle shards.  Integral numerics
    canonicalize through ``int`` (exact at any magnitude), the rest
    through ``float``; collisions *across* distinct groups are harmless
    (a shard holds many groups), only split groups would hurt.
    """
    if not isinstance(value, (int, float, decimal.Decimal)) or isinstance(
        value, bool
    ):
        return repr(group_key((value,)))
    try:
        if value == int(value):
            return repr(int(value))
    except (OverflowError, ValueError, decimal.InvalidOperation):
        pass
    return repr(float(value))


def stable_shard(value: object, shards: int) -> int:
    """Deterministic shard index for one key value (NULL → shard 0).

    Uses blake2b over a canonical repr: identical across processes and
    immune to ``PYTHONHASHSEED``, unlike built-in ``hash``, and identical
    for group-equal values so no =ⁿ group ever straddles shards.
    """
    if is_null(value):
        return 0
    digest = hashlib.blake2b(
        _canonical_repr(value).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % shards


def range_bounds(values: List[object], shards: int) -> Tuple:
    """Equi-count split points over the sorted distinct non-NULL values."""
    distinct = {group_key((v,)): v for v in values if not is_null(v)}
    ordered = sorted(distinct.values(), key=lambda v: sort_key((v,)))
    if not ordered or shards <= 1:
        return ()
    bounds = []
    for i in range(1, shards):
        cut = (i * len(ordered)) // shards
        bound = ordered[min(cut, len(ordered) - 1)]
        if not bounds or sort_key((bound,)) > sort_key((bounds[-1],)):
            bounds.append(bound)
    return tuple(bounds)


def _range_shard(value: object, bounds: Tuple, shards: int) -> int:
    """Shard index of ``value`` under upper-exclusive ``bounds`` (NULL → 0)."""
    if is_null(value):
        return 0
    key = sort_key((value,))
    for i, bound in enumerate(bounds):
        if key < sort_key((bound,)):
            return i
    return min(len(bounds), shards - 1)


def _shard_twin(parent: Table, rows) -> Table:
    """A frozen read-only twin of ``parent`` holding only ``rows``.

    Shares the parent's ``Row`` objects and preserves rowids and version,
    so shard scans are indistinguishable from a filtered parent scan.
    """
    twin = Table(parent.schema)
    twin._rows = list(rows)
    twin._next_rowid = parent._next_rowid
    twin.version = parent.version
    for row in twin._rows:
        twin._register_keys(row)
    twin._frozen = True
    return twin


def partition_table(table: Table, spec: PartitionSpec) -> Tuple[Table, ...]:
    """Split ``table`` into ``spec.shards`` frozen twins (cached per version).

    Every row lands in exactly one shard; the concatenation of the shards
    in shard order, re-sorted by rowid, is exactly the parent's row list.
    """
    return identified_partitions(table, spec)[1]


def identified_partitions(
    table: Table, spec: PartitionSpec
) -> Tuple[Tuple[str, ...], Tuple[Table, ...]]:
    """``(ids, twins)`` of :func:`partition_table`'s split, in shard order:
    one derived entry, so an id is minted with its twin and dropped with it."""
    return table.derived(("partitions", spec), lambda: _split(table, spec))


def _split(
    table: Table, spec: PartitionSpec
) -> Tuple[Tuple[str, ...], Tuple[Table, ...]]:
    shards = spec.shards
    buckets: List[List] = [[] for __ in range(shards)]
    if spec.column is None:
        if spec.method == "hash":
            for row in table:
                buckets[stable_shard(row.rowid, shards)].append(row)
        else:
            rows = list(table)
            for i, row in enumerate(rows):
                buckets[(i * shards) // max(1, len(rows))].append(row)
    else:
        index = table.schema.column_names().index(spec.column)
        if spec.method == "hash":
            for row in table:
                buckets[stable_shard(row.values[index], shards)].append(row)
        else:
            bounds = spec.bounds or range_bounds(
                [row.values[index] for row in table], shards
            )
            for row in table:
                buckets[_range_shard(row.values[index], bounds, shards)].append(
                    row
                )
    twins = tuple(_shard_twin(table, bucket) for bucket in buckets)
    return tuple(os.urandom(16).hex() for __ in twins), twins


@dataclass
class PartitionCatalog:
    """Per-database map from table name to its declared :class:`PartitionSpec`.

    Declared specs steer the planner's choice of partitioning keys; tables
    without a declared spec are partitioned on demand by rowid.
    """

    specs: dict = field(default_factory=dict)

    def declare(self, table_name: str, spec: PartitionSpec) -> None:
        self.specs[table_name] = spec

    def get(self, table_name: str) -> Optional[PartitionSpec]:
        return self.specs.get(table_name)

    def copy(self) -> "PartitionCatalog":
        return PartitionCatalog(dict(self.specs))
