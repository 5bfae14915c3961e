"""Partitioning: deterministic shard twins that lose and invent nothing.

The whole distributed story leans on one storage-level invariant: the
concatenation of a table's shard twins is exactly the parent's row list —
same ``Row`` objects, same rowids, same version.  Everything above the
Exchange (partial aggregation, the wire, the merge) only has to preserve
that invariant, so these tests pin it down hard, plus the determinism
rules (stable hash, derived range bounds) that make shard assignment
reproducible across processes.
"""

import pytest

from repro.catalog.catalog import Database
from repro.catalog.schema import Column, TableSchema
from repro.errors import CatalogError
from repro.sqltypes.datatypes import INTEGER, VARCHAR
from repro.sqltypes.values import NULL
from repro.storage.partition import (
    PartitionCatalog,
    PartitionSpec,
    identified_partitions,
    partition_table,
    range_bounds,
    stable_shard,
)
from repro.storage.table import Table


def make_table(rows=20):
    table = Table(
        TableSchema("T", [Column("k", INTEGER), Column("v", VARCHAR(10))])
    )
    for i in range(rows):
        table.insert([i % 7, f"r{i}"])
    return table


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionSpec(method="round-robin")
        with pytest.raises(ValueError):
            PartitionSpec(shards=0)

    def test_describe(self):
        assert PartitionSpec("hash", "k", 4).describe() == "hash(k) x 4"
        assert PartitionSpec("range", None, 2).describe() == "range(#rowid) x 2"

    def test_hashable_cache_key(self):
        """Specs key the per-version partition cache, so they must hash."""
        assert hash(PartitionSpec("hash", "k", 2)) == hash(
            PartitionSpec("hash", "k", 2)
        )


class TestStableShard:
    def test_deterministic_and_seed_independent(self):
        """blake2b over the canonical repr — not Python's seeded hash()."""
        assert stable_shard(42, 4) == stable_shard(42, 4)
        assert 0 <= stable_shard("x", 3) < 3
        # Known-answer pin: if these move, shard layouts change between
        # processes, which breaks cross-process reproducibility.
        import hashlib

        from repro.sqltypes.values import group_key

        canonical = repr(group_key((42,))).encode("utf-8")
        expected = int.from_bytes(
            hashlib.blake2b(canonical, digest_size=8).digest(), "big"
        ) % 4
        assert stable_shard(42, 4) == expected

    def test_null_goes_to_shard_zero(self):
        assert stable_shard(NULL, 8) == 0

    def test_group_equal_numerics_co_shard(self):
        """1, 1.0 and Decimal('1') are one group under =ⁿ (group_key
        equates numerics across types), so they must land on one shard —
        otherwise a sharded GROUP BY would split the group across the
        wire.  Collisions the other way round are harmless."""
        import decimal

        assert (
            stable_shard(1, 16)
            == stable_shard(1.0, 16)
            == stable_shard(decimal.Decimal("1"), 16)
        )
        assert stable_shard(0.5, 16) == stable_shard(
            decimal.Decimal("0.5"), 16
        )


class TestPartitionTable:
    @pytest.mark.parametrize("method", ["hash", "range"])
    @pytest.mark.parametrize("column", ["k", None])
    def test_union_is_exactly_the_parent(self, method, column):
        table = make_table()
        spec = PartitionSpec(method, column, 3)
        twins = partition_table(table, spec)
        assert len(twins) == 3
        union = [row for twin in twins for row in twin]
        assert sorted(r.rowid for r in union) == [r.rowid for r in table]
        # Same Row objects, not copies: zero value duplication.
        by_id = {r.rowid: r for r in table}
        assert all(row is by_id[row.rowid] for row in union)

    def test_hash_co_locates_equal_keys(self):
        table = make_table()
        twins = partition_table(table, PartitionSpec("hash", "k", 3))
        for key in range(7):
            homes = {
                i
                for i, twin in enumerate(twins)
                for row in twin
                if row.values[0] == key
            }
            assert len(homes) == 1

    def test_range_respects_explicit_bounds(self):
        table = make_table()
        twins = partition_table(
            table, PartitionSpec("range", "k", 2, bounds=(4,))
        )
        assert all(row.values[0] < 4 for row in twins[0])
        assert all(row.values[0] >= 4 for row in twins[1])

    def test_twins_are_frozen(self):
        table = make_table()
        twin = partition_table(table, PartitionSpec("hash", "k", 2))[0]
        with pytest.raises(CatalogError):
            twin.insert([1, "nope"])

    def test_cache_hits_same_version_and_misses_after_mutation(self):
        table = make_table()
        spec = PartitionSpec("hash", "k", 2)
        first = partition_table(table, spec)
        assert partition_table(table, spec) is first
        ids, twins = identified_partitions(table, spec)
        assert twins is first and len(set(ids)) == 2
        # An id is as fresh as its twin, and names no other table's: a
        # clone has the same name, version and rows, and its own ids.
        assert identified_partitions(table, spec)[0] is ids
        assert not set(identified_partitions(table.clone(), spec)[0]) & set(ids)
        table.insert([99, "new"])  # version bump
        second = partition_table(table, spec)
        assert second is not first
        assert sum(len(t) for t in second) == len(table)
        assert not set(identified_partitions(table, spec)[0]) & set(ids)

    def test_single_shard_degenerates_to_the_whole_table(self):
        table = make_table()
        (only,) = partition_table(table, PartitionSpec("hash", "k", 1))
        assert [r.rowid for r in only] == [r.rowid for r in table]


class TestRangeBounds:
    def test_equi_count_over_distinct_values(self):
        bounds = range_bounds(list(range(100)), 4)
        assert len(bounds) == 3
        assert list(bounds) == sorted(bounds)

    def test_nulls_and_duplicates_ignored(self):
        assert range_bounds([NULL, 1, 1, 1, 2], 2) in ((1,), (2,))

    def test_empty_input(self):
        assert range_bounds([], 4) == ()


class TestCatalogIntegration:
    def test_declare_and_lookup(self):
        catalog = PartitionCatalog()
        spec = PartitionSpec("hash", "k", 2)
        catalog.declare("T", spec)
        assert catalog.get("T") is spec
        assert catalog.get("missing") is None
        clone = catalog.copy()
        clone.declare("T", PartitionSpec("range", "k", 4))
        assert catalog.get("T") is spec  # copies do not alias

    def test_database_set_partitioning(self):
        db = Database()
        db.create_table(
            TableSchema("T", [Column("k", INTEGER)])
        )
        spec = PartitionSpec("hash", "k", 2)
        db.set_partitioning("T", spec)
        assert db.partition_spec("T") is spec
        with pytest.raises(CatalogError):
            db.set_partitioning("missing", spec)
