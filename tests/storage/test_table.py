"""Storage: multiset tables, RowIDs, insert validation."""

import threading

import pytest

from repro.catalog.constraints import PrimaryKeyConstraint
from repro.catalog.schema import Column, TableSchema
from repro.errors import CatalogError, TypeMismatchError
from repro.sqltypes.datatypes import INTEGER, VARCHAR
from repro.sqltypes.values import NULL, is_null
from repro.storage.table import Table


def make_table():
    return Table(
        TableSchema(
            "T",
            [Column("a", INTEGER), Column("b", VARCHAR(10))],
        )
    )


class TestInsert:
    def test_positional(self):
        table = make_table()
        row = table.insert([1, "x"])
        assert row.values == (1, "x")

    def test_mapping_with_defaults(self):
        table = make_table()
        row = table.insert({"a": 1})
        assert row.values[0] == 1
        assert is_null(row.values[1])

    def test_mapping_unknown_column(self):
        with pytest.raises(CatalogError):
            make_table().insert({"z": 1})

    def test_wrong_arity(self):
        with pytest.raises(CatalogError):
            make_table().insert([1])

    def test_type_validation(self):
        with pytest.raises(TypeMismatchError):
            make_table().insert(["not-int", "x"])

    def test_duplicates_allowed_without_keys(self):
        """Tables are multisets: identical rows coexist."""
        table = make_table()
        table.insert([1, "x"])
        table.insert([1, "x"])
        assert len(table) == 2

    def test_insert_many(self):
        table = make_table()
        assert table.insert_many([[1, "a"], [2, "b"]]) == 2
        assert len(table) == 2


class TestRowIds:
    def test_rowids_unique_and_monotonic(self):
        """Section 4.3's implicit RowID: distinguishes duplicates."""
        table = make_table()
        first = table.insert([1, "x"])
        second = table.insert([1, "x"])
        assert first.rowid != second.rowid
        assert second.rowid > first.rowid

    def test_clear_resets(self):
        table = make_table()
        table.insert([1, "x"])
        table.clear()
        assert len(table) == 0
        assert table.insert([1, "x"]).rowid == 1


class TestKeyLookup:
    def test_has_key_value_with_index(self):
        table = Table(
            TableSchema(
                "T",
                [Column("a", INTEGER), Column("b", VARCHAR(5))],
                [PrimaryKeyConstraint(["a"])],
            )
        )
        table.insert([1, "x"])
        assert table.has_key_value(("a",), [1])
        assert not table.has_key_value(("a",), [2])

    def test_has_key_value_without_index(self):
        table = make_table()
        table.insert([1, "x"])
        assert table.has_key_value(("b",), ["x"])
        assert not table.has_key_value(("b",), ["y"])

    def test_iteration_yields_rows(self):
        table = make_table()
        table.insert([1, "x"])
        rows = list(table)
        assert rows[0].values == (1, "x")


class TestDerived:
    """``Table.derived``: one value per key per version, this object's own."""

    def test_built_once_then_served(self):
        table = make_table()
        table.insert([1, "x"])
        builds = []

        def build():
            builds.append(len(table))
            return ("summary", len(table))

        first = table.derived("summary", build)
        assert table.derived("summary", build) is first
        assert builds == [1]

    def test_keys_are_independent(self):
        table = make_table()
        assert table.derived("a", lambda: 1) == 1
        assert table.derived("b", lambda: 2) == 2
        assert table.derived("a", lambda: 3) == 1

    def test_every_mutation_starts_over(self):
        table = make_table()
        mutations = [
            lambda: table.insert([1, "x"]),
            lambda: table.delete_rowids({table.rows()[0].rowid}),
            lambda: table.insert([2, "y"]),
            lambda: table.restore(table.snapshot()),
            table.clear,
        ]
        for generation, mutate in enumerate(mutations):
            assert table.derived("n", lambda: generation) == generation
            mutate()
        assert table.derived("n", lambda: "last") == "last"

    def test_clone_starts_empty_and_shares_nothing(self):
        table = make_table()
        table.insert([1, "x"])
        table.derived("n", lambda: "original")
        twin = table.clone()
        assert twin.version == table.version
        assert twin.derived("n", lambda: "clone") == "clone"
        assert table.derived("n", lambda: "rebuilt") == "original"

    def test_a_failing_build_leaves_nothing_behind(self):
        table = make_table()

        def broken():
            raise RuntimeError("no value")

        with pytest.raises(RuntimeError):
            table.derived("n", broken)
        assert table.derived("n", lambda: "second try") == "second try"

    def test_readers_missing_together_share_one_build(self):
        table = make_table()
        table.insert([1, "x"])
        building = threading.Event()
        release = threading.Event()
        builds = []

        def build():
            builds.append(threading.current_thread().name)
            building.set()
            assert release.wait(timeout=10)
            return object()

        got = []
        threads = [
            threading.Thread(target=lambda: got.append(table.derived("n", build)))
            for __ in range(3)
        ]
        threads[0].start()
        assert building.wait(timeout=10)
        for thread in threads[1:]:
            thread.start()
        threads[1].join(timeout=0.1)
        assert threads[1].is_alive()  # waiting for the build, not building
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert len(builds) == 1
        assert len(got) == 3 and got[0] is got[1] is got[2]

    def test_a_build_may_ask_the_same_table_for_another_value(self):
        table = make_table()
        table.insert([1, "x"])
        outer = table.derived("outer", lambda: ("outer", table.derived("inner", lambda: 7)))
        assert outer == ("outer", 7)
        assert table.derived("inner", lambda: 8) == 7
