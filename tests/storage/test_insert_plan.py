"""The insert plan: what a table checks on insert, resolved once per schema.

An insert pays only for the constraints its table declares: a row scope is
built for a CHECK or for an assertion that names the table, never
otherwise.  A rejected insert rolls back by its own keys, leaving the rows,
every key index and the version bump as a scan over every index left them.
A table rides the shard wire and is cloned for copy-on-write; both copies
rebuild the plan and enforce every constraint with the same messages.
"""

from __future__ import annotations

import pytest

import repro.expressions.eval as eval_module
from repro.catalog.catalog import Database
from repro.catalog.constraints import (
    Assertion,
    CheckConstraint,
    ForeignKeyConstraint,
    PrimaryKeyConstraint,
    UniqueConstraint,
)
from repro.catalog.schema import Column, TableSchema
from repro.engine.wire import restricted_loads, wire_dumps
from repro.errors import ConstraintViolation
from repro.expressions.builder import col, gt, lit
from repro.sqltypes.datatypes import INTEGER, VARCHAR
from repro.sqltypes.values import NULL


def _database(*, check: bool = False) -> Database:
    """``P(id)`` and ``C(id, a, b, ref, name)``: C has a primary key, a
    UNIQUE ``(a, b)`` key, a foreign key to P and, with ``check``, a CHECK
    ``a > 0``."""
    db = Database()
    db.create_table(
        TableSchema("P", [Column("id", INTEGER)], [PrimaryKeyConstraint(["id"])])
    )
    constraints = [
        PrimaryKeyConstraint(["id"]),
        UniqueConstraint(["a", "b"]),
        ForeignKeyConstraint(["ref"], "P", ["id"]),
    ]
    if check:
        constraints.append(CheckConstraint(gt(col("C.a"), lit(0)), "a_positive"))
    db.create_table(
        TableSchema(
            "C",
            [
                Column("id", INTEGER),
                Column("a", INTEGER),
                Column("b", INTEGER),
                Column("ref", INTEGER),
                Column("name", VARCHAR(10), nullable=False),
            ],
            constraints,
        )
    )
    for i in range(3):
        db.insert("P", [i])
    return db


@pytest.fixture
def scopes(monkeypatch):
    """How many :class:`RowScope` objects were built."""
    built = []
    real = eval_module.RowScope.__init__

    def counting(self, values):
        built.append(tuple(values))
        real(self, values)

    monkeypatch.setattr(eval_module.RowScope, "__init__", counting)
    return built


def test_a_table_without_check_or_assertion_builds_no_row_scope(scopes):
    db = _database()
    for i in range(20):
        db.insert("C", [i, i, i, i % 3, "x"])
    db.insert("C", {"id": 20, "a": 1, "ref": 0, "name": "y"})
    assert scopes == []
    assert len(db.table("C")) == 21


def test_a_check_or_a_naming_assertion_builds_one_scope_each(scopes):
    db = _database(check=True)
    db.insert("C", [0, 1, 1, 0, "x"])
    assert len(scopes) == 1
    db.create_assertion(Assertion("small_b", gt(lit(100), col("C.b"))))
    db.create_assertion(Assertion("p_only", gt(lit(100), col("P.id"))))
    del scopes[:]
    db.insert("C", [1, 2, 2, 0, "x"])
    assert len(scopes) == 2  # the CHECK's and the one naming C; none for P's


def _state(table):
    return (
        list(table._rows),
        {key: dict(index) for key, index in table._key_indexes.items()},
        table.version,
    )


@pytest.mark.parametrize("b", [5, NULL], ids=["keyed", "null-unique"])
@pytest.mark.parametrize("refusal", ["foreign-key", "assertion"])
def test_a_rejected_insert_rolls_back_by_its_own_keys(refusal, b):
    """Rows and key indexes are as before the insert, and the version has
    moved by two (the insert's bump and the rollback's).  A UNIQUE key
    with a NULL component was never registered, so nothing is popped."""
    db = _database()
    for i in range(5):
        db.insert("C", [i, i, NULL if i == 2 else i, 0, "x"])
    db.create_assertion(Assertion("small_a", gt(lit(50), col("C.a"))))
    table = db.table("C")
    rows, indexes, version = _state(table)
    row = [10, 99 if refusal == "assertion" else 7, b, 1 if refusal == "assertion" else 7, "z"]
    with pytest.raises(ConstraintViolation) as refused:
        db.insert("C", row)
    expected = "ASSERTION small_a" if refusal == "assertion" else "FOREIGN KEY"
    assert str(refused.value).startswith(expected)
    assert _state(table) == (rows, indexes, version + 2)
    # The refused keys are free again: the same keys insert cleanly.
    db.insert("C", [10, 7, b, 1, "z"])
    assert table.has_key_value(("id",), [10])


def test_delete_drops_exactly_the_deleted_rows_keys():
    db = _database()
    for i in range(4):
        db.insert("C", [i, i, NULL if i == 1 else i, 0, "x"])
    table = db.table("C")
    assert table.delete_rowids({2, 3}) == 2  # rows 1 (NULL b) and 2
    assert sorted(table._key_indexes[("id",)].values()) == [1, 4]
    assert sorted(table._key_indexes[("a", "b")].values()) == [1, 4]


def _refusals(db: Database):
    """The message of each refusal an insert into C can meet."""
    attempts = {
        "type": [0, "text", 1, 0, "x"],
        "not-null": [0, 1, 1, 0, NULL],
        "pk-null": [NULL, 1, 1, 0, "x"],
        "pk-duplicate": [0, 9, 9, 0, "x"],
        "unique-duplicate": [9, 1, 1, 0, "x"],
        "check": [9, -1, 1, 0, "x"],
        "foreign-key": [9, 2, 2, 7, "x"],
    }
    messages = {}
    for name, values in attempts.items():
        before = _state(db.table("C"))
        with pytest.raises(Exception) as refused:
            db.insert("C", values)
        messages[name] = (type(refused.value).__name__, str(refused.value))
        rows, indexes, __ = _state(db.table("C"))
        assert (rows, indexes) == before[:2], name
    return messages


def _with_table(db: Database, table) -> Database:
    db.tables["C"] = table
    return db


def test_a_table_off_the_wire_or_cloned_enforces_every_constraint_alike():
    """The plan holds bound methods, which the wire's restricted loader
    refuses: it is left out of the pickled state and rebuilt on load."""
    db = _database(check=True)
    db.insert("C", [0, 1, 1, 0, "x"])
    table = db.table("C")
    assert "insert_plan" not in table.__getstate__()
    expected = _refusals(db)
    assert len(set(expected.values())) == len(expected)

    for copy in (restricted_loads(wire_dumps(table)), table.clone()):
        twin = _with_table(_database(check=True), copy)
        assert _refusals(twin) == expected
        twin.insert("C", [1, 2, 2, 1, "y"])
        assert [row.values for row in twin.table("C")] == [
            (0, 1, 1, 0, "x"), (1, 2, 2, 1, "y"),
        ]
