"""Seeded inputs.  The program never sees the seed: it receives rows
through ``Database.insert`` or a generated SQL script, nothing else.

The generators live here rather than in ``repro.workloads`` so that a
change to the program cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List

from repro.catalog import Column, Database, PrimaryKeyConstraint, TableSchema
from repro.sqltypes import INTEGER, VARCHAR

SEGMENTS = ("consumer", "corporate", "home-office")
CATEGORIES = ("grocery", "electronics", "apparel", "toys")
REGIONS = ("north", "south", "east", "west")

Rows = List[list]


def star_rows(
    seed: int, sales: int, customers: int, products: int, stores: int
) -> Dict[str, Rows]:
    """The retail star: three dimensions and a uniformly spread fact table."""
    rng = random.Random(seed)
    return {
        "Customer": [
            [c, f"Customer {c}", SEGMENTS[c % len(SEGMENTS)]]
            for c in range(1, customers + 1)
        ],
        "Product": [
            [p, f"Product {p}", CATEGORIES[p % len(CATEGORIES)]]
            for p in range(1, products + 1)
        ],
        "Store": [
            [s, f"City {s}", REGIONS[s % len(REGIONS)]]
            for s in range(1, stores + 1)
        ],
        "Sales": [
            [
                sale,
                rng.randint(1, customers),
                rng.randint(1, products),
                rng.randint(1, stores),
                rng.randint(1, 10),
                rng.randint(1, 500),
            ]
            for sale in range(1, sales + 1)
        ],
    }


def two_table_rows(
    seed: int, n_a: int, n_b: int, a_groups: int, match_rows: int = -1
) -> Dict[str, Rows]:
    """``A(AId, GKey, BRef, Val)`` and ``B(BId, Name)``; ``BRef`` joins
    ``B.BId``.  With ``match_rows >= 0`` only about that many A rows find a
    partner (Figure 8's selective join); the rest dangle beyond ``n_b``."""
    rng = random.Random(seed)
    match_fraction = 1.0 if match_rows < 0 else match_rows / n_a
    a_rows = []
    for a_id in range(1, n_a + 1):
        g_key = rng.randint(1, a_groups)
        if rng.random() < match_fraction:
            b_ref = rng.randint(1, n_b)
        else:
            b_ref = n_b + a_id
        a_rows.append([a_id, g_key, b_ref, rng.randint(0, 1000)])
    return {
        "B": [[b, f"B{b}"] for b in range(1, n_b + 1)],
        "A": a_rows,
    }


def two_table_database() -> Database:
    """The empty schema :func:`two_table_rows` fills."""
    database = Database("two_table")
    database.create_table(TableSchema(
        "B", [Column("BId", INTEGER), Column("Name", VARCHAR(30))],
        [PrimaryKeyConstraint(["BId"])],
    ))
    database.create_table(TableSchema(
        "A",
        [Column("AId", INTEGER), Column("GKey", INTEGER),
         Column("BRef", INTEGER), Column("Val", INTEGER)],
        [PrimaryKeyConstraint(["AId"])],
    ))
    return database


def fact_rows(seed: int, n_fact: int, n_dim: int) -> Dict[str, Rows]:
    """``F(id, k, v)``: the sort-then-aggregate pipeline's input."""
    rng = random.Random(seed)
    return {
        "F": [
            [i, rng.randint(1, n_dim), rng.randint(1, 100)]
            for i in range(1, n_fact + 1)
        ]
    }


def emp_dept_script(seed: int, n_emp: int, n_dept: int, per_insert: int = 500) -> str:
    """The ``repro serve`` seed script: schema plus multi-row INSERTs."""
    rng = random.Random(seed)
    lines = [
        "CREATE TABLE Dept (DeptID INTEGER PRIMARY KEY, Name VARCHAR(30) NOT NULL);",
        "CREATE TABLE Emp (EmpID INTEGER PRIMARY KEY, Name VARCHAR(30), "
        "DeptID INTEGER REFERENCES Dept (DeptID), Salary INTEGER NOT NULL);",
        "INSERT INTO Dept VALUES "
        + ", ".join(f"({d}, 'Dept {d}')" for d in range(1, n_dept + 1))
        + ";",
    ]
    rows = [
        f"({e}, 'Emp {e}', {rng.randint(1, n_dept)}, {rng.randint(1000, 9000)})"
        for e in range(1, n_emp + 1)
    ]
    for start in range(0, n_emp, per_insert):
        lines.append(
            "INSERT INTO Emp VALUES " + ", ".join(rows[start:start + per_insert]) + ";"
        )
    return "\n".join(lines) + "\n"


def digest(inputs: object) -> str:
    """A fingerprint of generated inputs (same seed, same digest)."""
    return hashlib.sha256(repr(inputs).encode("utf-8")).hexdigest()[:16]


def load(database, tables: Dict[str, Rows]) -> int:
    """Insert every row through the public catalog API; returns the count.
    Dict order is load order, so referenced tables come first."""
    count = 0
    for name, rows in tables.items():
        for row in rows:
            database.insert(name, row)
        count += len(rows)
    return count
