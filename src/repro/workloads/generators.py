"""Synthetic data generators for the paper's workloads.

Deterministic (seeded) population of the example schemas at configurable
scale.  Two shapes matter to the evaluation:

* :func:`populate_employee_department` — Example 1 / Figure 1: every
  employee references an existing department; the eager plan collapses
  10000 join inputs to one row per department.
* :func:`populate_example4` — Figure 8 / Example 4: a *selective* join
  (only ``match_rows`` of table A find a partner in B) combined with a
  *high-cardinality* grouping column (``a_groups`` distinct values), the
  regime where eager grouping loses.

Plus :func:`populate_printer_accounting` for Examples 3/5 and a generic
:func:`populate_two_table` parameter sweep used by the crossover bench.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from repro.catalog import Column, Database, PrimaryKeyConstraint, TableSchema
from repro.sqltypes import INTEGER, VARCHAR
from repro.sqltypes.values import NULL


def populate_employee_department(
    db: Database,
    n_employees: int = 10000,
    n_departments: int = 100,
    seed: int = 0,
) -> None:
    """Example 1 data: employees uniformly spread over departments."""
    rng = random.Random(seed)
    for dept_id in range(1, n_departments + 1):
        db.insert("Department", [dept_id, f"Department {dept_id}"])
    for emp_id in range(1, n_employees + 1):
        dept_id = rng.randint(1, n_departments)
        db.insert("Employee", [emp_id, f"Last{emp_id}", f"First{emp_id}", dept_id])


def populate_part_supplier(
    db: Database,
    n_parts: int = 500,
    n_suppliers: int = 50,
    n_classes: int = 10,
    seed: int = 0,
) -> None:
    """Example 2 data: parts in classes, each referencing a supplier."""
    rng = random.Random(seed)
    for supplier_no in range(1, n_suppliers + 1):
        db.insert(
            "Supplier",
            [supplier_no, f"Supplier {supplier_no}", f"{supplier_no} Main St"],
        )
    part_no = 0
    for __ in range(n_parts):
        part_no += 1
        class_code = rng.randint(1, n_classes)
        supplier_no = rng.randint(1, n_suppliers)
        db.insert(
            "Part", [class_code, part_no, f"Part {part_no}", supplier_no]
        )


def populate_printer_accounting(
    db: Database,
    n_users: int = 200,
    n_machines: int = 4,
    n_printers: int = 20,
    auths_per_user: int = 3,
    seed: int = 0,
) -> None:
    """Examples 3/5 data: users on machines (one of them 'dragon'),
    printers, and authorization rows with usage counters."""
    rng = random.Random(seed)
    machines = ["dragon"] + [f"machine{m}" for m in range(1, n_machines)]
    for printer_no in range(1, n_printers + 1):
        db.insert(
            "Printer",
            [printer_no, rng.choice([300, 600, 1200, 2400]), f"Make{printer_no % 5}"],
        )
    for user_id in range(1, n_users + 1):
        machine = machines[user_id % len(machines)]
        db.insert("UserAccount", [user_id, machine, f"user{user_id}"])
        granted = rng.sample(range(1, n_printers + 1), min(auths_per_user, n_printers))
        for printer_no in granted:
            db.insert(
                "PrinterAuth",
                [user_id, machine, printer_no, rng.randint(0, 5000)],
            )


@dataclass(frozen=True)
class TwoTableSpec:
    """Parameters of the generic A ⋈ B workload used by the sweeps.

    * ``n_a`` rows in A, ``n_b`` rows in B;
    * ``a_groups`` distinct values of the A-side grouping/join column
      ``A.GKey`` (this is the eager plan's group count);
    * ``match_fraction`` of A rows whose ``BRef`` matches some B row — the
      join selectivity lever of Figure 8;
    * ``bref_mode``: ``"uniform"`` draws ``BRef`` independently of ``GKey``;
      ``"correlated"`` derives it as ``GKey % n_b + 1``, so the eager
      plan's (GKey, BRef) group count stays ≈ ``a_groups`` — the sweep
      benches use this to isolate the group-count lever.
    * ``null_fraction`` of A rows get NULL in ``GKey``/``BRef``/``Val``
      (independently per column) — exercising NULL group keys (which
      group together under ``=ⁿ``) and NULL join keys (which never match
      under ``=``).
    """

    n_a: int = 10000
    n_b: int = 100
    a_groups: int = 100
    match_fraction: float = 1.0
    bref_mode: str = "uniform"
    seed: int = 0
    null_fraction: float = 0.0


def make_two_table(spec: TwoTableSpec) -> Database:
    """Build and populate the generic sweep schema.

    ``A(AId, GKey, BRef, Val)`` with PK AId; ``B(BId, Name)`` with PK BId.
    ``BRef`` joins to ``B.BId``; non-matching rows get a reference beyond
    ``n_b``.  ``GKey`` takes ``a_groups`` distinct values.
    """
    db = Database("two_table")
    db.create_table(
        TableSchema(
            "B",
            [Column("BId", INTEGER), Column("Name", VARCHAR(30))],
            [PrimaryKeyConstraint(["BId"])],
        )
    )
    db.create_table(
        TableSchema(
            "A",
            [
                Column("AId", INTEGER),
                Column("GKey", INTEGER),
                Column("BRef", INTEGER),
                Column("Val", INTEGER),
            ],
            [PrimaryKeyConstraint(["AId"])],
        )
    )
    rng = random.Random(spec.seed)
    for b_id in range(1, spec.n_b + 1):
        db.insert("B", [b_id, f"B{b_id}"])
    def maybe_null(value):
        if spec.null_fraction and rng.random() < spec.null_fraction:
            return NULL
        return value

    for a_id in range(1, spec.n_a + 1):
        g_key = rng.randint(1, max(1, spec.a_groups))
        if rng.random() >= spec.match_fraction:
            b_ref = spec.n_b + a_id  # dangling: joins with nothing
        elif spec.bref_mode == "correlated":
            b_ref = (g_key % max(1, spec.n_b)) + 1
        else:
            b_ref = rng.randint(1, max(1, spec.n_b))
        db.insert(
            "A",
            [
                a_id,
                maybe_null(g_key),
                maybe_null(b_ref),
                maybe_null(rng.randint(0, 1000)),
            ],
        )
    return db


def populate_retail(
    db: Database,
    n_sales: int = 5000,
    n_customers: int = 200,
    n_products: int = 50,
    n_stores: int = 10,
    seed: int = 0,
) -> None:
    """Fill the retail star schema with uniformly distributed sales."""
    rng = random.Random(seed)
    segments = ["consumer", "corporate", "home-office"]
    categories = ["grocery", "electronics", "apparel", "toys"]
    regions = ["north", "south", "east", "west"]
    for cust_id in range(1, n_customers + 1):
        db.insert(
            "Customer",
            [cust_id, f"Customer {cust_id}", segments[cust_id % len(segments)]],
        )
    for prod_id in range(1, n_products + 1):
        db.insert(
            "Product",
            [prod_id, f"Product {prod_id}", categories[prod_id % len(categories)]],
        )
    for store_id in range(1, n_stores + 1):
        db.insert(
            "Store",
            [store_id, f"City {store_id}", regions[store_id % len(regions)]],
        )
    for sale_id in range(1, n_sales + 1):
        db.insert(
            "Sales",
            [
                sale_id,
                rng.randint(1, n_customers),
                rng.randint(1, n_products),
                rng.randint(1, n_stores),
                rng.randint(1, 10),
                rng.randint(1, 500),
            ],
        )


def populate_example4(
    db_factory=make_two_table,
    n_a: int = 10000,
    n_b: int = 100,
    a_groups: int = 9000,
    match_rows: int = 50,
    seed: int = 0,
) -> Database:
    """Figure 8's regime: |A|=10000, |B|=100, the join yields ~``match_rows``
    rows, and A has ~``a_groups`` groups, so eager grouping produces ~9000
    groups only to throw most of them away at the join."""
    spec = TwoTableSpec(
        n_a=n_a,
        n_b=n_b,
        a_groups=a_groups,
        match_fraction=match_rows / n_a,
        seed=seed,
    )
    return db_factory(spec)
