"""Shared fixtures: the paper's example databases at test-friendly scale."""

from __future__ import annotations

import pytest

from repro.algebra.ops import AggregateSpec
from repro.engine import faults
from repro.core.query_class import GroupByJoinQuery
from repro.expressions.builder import and_, col, count, eq, lit, max_, min_, sum_
from repro.fd.derivation import TableBinding
from repro.workloads.generators import (
    populate_employee_department,
    populate_part_supplier,
    populate_printer_accounting,
)
from repro.workloads.schemas import (
    make_employee_department,
    make_part_supplier,
    make_printer_schema,
)


@pytest.fixture(autouse=True)
def no_leftover_faults():
    """Guarantee no test leaves the process-wide fault injector armed."""
    yield
    faults.install(None)


@pytest.fixture
def plant_faults():
    """Arm fault specs for the test body; disarmed automatically.

    Usage: ``injector = plant_faults(FaultSpec("kernel", engine="vector"))``.
    """
    def arm(*specs):
        injector = faults.FaultInjector(tuple(specs))
        faults.install(injector)
        return injector

    yield arm
    faults.install(None)


@pytest.fixture
def statistics_scans(monkeypatch):
    """Names of the tables the optimizer's private per-table statistics
    scan ran over, in call order (``del scans[:]`` to start counting)."""
    import repro.costing.cardinality as cardinality

    scanned = []
    real = cardinality._scan_table

    def counting(table):
        scanned.append(table.name)
        return real(table)

    monkeypatch.setattr(cardinality, "_scan_table", counting)
    return scanned


@pytest.fixture
def example1_db():
    """Employee/Department with 200 employees over 10 departments."""
    db = make_employee_department()
    populate_employee_department(db, n_employees=200, n_departments=10, seed=7)
    return db


@pytest.fixture
def example1_query():
    """The Example 1 query: per-department employee count."""
    return GroupByJoinQuery(
        r1=[TableBinding("E", "Employee")],
        r2=[TableBinding("D", "Department")],
        where=eq(col("E.DeptID"), col("D.DeptID")),
        ga1=[],
        ga2=["D.DeptID", "D.Name"],
        aggregates=[AggregateSpec("cnt", count("E.EmpID"))],
    )


@pytest.fixture
def example2_db():
    db = make_part_supplier()
    populate_part_supplier(db, n_parts=100, n_suppliers=10, n_classes=5, seed=3)
    return db


@pytest.fixture
def printer_db():
    """UserAccount/PrinterAuth/Printer with data (Examples 3 and 5)."""
    db = make_printer_schema()
    populate_printer_accounting(
        db, n_users=60, n_machines=3, n_printers=8, auths_per_user=3, seed=11
    )
    return db


@pytest.fixture
def example3_query():
    """The Example 3 query: printer usage per user on machine 'dragon'."""
    return GroupByJoinQuery(
        r1=[TableBinding("A", "PrinterAuth"), TableBinding("P", "Printer")],
        r2=[TableBinding("U", "UserAccount")],
        where=and_(
            eq(col("U.UserId"), col("A.UserId")),
            eq(col("U.Machine"), col("A.Machine")),
            eq(col("A.PNo"), col("P.PNo")),
            eq(col("U.Machine"), lit("dragon")),
        ),
        ga1=[],
        ga2=["U.UserId", "U.UserName"],
        aggregates=[
            AggregateSpec("TotUsage", sum_("A.Usage")),
            AggregateSpec("MaxSpeed", max_("P.Speed")),
            AggregateSpec("MinSpeed", min_("P.Speed")),
        ],
    )
