"""Fixtures shared by the session tests."""

from __future__ import annotations

import pytest

from repro.workloads.schemas import make_retail_star


def star_database():
    """The retail star with three sales over two customers."""
    database = make_retail_star()
    database.table("Customer").insert_many(
        [(1, "Ann", "retail"), (2, "Bob", "retail")]
    )
    database.table("Product").insert((1, "Pen", "office"))
    database.table("Store").insert((1, "Oslo", "north"))
    database.table("Sales").insert_many(
        [(1, 1, 1, 1, 2, 10), (2, 2, 1, 1, 1, 20), (3, 2, 1, 1, 4, 30)]
    )
    return database


@pytest.fixture
def star():
    return star_database()
