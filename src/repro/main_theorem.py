"""Instance-level verification of the Main Theorem (Section 5).

The theorem: E1 ≡ E2 **iff** both functional dependencies hold in the join
result ``σ[C1 ∧ C0 ∧ C2](R1 × R2)``:

* ``FD1: (GA1, GA2) → GA1+``
* ``FD2: (GA1+, GA2) → RowID(R2)``

This module checks all three facts — FD1, FD2, and E1 ≡ E2 — against a
*concrete database instance* by actually executing the plans.  It is the
empirical backbone of the test suite: property-based tests generate random
instances and confirm that equivalence and (FD1 ∧ FD2) always coincide for
the Main-Theorem query form, exactly as proved.

Note the quantifier: TestFD reasons over *all valid instances*; this module
observes *one* instance.  FD1 ∧ FD2 on an instance implies E1(r1,r2) =
E2(r1,r2) on that instance (the sufficiency direction, Lemma 6, is
instance-wise); the necessity direction is over all instances, so a single
instance can satisfy E1 = E2 while violating an FD only in ways that some
*other* instance would expose — the theorem's proof constructs those
instances, and our tests exercise both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.catalog.catalog import Database
from repro.core.query_class import GroupByJoinQuery
from repro.core.transform import (
    build_eager_plan,
    build_join_plan,
    build_standard_plan,
)
from repro.engine.dataset import DataSet, rowid_column
from repro.engine.executor import Executor, ExecutorConfig
from repro.fd.dependency import fd_holds_in


def join_result(
    database: Database, query: GroupByJoinQuery, expose_rowids: bool = True
) -> DataSet:
    """Materialize ``σ[C1 ∧ C0 ∧ C2](R1 × R2)`` (with hidden RowIDs)."""
    executor = Executor(
        database, ExecutorConfig(expose_rowids=expose_rowids)
    )
    result, _ = executor.run(build_join_plan(query))
    return result


def fd1_holds(database: Database, query: GroupByJoinQuery) -> bool:
    """FD1: (GA1, GA2) → GA1+ in the join result of this instance."""
    joined = join_result(database, query, expose_rowids=False)
    return fd_holds_in(joined, query.grouping_columns, query.ga1_plus)


def fd2_holds(database: Database, query: GroupByJoinQuery) -> bool:
    """FD2: (GA1+, GA2) → RowID(R2) in the join result of this instance.

    RowID(R2) of a multi-table group is the tuple of member RowIDs — it
    identifies one row of the group's Cartesian product.
    """
    joined = join_result(database, query, expose_rowids=True)
    lhs = tuple(query.ga1_plus) + tuple(query.ga2)
    rhs = tuple(rowid_column(binding.alias) for binding in query.r2)
    if not rhs:
        return True
    return fd_holds_in(joined, lhs, rhs)


@dataclass
class TheoremVerdict:
    """Everything the Main Theorem talks about, observed on one instance."""

    fd1: bool
    fd2: bool
    equivalent: bool
    e1_result: DataSet
    e2_result: DataSet

    @property
    def fds_hold(self) -> bool:
        return self.fd1 and self.fd2


def evaluate_both(
    database: Database,
    query: GroupByJoinQuery,
    config: ExecutorConfig = ExecutorConfig(),
) -> Tuple[DataSet, DataSet]:
    """Execute E1 and E2 and return both results."""
    executor = Executor(database, config)
    e1, _ = executor.run(build_standard_plan(query))
    e2, _ = executor.run(build_eager_plan(query))
    return e1, e2


def check_equivalence(database: Database, query: GroupByJoinQuery) -> bool:
    """Does E1 = E2 (as multisets under ``=ⁿ``) on this instance?"""
    e1, e2 = evaluate_both(database, query)
    return e1.equals_multiset(e2)


def verdict(database: Database, query: GroupByJoinQuery) -> TheoremVerdict:
    """Observe FD1, FD2, and E1 ≡ E2 on the current instance."""
    e1, e2 = evaluate_both(database, query)
    return TheoremVerdict(
        fd1=fd1_holds(database, query),
        fd2=fd2_holds(database, query),
        equivalent=e1.equals_multiset(e2),
        e1_result=e1,
        e2_result=e2,
    )
