"""The transformation itself: building E1 and E2 plans and deciding validity.

* :func:`build_standard_plan` — E1, "group by after join" (Plan 1 of
  Figure 1).
* :func:`build_eager_plan` — E2, "group by before join" (Plan 2 of
  Figure 1): aggregate the R1 group on GA1+ under C1, project the R2 group
  to GA2+ under C2 (Lemma 1 says the projection is harmless), join on C0,
  and project the final SELECT list.
* :func:`check_transformable` — gate the rewrite behind TestFD (Theorem 4:
  YES ⇒ valid).  The certified entry point, which also issues and audits
  the rewrite certificate, sits above the checker it calls:
  :func:`repro.analysis.verifier.transform`.
* :func:`expand_predicates` — the *predicate expansion* noted at the end of
  Example 3: propagate constant bindings across C0 equalities so the eager
  R1 block filters early (e.g. add ``A.Machine = 'dragon'``).
* :func:`reverse` — Section 8: given a query naturally phrased as an
  aggregated view joined to other tables (the E2 shape), the same
  conditions license evaluating it as E1 ("performing join before
  group-by").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.algebra.ops import (
    Apply,
    Group,
    Join,
    PlanNode,
    Project,
)
from repro.catalog.catalog import Database
from repro.core.having import grouped_plan_with_having
from repro.core.planbuild import build_join_tree
from repro.core.query_class import GroupByJoinQuery
from repro.core.testfd import TestFDResult, test_fd
from repro.errors import TransformationError
from repro.expressions.analysis import classify_atomic, Type1Condition, Type2Condition
from repro.expressions.ast import ColumnRef, Comparison, Expression, contains_aggregate
from repro.expressions.normalize import conjoin, split_conjuncts


def build_join_plan(query: GroupByJoinQuery) -> PlanNode:
    """``σ[C1 ∧ C0 ∧ C2](R1 × R2)``: the join E1 aggregates, and the
    relation the Main Theorem's FD1/FD2 are stated over."""
    return build_join_tree(query.all_bindings, query.where)


def build_standard_plan(query: GroupByJoinQuery) -> PlanNode:
    """E1: join everything under the full WHERE, group, aggregate, project.

    A HAVING clause (which blocks the *transformation* but not execution)
    is applied as a filter over the grouped rows, with any aggregates it
    mentions computed alongside and projected away afterwards.
    """
    return grouped_plan_with_having(
        build_join_plan(query),
        query.grouping_columns,
        query.aggregates,
        query.having,
        query.select_columns,
        query.distinct,
    )


def build_eager_plan(query: GroupByJoinQuery, project_r2: bool = True) -> PlanNode:
    """E2: group-by pushed below the join.

    ``project_r2=True`` builds the practical form (π^A[GA2+] on the R2 side,
    per Lemma 1); ``False`` builds E2′, which carries all R2 columns through
    the join — the two are proved equivalent by Lemma 1 and tests verify it.
    """
    split = query.split()
    r1_tree = build_join_tree(query.r1, split.c1)
    r1_aggregated: PlanNode = Apply(
        Group(r1_tree, query.ga1_plus), query.aggregates
    )
    if not query.r2:
        return Project(r1_aggregated, query.select_columns, query.distinct)
    r2_tree: PlanNode = build_join_tree(query.r2, split.c2)
    if project_r2 and query.ga2_plus:
        r2_tree = Project(r2_tree, query.ga2_plus)
    joined = Join(r1_aggregated, r2_tree, split.c0)
    return Project(joined, query.select_columns, query.distinct)


@dataclass
class TransformationDecision:
    """Outcome of the validity test for one query."""

    valid: bool
    reason: str
    testfd: Optional[TestFDResult] = None

    def __bool__(self) -> bool:
        return self.valid


def check_transformable(
    database: Database,
    query: GroupByJoinQuery,
    assume_unique_keys: bool = False,
    paper_strict: bool = False,
) -> TransformationDecision:
    """Is pushing the group-by below the join guaranteed valid?

    Wraps TestFD; a YES is sound (Theorem 4), a NO is inconclusive —
    :func:`repro.main_theorem.check_equivalence` can still confirm
    equivalence on a *specific* instance, but not for all instances.
    """
    result = test_fd(
        database,
        query,
        assume_unique_keys=assume_unique_keys,
        paper_strict=paper_strict,
    )
    return TransformationDecision(result.decision, result.reason, result)


def reverse(
    database: Database,
    query: GroupByJoinQuery,
    assume_unique_keys: bool = False,
) -> PlanNode:
    """Section 8: evaluate an aggregated-view join as one grouped join (E1).

    ``query`` describes the aggregated view (its R1 group, C1, GA1+ produce
    the view) joined with the R2 group — i.e. its *natural* evaluation is
    the E2 plan.  When FD1/FD2 hold the optimizer may instead run the E1
    plan, which wins when the join is selective (few rows reach the
    group-by).  Validity is the same TestFD condition.
    """
    decision = check_transformable(
        database, query, assume_unique_keys=assume_unique_keys
    )
    if not decision.valid:
        raise TransformationError(
            f"cannot reverse the view evaluation order: {decision.reason}"
        )
    return build_standard_plan(query)


def normalize_having(query: GroupByJoinQuery) -> GroupByJoinQuery:
    """Fold an aggregate-free HAVING into the WHERE clause (§9 relaxation).

    A HAVING condition that references only grouping columns evaluates
    identically on every row of a group, so filtering groups after
    aggregation equals filtering rows before it — the clause can move into
    WHERE, and the query re-enters the transformable class.  HAVING
    conditions touching aggregates are left alone (they genuinely need the
    post-aggregation filter).
    """
    if query.having is None or contains_aggregate(query.having):
        return query
    new_where = conjoin(
        list(split_conjuncts(query.where)) + list(split_conjuncts(query.having))
    )
    return GroupByJoinQuery(
        query.r1,
        query.r2,
        new_where,
        query.ga1,
        query.ga2,
        query.aggregates,
        query.sga1,
        query.sga2,
        query.distinct,
        having=None,
    )


def expand_predicates(query: GroupByJoinQuery) -> GroupByJoinQuery:
    """Predicate expansion (Example 3's closing remark).

    For every constant binding ``v = c`` among the WHERE conjuncts, add
    ``v' = c`` for each column ``v'`` in the same equality class as ``v``
    (classes induced by the Type-2 conjuncts).  On qualifying rows the added
    conjuncts are implied, so the query result is unchanged — but the eager
    plan's R1 block can now filter before grouping (e.g. group only the
    'dragon' rows of PrinterAuth).
    """
    conjuncts = list(split_conjuncts(query.where))
    # Union-find over columns via Type-2 equalities.
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: str, y: str) -> None:
        parent[find(x)] = find(y)

    for conjunct in conjuncts:
        classified = classify_atomic(conjunct)
        if isinstance(classified, Type2Condition):
            union(classified.left.qualified, classified.right.qualified)

    members: Dict[str, List[str]] = {}
    for column in list(parent):
        members.setdefault(find(column), []).append(column)

    existing = {str(c) for c in conjuncts}
    added: List[Expression] = []
    for conjunct in conjuncts:
        classified = classify_atomic(conjunct)
        if not isinstance(classified, Type1Condition):
            continue
        column = classified.column.qualified
        if column not in parent:
            continue
        for peer in members.get(find(column), []):
            if peer == column:
                continue
            table, bare = peer.rsplit(".", 1)
            candidate = Comparison(
                "=", ColumnRef(table, bare), classified.constant
            )
            if str(candidate) not in existing:
                added.append(candidate)
                existing.add(str(candidate))

    if not added:
        return query
    return GroupByJoinQuery(
        query.r1,
        query.r2,
        conjoin(conjuncts + added),
        query.ga1,
        query.ga2,
        query.aggregates,
        query.sga1,
        query.sga2,
        query.distinct,
        query.having,
    )
