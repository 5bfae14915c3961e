"""TestFD: the fast sufficient test of Section 6.3.

Decides whether the functional dependencies of the Main Theorem,

* ``FD1: (GA1, GA2) → GA1+``
* ``FD2: (GA1+, GA2) → RowID(R2)``

are *guaranteed* to hold in ``σ[C1 ∧ C0 ∧ C2](R1 × R2)`` using only key
constraints and equality conditions.  YES means the transformation is valid
(Theorem 4); NO means "could not show it", not "invalid".

Algorithm (paper steps in brackets):

1. Build ``C = C1 ∧ C0 ∧ C2 ∧ T1 ∧ T2`` and convert to CNF.          [1]
2. Delete every clause containing an atom that is not Type 1
   (``v = constant/host var``) or Type 2 (``v1 = v2``).              [2]
3. Convert the remainder to DNF: ``E1 ∨ … ∨ En``.                    [3]
4. For each conjunctive component ``Ei``: seed ``S = GA1 ∪ GA2``,
   add constant-bound columns, close transitively over the component's
   equalities and the candidate keys, then demand (d) a key of every
   R2-group table in ``S`` and (h) ``GA1+ ⊆ S``.                     [4]
5. All components pass ⇒ YES.                                         [5]

We fold the paper's steps (e)–(g) into (a)–(c): they recompute the very
same closure (the second seeding differs only by a typo in the paper), so
one closure serves both checks (d) and (h).

Divergence from the paper, controlled by ``paper_strict``: when step 2
leaves *no* clause, the paper returns NO immediately (step 3).  Key
constraints alone can still establish FD1/FD2 (e.g. GA2 already contains a
key of R2), so by default we run step 4 once on an empty component; pass
``paper_strict=True`` for the literal behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Sequence, Tuple

from repro.catalog.catalog import Database
from repro.core.query_class import GroupByJoinQuery
from repro.errors import TransformationError
from repro.expressions.analysis import (
    Type1Condition,
    Type2Condition,
    classify_atomic,
)
from repro.expressions.ast import Expression
from repro.expressions.normalize import conjoin, disjoin, to_cnf, to_dnf
from repro.fd.derivation import TableBinding, candidate_keys


@dataclass
class ComponentTrace:
    """The step-by-step record of one DNF component's closure (Example 3
    prints these as steps a–h).

    ``constants`` and ``equalities`` are the component's Type-1/Type-2
    atoms in structured form (qualified column names), so the rewrite
    auditor (:mod:`repro.analysis.certificates`) can re-derive the closure
    independently instead of trusting the rendered ``atoms`` strings.
    """

    atoms: Tuple[str, ...]
    seed: FrozenSet[str]
    after_constants: FrozenSet[str]
    closure: FrozenSet[str]
    r2_keys_found: bool
    ga1_plus_covered: bool
    constants: Tuple[str, ...] = ()
    equalities: Tuple[Tuple[str, str], ...] = ()


@dataclass
class TestFDResult:
    """The verdict plus enough trace to explain it."""

    decision: bool
    reason: str
    components: List[ComponentTrace] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.decision


def _gather_constraints(
    database: Database, bindings: Sequence[TableBinding]
) -> List[Expression]:
    """T1/T2: CHECK, domain and single-table assertion conditions of the
    bound tables, qualified by alias (Theorem 3)."""
    conditions: List[Expression] = []
    for binding in bindings:
        conditions.extend(
            database.table_condition(binding.table_name, binding.alias)
        )
    return conditions


def _columns_by_alias(database: Database, bindings: Sequence[TableBinding]) -> dict:
    return {
        binding.alias: frozenset(
            f"{binding.alias}.{c}"
            for c in database.table(binding.table_name).schema.column_names()
        )
        for binding in bindings
    }


def _closure_over_component(
    seed: FrozenSet[str],
    type1: Sequence[Type1Condition],
    type2: Sequence[Type2Condition],
    keys_by_alias: dict,
    columns_by_alias: dict,
) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """Steps (a)–(c): seed, add constant columns, close transitively.

    Returns ``(after_constants, closure)``.
    """
    working = set(seed)
    for condition in type1:
        working.add(condition.column.qualified)
    after_constants = frozenset(working)

    changed = True
    while changed:
        changed = False
        for condition in type2:
            left = condition.left.qualified
            right = condition.right.qualified
            if left in working and right not in working:
                working.add(right)
                changed = True
            if right in working and left not in working:
                working.add(left)
                changed = True
        for alias, keys in keys_by_alias.items():
            all_columns = columns_by_alias[alias]
            if all_columns <= working:
                continue
            for key in keys:
                if key <= working:
                    working |= all_columns
                    changed = True
                    break
    return after_constants, frozenset(working)


def test_fd(
    database: Database,
    query: GroupByJoinQuery,
    assume_unique_keys: bool = False,
    paper_strict: bool = False,
    max_dnf_terms: int = 4096,
) -> TestFDResult:
    """Run TestFD for ``query``; YES means the eager rewrite is valid.

    Inputs per the paper: the predicates C1, C0, C2 (recovered from the
    query), the constraint conditions T1, T2 (from the catalog), and the key
    constraints of every table in R1 and R2.
    """
    if query.having is not None:
        return TestFDResult(
            False, "queries with a HAVING clause are outside the class considered"
        )
    if not query.r2:
        return TestFDResult(
            False,
            "no R2 group: every FROM table carries aggregation columns, so "
            "there is no join to push the group-by past",
        )

    constraint_conditions = _gather_constraints(database, query.all_bindings)
    combined = conjoin(
        list(query.split().conjuncts()) + constraint_conditions
    )

    keys_by_alias = candidate_keys(database, query.all_bindings, assume_unique_keys)
    columns_by_alias = _columns_by_alias(database, query.all_bindings)
    r2_aliases = sorted(query.r2_aliases)

    # Steps 1-2: CNF, drop clauses containing non-Type-1/2 atoms.
    if combined is None:
        clauses: Tuple[Tuple[Expression, ...], ...] = ()
    else:
        try:
            clauses = to_cnf(combined, max_terms=max_dnf_terms)
        except TransformationError as exc:
            return TestFDResult(False, f"normalization too large: {exc}")
    kept_clauses = [
        clause
        for clause in clauses
        if all(classify_atomic(atom) is not None for atom in clause)
    ]

    # Step 3.
    if not kept_clauses:
        if paper_strict:
            return TestFDResult(
                False,
                "no usable equality conditions remain after filtering "
                "(paper-strict step 3 returns NO)",
            )
        components: Tuple[Tuple[Expression, ...], ...] = ((),)
    else:
        kept_expression = conjoin(
            [_disjoin_clause(clause) for clause in kept_clauses]
        )
        assert kept_expression is not None
        try:
            components = to_dnf(kept_expression, max_terms=max_dnf_terms)
        except TransformationError as exc:
            return TestFDResult(False, f"DNF expansion too large: {exc}")

    # Step 4: every conjunctive component must establish FD1 and FD2.
    seed = frozenset(query.ga1) | frozenset(query.ga2)
    ga1_plus = frozenset(query.ga1_plus)
    traces: List[ComponentTrace] = []
    for component in components:
        type1: List[Type1Condition] = []
        type2: List[Type2Condition] = []
        for atom in component:
            classified = classify_atomic(atom)
            if isinstance(classified, Type1Condition):
                type1.append(classified)
            elif isinstance(classified, Type2Condition):
                type2.append(classified)
            # Non-equality atoms inside a kept component cannot appear:
            # step 2 removed the clauses that could produce them.
        after_constants, closure = _closure_over_component(
            seed, type1, type2,
            keys_by_alias, columns_by_alias,
        )
        # Step (d): a candidate key of every R2-group member must be in S —
        # jointly they identify RowID(R2), the product of the members.
        r2_ok = all(
            any(key <= closure for key in keys_by_alias[alias])
            for alias in r2_aliases
        )
        # Step (h): GA1+ ⊆ S establishes FD1.
        ga1_ok = ga1_plus <= closure
        traces.append(
            ComponentTrace(
                tuple(str(a) for a in component),
                seed, after_constants, closure, r2_ok, ga1_ok,
                constants=tuple(c.column.qualified for c in type1),
                equalities=tuple(
                    (c.left.qualified, c.right.qualified) for c in type2
                ),
            )
        )
        if not r2_ok:
            return TestFDResult(
                False,
                "FD2 not established: no candidate key of the R2 group is "
                "reachable from (GA1, GA2) in some DNF component",
                traces,
            )
        if not ga1_ok:
            missing = sorted(ga1_plus - closure)
            return TestFDResult(
                False,
                f"FD1 not established: GA1+ columns {missing} are not "
                "reachable from (GA1, GA2) in some DNF component",
                traces,
            )

    return TestFDResult(True, "FD1 and FD2 guaranteed by keys and equalities", traces)


# Keep pytest from collecting the algorithm as a test when imported into
# test modules (its name intentionally matches the paper's "TestFD").
test_fd.__test__ = False  # type: ignore[attr-defined]


def _disjoin_clause(clause: Sequence[Expression]) -> Expression:
    result = disjoin(list(clause))
    assert result is not None
    return result
