"""Deriving functional dependencies that hold in a (filtered) join result.

Section 4.3 / Section 6 of the paper: semantic integrity constraints hold in
every valid database state, and the query's own WHERE conjuncts hold in the
join result, so both can be compiled into FDs over the join's columns:

* a candidate key ``K`` of table alias ``a``  ⇒  ``a.K → all columns of a``;
* a conjunct ``v = constant``                 ⇒  ``∅ → v`` (v is constant on
  qualifying rows — every attribute set determines it);
* a conjunct ``v1 = v2``                      ⇒  ``v1 → v2`` and ``v2 → v1``
  (qualifying rows have both non-NULL and equal).

**Soundness note on UNIQUE keys.**  The paper includes candidate keys in the
closure.  Under SQL2, a UNIQUE constraint admits multiple rows whose key
contains NULL, and such rows are ``=ⁿ``-equal on the key while differing
elsewhere — so the formal key dependency of Section 4.3 does *not* follow
from UNIQUE alone.  We therefore use a UNIQUE constraint as a key dependency
only when all its columns are declared NOT NULL; pass
``assume_unique_keys=True`` to get the paper's more liberal (and, on such
instances, unsound) behaviour.  ``tests/fd/test_derivation.py`` exhibits the
counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.catalog.catalog import Database
from repro.expressions.analysis import (
    Type1Condition,
    Type2Condition,
    classify_atomic,
)
from repro.expressions.ast import Expression
from repro.expressions.normalize import split_conjuncts
from repro.fd.closure import closure
from repro.fd.dependency import FunctionalDependency


@dataclass(frozen=True)
class TableBinding:
    """One FROM-clause entry: a base table under a correlation name."""

    alias: str
    table_name: str


@dataclass
class KnowledgeBase:
    """Everything TestFD and the derived-FD reasoner know about a query.

    * ``dependencies`` — FDs valid in the filtered join result;
    * ``keys_by_alias`` — the candidate keys (as qualified column sets) of
      each FROM entry, the ``Ki(R)`` of Section 6;
    * ``columns_by_alias`` — all qualified columns of each FROM entry.
    """

    dependencies: List[FunctionalDependency] = field(default_factory=list)
    keys_by_alias: Dict[str, Tuple[FrozenSet[str], ...]] = field(default_factory=dict)
    columns_by_alias: Dict[str, FrozenSet[str]] = field(default_factory=dict)

    def all_dependencies(self) -> Tuple[FunctionalDependency, ...]:
        return tuple(self.dependencies)


def candidate_keys(
    database: Database,
    bindings: Sequence[TableBinding],
    assume_unique_keys: bool = False,
) -> Dict[str, Tuple[FrozenSet[str], ...]]:
    """alias -> the candidate keys of its table, as sets of qualified columns.

    These are the ``Ki(R)`` of Section 6.  A UNIQUE key with a nullable
    column is left out unless ``assume_unique_keys`` (see the module
    docstring: UNIQUE + NULLs is not a key FD).
    """
    keys: Dict[str, Tuple[FrozenSet[str], ...]] = {}
    for binding in bindings:
        schema = database.table(binding.table_name).schema
        primary = schema.primary_key()
        keys[binding.alias] = tuple(
            frozenset(f"{binding.alias}.{c}" for c in key)
            for key in schema.candidate_keys()
            if key == primary
            or assume_unique_keys
            or not any(schema.column(c).nullable for c in key)
        )
    return keys


def key_dependencies(
    database: Database,
    binding: TableBinding,
    assume_unique_keys: bool = False,
) -> Tuple[FunctionalDependency, ...]:
    """Key dependencies of one bound table, qualified by its alias."""
    schema = database.table(binding.table_name).schema
    all_columns = frozenset(f"{binding.alias}.{c}" for c in schema.column_names())
    keys = candidate_keys(database, (binding,), assume_unique_keys)[binding.alias]
    return tuple(FunctionalDependency(key, all_columns) for key in keys)


def predicate_dependencies(
    conjuncts: Iterable[Expression],
) -> Tuple[FunctionalDependency, ...]:
    """FDs contributed by equality conjuncts of the WHERE clause."""
    dependencies: List[FunctionalDependency] = []
    for conjunct in conjuncts:
        classified = classify_atomic(conjunct)
        if isinstance(classified, Type1Condition):
            column = classified.column.qualified
            dependencies.append(FunctionalDependency((), (column,)))
        elif isinstance(classified, Type2Condition):
            left = classified.left.qualified
            right = classified.right.qualified
            dependencies.append(FunctionalDependency((left,), (right,)))
            dependencies.append(FunctionalDependency((right,), (left,)))
    return tuple(dependencies)


def build_knowledge_base(
    database: Database,
    bindings: Sequence[TableBinding],
    where: Optional[Expression],
    assume_unique_keys: bool = False,
) -> KnowledgeBase:
    """Assemble the FD knowledge base for a query's join result.

    Only *top-level conjuncts* of ``where`` contribute predicate FDs — a
    disjunction does not guarantee any of its branches.  (TestFD handles
    disjunctions by DNF case analysis instead; see
    :mod:`repro.core.testfd`.)
    """
    kb = KnowledgeBase()
    kb.keys_by_alias = candidate_keys(database, bindings, assume_unique_keys)
    for binding in bindings:
        schema = database.table(binding.table_name).schema
        columns = frozenset(f"{binding.alias}.{c}" for c in schema.column_names())
        kb.columns_by_alias[binding.alias] = columns
        kb.dependencies.extend(
            FunctionalDependency(key, columns)
            for key in kb.keys_by_alias[binding.alias]
        )
    kb.dependencies.extend(predicate_dependencies(split_conjuncts(where)))
    return kb


def derived_keys(
    kb: KnowledgeBase,
    visible_columns: Iterable[str],
) -> Tuple[FrozenSet[str], ...]:
    """Minimal keys of the derived table projecting ``visible_columns``.

    This mechanizes Example 2's reasoning: ``PartNo`` is a key of the
    Part ⋈ Supplier derived table because the knowledge base's FDs close
    ``{P.PartNo}`` over every visible column.
    """
    visible = tuple(sorted(set(visible_columns)))
    universe = frozenset(visible)
    keys: List[FrozenSet[str]] = []
    from itertools import combinations

    for size in range(0, len(visible) + 1):
        for subset in combinations(visible, size):
            candidate = frozenset(subset)
            if any(key <= candidate for key in keys):
                continue
            if universe <= closure(candidate, kb.dependencies):
                keys.append(candidate)
    return tuple(keys)
