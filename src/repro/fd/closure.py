"""Attribute-set closure under functional dependencies.

The classic fixpoint: grow a set of attributes by firing every FD whose
left-hand side is contained in the set.  TestFD's Step 4(c) is exactly this
computation where the FD set is assembled from (i) type-2 column equalities
(bidirectional), (ii) key constraints (key → all columns of its table), and
(iii) type-1 constant bindings (∅ → column).

The closure is also used by the derived-FD reasoning of Example 2.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Sequence, Set

from repro.fd.dependency import FunctionalDependency


def closure(
    attributes: Iterable[str],
    dependencies: Sequence[FunctionalDependency],
) -> FrozenSet[str]:
    """The closure of ``attributes`` under ``dependencies``.

    FDs with an empty left-hand side fire unconditionally (constant
    columns).  Runs to fixpoint; cost is O(|FDs| × passes) which is fine for
    query-sized inputs (TestFD's speed bench measures it directly).
    """
    result: Set[str] = set(attributes)
    pending: List[FunctionalDependency] = list(dependencies)
    changed = True
    while changed:
        changed = False
        remaining: List[FunctionalDependency] = []
        for fd in pending:
            if fd.lhs <= result:
                new = fd.rhs - result
                if new:
                    result |= new
                    changed = True
                # fired: no need to revisit
            else:
                remaining.append(fd)
        pending = remaining
    return frozenset(result)


def implies(
    dependencies: Sequence[FunctionalDependency],
    candidate: FunctionalDependency,
) -> bool:
    """Armstrong-style implication test: does the set imply ``candidate``?"""
    return candidate.rhs <= closure(candidate.lhs, dependencies)
