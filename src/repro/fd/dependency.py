"""Functional dependencies over qualified column names.

Definition 2 of the paper, with strict SQL2 semantics: ``A → B`` holds in an
instance when any two rows that agree on ``A`` under ``=ⁿ`` (NULL equals
NULL) also agree on ``B`` under ``=ⁿ``.  A *key dependency* is the special
case where ``A`` is a declared candidate key.

:func:`fd_holds_in` checks a dependency against a materialized
:class:`~repro.engine.dataset.DataSet` — this is how the Main Theorem's FD1
and FD2 are verified on concrete instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Sequence, Tuple

from repro.sqltypes.values import group_key

if TYPE_CHECKING:
    from repro.engine.dataset import DataSet


@dataclass(frozen=True)
class FunctionalDependency:
    """``lhs → rhs`` over column names.

    An empty ``lhs`` means the right-hand side is constant across the whole
    instance (the paper's degenerate ``GA2 → ∅`` cases produce these).
    """

    lhs: FrozenSet[str]
    rhs: FrozenSet[str]

    def __init__(self, lhs: Iterable[str], rhs: Iterable[str]) -> None:
        object.__setattr__(self, "lhs", frozenset(lhs))
        object.__setattr__(self, "rhs", frozenset(rhs))

    def __str__(self) -> str:
        left = ", ".join(sorted(self.lhs)) or "∅"
        right = ", ".join(sorted(self.rhs)) or "∅"
        return f"{{{left}}} -> {{{right}}}"

    def trivial(self) -> bool:
        return self.rhs <= self.lhs


def fd_holds_in(
    dataset: DataSet,
    lhs: Sequence[str],
    rhs: Sequence[str],
) -> bool:
    """Instance-level FD check per Definition 2 (``=ⁿ`` on both sides).

    Runs in one hash pass: group rows by the LHS key and demand a single
    RHS key per group.  An empty ``lhs`` demands the RHS be constant.
    """
    lhs_indexes = dataset.indexes_of(lhs)
    rhs_indexes = dataset.indexes_of(rhs)
    seen: Dict[Tuple, Tuple] = {}
    for row in dataset.rows:
        left_key = group_key(tuple(row[i] for i in lhs_indexes))
        right_key = group_key(tuple(row[i] for i in rhs_indexes))
        previous = seen.setdefault(left_key, right_key)
        if previous != right_key:
            return False
    return True
