"""Predicate normalization: NNF, CNF, DNF and conjunct handling.

TestFD (Section 6.3 of the paper) requires the combined condition
``C1 ∧ C0 ∧ C2 ∧ T1 ∧ T2`` in *conjunctive normal form* (Step 1), filtered
(Step 2), and then converted to *disjunctive normal form* (Step 3).  The
functions here implement those conversions over the expression AST.

DNF expansion is exponential in the worst case; :func:`to_dnf` takes a
``max_terms`` guard so the optimizer can bail out (and simply refuse the
transformation) on pathological predicates rather than hang.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.errors import TransformationError
from repro.expressions.ast import (
    And,
    Between,
    Comparison,
    Expression,
    InList,
    IsNull,
    Like,
    Not,
    Or,
)

_NEGATED_COMPARISON = {
    "=": "<>",
    "<>": "=",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}


def to_nnf(expression: Expression) -> Expression:
    """Push NOT inward (negation normal form).

    Comparisons absorb the negation by flipping the operator, which is valid
    under three-valued logic for the *floor* interpretation used by WHERE:
    ``NOT (a < b)`` and ``a >= b`` evaluate to the same Truth on all inputs
    (UNKNOWN maps to UNKNOWN either way).
    """
    if isinstance(expression, Not):
        inner = expression.operand
        if isinstance(inner, Not):
            return to_nnf(inner.operand)
        if isinstance(inner, And):
            return Or(to_nnf(Not(inner.left)), to_nnf(Not(inner.right)))
        if isinstance(inner, Or):
            return And(to_nnf(Not(inner.left)), to_nnf(Not(inner.right)))
        if isinstance(inner, Comparison):
            return Comparison(_NEGATED_COMPARISON[inner.op], inner.left, inner.right)
        if isinstance(inner, IsNull):
            return IsNull(inner.operand, negated=not inner.negated)
        if isinstance(inner, InList):
            return InList(inner.operand, inner.items, negated=not inner.negated)
        if isinstance(inner, Between):
            return Between(inner.operand, inner.low, inner.high, negated=not inner.negated)
        if isinstance(inner, Like):
            return Like(inner.operand, inner.pattern, negated=not inner.negated)
        return expression
    if isinstance(expression, And):
        return And(to_nnf(expression.left), to_nnf(expression.right))
    if isinstance(expression, Or):
        return Or(to_nnf(expression.left), to_nnf(expression.right))
    return expression


def split_conjuncts(expression: Optional[Expression]) -> Tuple[Expression, ...]:
    """Flatten a conjunction into its top-level conjuncts (None -> empty)."""
    if expression is None:
        return ()
    if isinstance(expression, And):
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return (expression,)


def split_disjuncts(expression: Optional[Expression]) -> Tuple[Expression, ...]:
    """Flatten a disjunction into its top-level disjuncts (None -> empty)."""
    if expression is None:
        return ()
    if isinstance(expression, Or):
        return split_disjuncts(expression.left) + split_disjuncts(expression.right)
    return (expression,)


def conjoin(terms: Iterable[Expression]) -> Optional[Expression]:
    """Rebuild a conjunction from conjuncts; empty input yields ``None``."""
    result: Optional[Expression] = None
    for term in terms:
        result = term if result is None else And(result, term)
    return result


def disjoin(terms: Iterable[Expression]) -> Optional[Expression]:
    """Rebuild a disjunction from disjuncts; empty input yields ``None``."""
    result: Optional[Expression] = None
    for term in terms:
        result = term if result is None else Or(result, term)
    return result


def to_cnf(expression: Expression, max_terms: int = 4096) -> Tuple[Tuple[Expression, ...], ...]:
    """Conjunctive normal form as a tuple of clauses (each a disjunct tuple).

    ``(D1, D2, ...)`` where each ``Di`` is a tuple of atomic conditions whose
    disjunction is the clause — the exact shape Step 1 of TestFD consumes.
    """
    nnf = to_nnf(expression)
    clauses = _cnf_clauses(nnf, max_terms)
    return tuple(tuple(clause) for clause in clauses)


def _cnf_clauses(expression: Expression, max_terms: int) -> List[List[Expression]]:
    if isinstance(expression, And):
        left = _cnf_clauses(expression.left, max_terms)
        right = _cnf_clauses(expression.right, max_terms)
        combined = left + right
        if len(combined) > max_terms:
            raise TransformationError("CNF expansion exceeded max_terms")
        return combined
    if isinstance(expression, Or):
        left = _cnf_clauses(expression.left, max_terms)
        right = _cnf_clauses(expression.right, max_terms)
        # (A1 ∧ A2) ∨ (B1 ∧ B2) -> ∧ over all pairwise disjunctions.
        product: List[List[Expression]] = []
        for left_clause in left:
            for right_clause in right:
                product.append(list(left_clause) + list(right_clause))
                if len(product) > max_terms:
                    raise TransformationError("CNF expansion exceeded max_terms")
        return product
    return [[expression]]


def to_dnf(expression: Expression, max_terms: int = 4096) -> Tuple[Tuple[Expression, ...], ...]:
    """Disjunctive normal form as a tuple of conjunctive components.

    ``(E1, E2, ...)`` where each ``Ei`` is a tuple of atomic conditions whose
    conjunction is the component — the shape Step 3 of TestFD consumes.
    """
    nnf = to_nnf(expression)
    components = _dnf_components(nnf, max_terms)
    return tuple(tuple(component) for component in components)


def _dnf_components(expression: Expression, max_terms: int) -> List[List[Expression]]:
    if isinstance(expression, Or):
        left = _dnf_components(expression.left, max_terms)
        right = _dnf_components(expression.right, max_terms)
        combined = left + right
        if len(combined) > max_terms:
            raise TransformationError("DNF expansion exceeded max_terms")
        return combined
    if isinstance(expression, And):
        left = _dnf_components(expression.left, max_terms)
        right = _dnf_components(expression.right, max_terms)
        product: List[List[Expression]] = []
        for left_component in left:
            for right_component in right:
                product.append(list(left_component) + list(right_component))
                if len(product) > max_terms:
                    raise TransformationError("DNF expansion exceeded max_terms")
        return product
    return [[expression]]
