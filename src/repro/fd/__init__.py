"""Functional dependencies: definition, closure, derivation from constraints."""

from repro.fd.closure import closure, implies
from repro.fd.dependency import FunctionalDependency, fd_holds_in
from repro.fd.derivation import (
    KnowledgeBase,
    TableBinding,
    build_knowledge_base,
    candidate_keys,
    derived_keys,
    key_dependencies,
    predicate_dependencies,
)

__all__ = [
    "closure", "implies",
    "FunctionalDependency", "fd_holds_in",
    "KnowledgeBase", "TableBinding", "build_knowledge_base", "candidate_keys",
    "derived_keys", "key_dependencies", "predicate_dependencies",
]
