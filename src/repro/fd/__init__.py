"""Functional dependencies: definition, closure, derivation from constraints."""

from repro.fd.closure import closure, implies, minimal_keys
from repro.fd.dependency import FunctionalDependency, fd_holds_in, violating_pair
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
    "closure", "implies", "minimal_keys",
    "FunctionalDependency", "fd_holds_in", "violating_pair",
    "KnowledgeBase", "TableBinding", "build_knowledge_base", "candidate_keys",
    "derived_keys", "key_dependencies", "predicate_dependencies",
]
