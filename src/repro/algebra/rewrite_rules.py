"""The certified rewrite rules' names and the user-facing spec parser.

Lives beside the plan nodes (not in :mod:`repro.optimizer.rewrites`, which
re-exports both names) so :class:`repro.engine.executor.ExecutorConfig`
can normalize its ``rewrites`` field at import time without a cycle.
"""

from __future__ import annotations

from typing import List, Tuple

#: The rewrite rules, in the order the pass applies them.
REWRITE_RULES: Tuple[str, ...] = (
    "predicate_pushdown",
    "join_reordering",
    "projection_pruning",
)


def normalize_rewrites(value: object) -> Tuple[str, ...]:
    """Canonicalize a user-facing rewrite spec to a tuple of rule names.

    Accepts ``None``/``""``/``"none"``/``"off"`` (disabled), ``"all"``, a
    comma-separated string, or an iterable of rule names.  Unknown names
    raise ``ValueError`` listing the valid rules.
    """
    if value is None:
        return ()
    if isinstance(value, str):
        text = value.strip()
        if text in ("", "none", "off"):
            return ()
        names: Tuple[str, ...] = tuple(
            part.strip() for part in text.split(",") if part.strip()
        )
    else:
        names = tuple(value)
    if "all" in names:
        return REWRITE_RULES
    seen: List[str] = []
    for name in names:
        if name not in REWRITE_RULES:
            raise ValueError(
                f"unknown rewrite rule {name!r}; valid rules: "
                + ", ".join(REWRITE_RULES)
                + ", all"
            )
        if name not in seen:
            seen.append(name)
    # Preserve the canonical application order regardless of spelling order.
    return tuple(rule for rule in REWRITE_RULES if rule in seen)
