"""The paper's SQL2 algebra as logical plan trees, plus plan rendering."""

from repro.algebra.display import render_annotated, render_plan
from repro.algebra.notation import to_paper_notation
from repro.algebra.ops import (
    AggregateSpec,
    Apply,
    Group,
    GroupApply,
    Join,
    PlanNode,
    Product,
    Project,
    Relation,
    Select,
    Sort,
    fuse_group_apply,
    walk_plan,
    with_children,
)

__all__ = [
    "AggregateSpec", "Apply", "Group", "GroupApply", "Join", "PlanNode",
    "Product", "Project", "Relation", "Select", "Sort", "fuse_group_apply",
    "walk_plan", "with_children", "render_annotated", "render_plan",
    "to_paper_notation",
]
