"""Certified rewrite library: pushdown, pruning, and join reordering.

Three semantics-preserving rewrites over the SQL2 algebra, each emitting a
machine-checkable :class:`RuleCertificate`:

``predicate_pushdown``
    Moves conjuncts of a filter above ``F[AA] G[GA]`` below the group-by
    when every column they reference resolves to a *grouping key* (never an
    aggregate output — the alias guard) and the conjunct contains no
    aggregate (the count guard).  Sound because all rows of a group carry
    ``=ⁿ``-equal key values: the predicate evaluates identically on the
    group row and on each contributing row, including the NULL-key group
    (3VL verdicts are recorded as premises and re-derived by the checker).

``projection_pruning``
    Computes per-operator live-column sets top-down and inserts (or
    narrows) non-distinct projections below joins, products, and
    aggregations so dead columns are not carried through wide operators.

``join_reordering``
    Greedy cost-based reordering of maximal join/product regions whose
    output order is insulated by a ``π``/``F G`` ancestor, placing each
    conjunct at the earliest scope that binds all its tables; applied only
    when the cost model prices the new region strictly cheaper.

Each application captures full before/after plans in its certificate.  The
pass self-audits by default: :func:`apply_rewrites` hands every certificate
to the independent checker in :mod:`repro.analysis.equivalence` and raises
:class:`~repro.errors.TransformationError` if any premise fails to
re-verify — the rewriter is never trusted on its own output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.algebra.ops import (
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
from repro.algebra.rewrite_rules import REWRITE_RULES, normalize_rewrites
from repro.analysis.certificates import (
    APPLIED_REWRITES_ATTR,
    RuleCertificate,
    carry_evidence,
)
from repro.analysis.diagnostics import raise_on_errors
from repro.analysis.equivalence import collect_join_region, verify_rewrite
from repro.analysis.nullability import null_rejection_premises
from repro.analysis.schema import (
    AmbiguousColumn,
    PlanSchema,
    infer_schema,
    infer_schemas,
    node_path,
)
from repro.catalog.catalog import Database
from repro.costing.cardinality import CardinalityEstimator
from repro.costing.cost import CostModel
from repro.expressions.analysis import referenced_tables
from repro.expressions.ast import (
    ColumnRef,
    Expression,
    column_refs,
    contains_aggregate,
    transform_expression,
)
from repro.expressions.normalize import conjoin, split_conjuncts


@dataclass(frozen=True)
class RewriteOutcome:
    """A rewritten plan plus the certificates for every rule application."""

    plan: PlanNode
    certificates: Tuple[RuleCertificate, ...] = ()

    @property
    def changed(self) -> bool:
        return bool(self.certificates)


def rewrites_applied(plan: PlanNode) -> Optional[Tuple[str, ...]]:
    """The rewrite set already applied to ``plan``'s root, if any."""
    return getattr(plan, APPLIED_REWRITES_ATTR, None)


# ---------------------------------------------------------------------------
# predicate pushdown through group-by
# ---------------------------------------------------------------------------


def _ref_from_name(name: str) -> ColumnRef:
    if "." in name:
        table, column = name.rsplit(".", 1)
        return ColumnRef(table, column)
    return ColumnRef("", name)


def _requalify_pushable(
    conjunct: Expression,
    grouping_columns: Tuple[str, ...],
    out_schema: PlanSchema,
    child_schema: PlanSchema,
) -> Optional[Expression]:
    """Rewrite ``conjunct`` against the group-by *input* if pushable.

    Pushable means: no aggregate anywhere in the conjunct (count guard),
    and every column reference resolves — unambiguously — to a grouping
    key of the ``F G`` output, never an aggregate alias (alias guard).
    Returns the conjunct with each reference requalified to the key's
    resolved name in the child schema, or ``None`` when not pushable.
    """
    if contains_aggregate(conjunct):
        return None
    keys = set(grouping_columns)
    mapping: Dict[ColumnRef, ColumnRef] = {}
    for ref in column_refs(conjunct):
        try:
            info = out_schema.resolve(ref.qualified)
        except AmbiguousColumn:
            return None
        if info is None or info.name not in keys:
            return None
        try:
            below = child_schema.resolve(info.name)
        except AmbiguousColumn:
            return None
        if below is None:
            return None
        mapping[ref] = _ref_from_name(below.name)

    def visit(node: Expression) -> Optional[Expression]:
        if isinstance(node, ColumnRef):
            return mapping.get(node)
        return None

    return transform_expression(conjunct, visit)


def _canonical_keys(
    grouping_columns: Tuple[str, ...], child_schema: PlanSchema
) -> Tuple[str, ...]:
    resolved = []
    for key in grouping_columns:
        try:
            info = child_schema.resolve(key)
        except AmbiguousColumn:
            info = None
        resolved.append(info.name if info is not None else key)
    return tuple(resolved)


@dataclass
class _Step:
    plan: PlanNode
    path: str
    premises: Tuple[Tuple[str, str], ...]


def _peel_projects(node: PlanNode) -> Tuple[List[Project], PlanNode]:
    """Split off the chain of non-distinct projections above a core node."""
    projects: List[Project] = []
    while isinstance(node, Project) and not node.distinct:
        projects.append(node)
        node = node.child
    return projects, node


def _pushdown_site(
    node: Select, database: Database
) -> Optional[Tuple[PlanNode, Tuple[Tuple[str, str], ...]]]:
    projects, core = _peel_projects(node.child)
    if not isinstance(core, GroupApply):
        return None
    group = core
    # Resolution happens against the filter's direct input (the top of the
    # projection chain, if any): π passes resolved names through, so a
    # reference landing on a grouping key above still lands on it below.
    try:
        out_schema = infer_schema(node.child, database)
        child_schema = infer_schema(group.child, database)
    except Exception:
        return None
    pushed: List[Expression] = []
    residual: List[Expression] = []
    for conjunct in split_conjuncts(node.condition):
        requalified = _requalify_pushable(
            conjunct, group.grouping_columns, out_schema, child_schema
        )
        if requalified is None:
            residual.append(conjunct)
        else:
            pushed.append(requalified)
    if not pushed:
        return None
    pushed_condition = conjoin(pushed)
    assert pushed_condition is not None
    rewritten: PlanNode = GroupApply(
        Select(group.child, pushed_condition),
        group.grouping_columns,
        group.aggregates,
    )
    for project in reversed(projects):
        rewritten = Project(rewritten, project.columns, project.distinct)
    residual_condition = conjoin(residual)
    if residual_condition is not None:
        rewritten = Select(rewritten, residual_condition)
    canonical = _canonical_keys(group.grouping_columns, child_schema)
    premises: List[Tuple[str, str]] = [
        ("grouping-keys", ", ".join(group.grouping_columns) or "(none)"),
    ]
    for conjunct in pushed:
        premises.append(("pushed", str(conjunct)))
        premises.append(
            ("keys-only", f"{conjunct}: references only grouping keys")
        )
        premises.append(
            ("aggregate-guard", f"{conjunct}: no aggregate or alias reference")
        )
    for conjunct in residual:
        premises.append(("residual", str(conjunct)))
    premises.extend(null_rejection_premises(pushed, canonical))
    return rewritten, tuple(premises)


def _find_pushdown(plan: PlanNode, database: Database) -> Optional[_Step]:
    """Rewrite the first (pre-order) pushable filter-over-group site."""
    found: List[_Step] = []

    def recurse(node: PlanNode, prefix: str) -> PlanNode:
        if found:
            return node
        if isinstance(node, Select):
            site = _pushdown_site(node, database)
            if site is not None:
                rewritten, premises = site
                found.append(_Step(rewritten, node_path(prefix, node), premises))
                return rewritten
        children = node.children()
        if not children:
            return node
        rebuilt = tuple(
            recurse(child, f"{prefix}.{index}")
            for index, child in enumerate(children)
        )
        if all(new is old for new, old in zip(rebuilt, children)):
            return node
        return with_children(node, rebuilt)

    new_plan = recurse(plan, "$")
    if not found:
        return None
    step = found[0]
    return _Step(new_plan, step.path, step.premises)


# ---------------------------------------------------------------------------
# cost-based join reordering
# ---------------------------------------------------------------------------


def _leaf_aliases(leaf: PlanNode, database: Database) -> Optional[Set[str]]:
    try:
        schema = infer_schema(leaf, database)
    except Exception:
        return None
    aliases = {
        name.rsplit(".", 1)[0]
        for name in (column.name for column in schema.columns)
        if "." in name
    }
    return aliases or None


def _region_costable(leaves: Sequence[PlanNode]) -> bool:
    for leaf in leaves:
        for node in walk_plan(leaf):
            if isinstance(node, Sort):
                return False
            if isinstance(node, Apply) and not isinstance(node.child, Group):
                return False
    return True


@dataclass
class _GreedyResult:
    plan: PlanNode
    order: Tuple[int, ...]


def _greedy_order(
    leaves: Sequence[PlanNode],
    aliases: Sequence[Set[str]],
    conjuncts: Sequence[Expression],
    estimator,
) -> Optional[_GreedyResult]:
    """Greedy smallest-intermediate-result ordering of a join region.

    Starts from the leaf whose filtered scan is smallest, then repeatedly
    adds the leaf minimizing the estimated rows of the growing join,
    placing every conjunct at the earliest scope that binds its tables
    (single-leaf conjuncts as a ``σ`` on the leaf, multi-leaf ones on the
    join that first completes their scope).
    """
    remaining = list(range(len(conjuncts)))

    def leaf_filter(index: int) -> Tuple[PlanNode, List[int]]:
        taken = [
            position
            for position in remaining
            if referenced_tables(conjuncts[position])
            and referenced_tables(conjuncts[position]) <= aliases[index]
        ]
        if not taken:
            return leaves[index], []
        condition = conjoin([conjuncts[position] for position in taken])
        assert condition is not None
        return Select(leaves[index], condition), taken

    try:
        starts = []
        for index in range(len(leaves)):
            candidate, _ = leaf_filter(index)
            starts.append((estimator.rows(candidate), index))
        start = min(starts)[1]
        tree, taken = leaf_filter(start)
        for position in taken:
            remaining.remove(position)
        scope = set(aliases[start])
        order = [start]
        todo = [index for index in range(len(leaves)) if index != start]
        while todo:
            best: Optional[Tuple[float, int, PlanNode, List[int]]] = None
            for index in todo:
                leaf_tree, leaf_taken = leaf_filter(index)
                new_scope = scope | aliases[index]
                join_positions = [
                    position
                    for position in remaining
                    if position not in leaf_taken
                    and referenced_tables(conjuncts[position]) <= new_scope
                ]
                condition = conjoin(
                    [conjuncts[position] for position in join_positions]
                )
                candidate = Join(tree, leaf_tree, condition)
                rows = estimator.rows(candidate)
                if best is None or rows < best[0]:
                    best = (rows, index, candidate, leaf_taken + join_positions)
            assert best is not None
            _, index, tree, consumed = best
            for position in consumed:
                remaining.remove(position)
            scope |= aliases[index]
            order.append(index)
            todo.remove(index)
        leftover = conjoin([conjuncts[position] for position in remaining])
        if leftover is not None:
            tree = Select(tree, leftover)
        return _GreedyResult(tree, tuple(order))
    except Exception:
        return None


def _try_reorder_region(
    region: PlanNode, database: Database, estimator, cost_model
) -> Optional[Tuple[PlanNode, Tuple[Tuple[str, str], ...]]]:
    leaves, conjuncts = collect_join_region(region)
    if len(leaves) < 2:
        return None
    if not _region_costable(leaves):
        return None
    for conjunct in conjuncts:
        if any(not ref.table for ref in column_refs(conjunct)):
            return None  # bare references make scope placement unsafe
    aliases: List[Set[str]] = []
    for leaf in leaves:
        leaf_aliases = _leaf_aliases(leaf, database)
        if leaf_aliases is None:
            return None
        aliases.append(leaf_aliases)
    all_aliases: Set[str] = set().union(*aliases)
    for conjunct in conjuncts:
        if not referenced_tables(conjunct) <= all_aliases:
            return None
    result = _greedy_order(leaves, aliases, conjuncts, estimator)
    if result is None or result.plan == region:
        return None
    try:
        cost_before = cost_model.cost(region).total
        cost_after = cost_model.cost(result.plan).total
    except Exception:
        return None
    if not cost_after < cost_before * (1.0 - 1e-9):
        return None
    premises: List[Tuple[str, str]] = [
        ("leaves-before", " , ".join(leaf.label() for leaf in leaves)),
        (
            "leaves-after",
            " , ".join(leaves[index].label() for index in result.order),
        ),
        ("cost-before", f"{cost_before:.6f}"),
        ("cost-after", f"{cost_after:.6f}"),
        ("join-algorithm", cost_model.join_algorithm),
    ]
    for conjunct in conjuncts:
        premises.append(("conjunct", str(conjunct)))
    premises.append(
        ("order-insulation", "region output order consumed by π/F G ancestor")
    )
    return result.plan, tuple(premises)


def _find_reorder(
    plan: PlanNode, database: Database, estimator, cost_model
) -> Optional[_Step]:
    """Rewrite the first improvable order-insulated join region."""
    found: List[_Step] = []

    def region_rooted(node: PlanNode) -> bool:
        core = node
        while isinstance(core, Select):
            core = core.child
        return isinstance(core, (Join, Product))

    def recurse(node: PlanNode, prefix: str, insulated: bool) -> PlanNode:
        if found:
            return node
        if insulated and region_rooted(node):
            attempt = _try_reorder_region(node, database, estimator, cost_model)
            if attempt is not None:
                rewritten, premises = attempt
                found.append(_Step(rewritten, node_path(prefix, node), premises))
                return rewritten
        children = node.children()
        if not children:
            return node
        child_insulated = insulated or isinstance(
            node, (Project, GroupApply, Apply)
        )
        rebuilt = tuple(
            recurse(child, f"{prefix}.{index}", child_insulated)
            for index, child in enumerate(children)
        )
        if all(new is old for new, old in zip(rebuilt, children)):
            return node
        return with_children(node, rebuilt)

    new_plan = recurse(plan, "$", False)
    if not found:
        return None
    step = found[0]
    return _Step(new_plan, step.path, step.premises)


# ---------------------------------------------------------------------------
# projection pruning
# ---------------------------------------------------------------------------


def _resolve_names(
    names: Iterable[str], schema: PlanSchema
) -> Optional[Set[str]]:
    """Resolve each name against ``schema``; ``None`` when any fails."""
    resolved: Set[str] = set()
    for name in names:
        try:
            info = schema.resolve(name)
        except AmbiguousColumn:
            return None
        if info is None:
            return None
        resolved.add(info.name)
    return resolved


def _expression_names(expression: Optional[Expression]) -> List[str]:
    if expression is None:
        return []
    return [ref.qualified for ref in column_refs(expression)]


@dataclass
class _PruneState:
    schemas: Dict[int, PlanSchema]
    notes: List[Tuple[str, str]] = field(default_factory=list)


def _prune_plan(plan: PlanNode, database: Database) -> Optional[_Step]:
    """One pruning pass over the whole plan; ``None`` when nothing changed."""
    try:
        schemas = infer_schemas(plan, database)
    except Exception:
        return None
    state = _PruneState(schemas)

    def names_of(node: PlanNode) -> Tuple[str, ...]:
        return tuple(column.name for column in state.schemas[id(node)].columns)

    def schema_of(node: PlanNode) -> PlanSchema:
        return state.schemas[id(node)]

    def widen(live: Optional[Set[str]], extra: Optional[Set[str]]) -> Optional[Set[str]]:
        if live is None or extra is None:
            return None
        return live | extra

    def guard(pruned: PlanNode, original: PlanNode, live: Optional[Set[str]], prefix: str) -> PlanNode:
        """Insert a narrowing ``π`` below a wide operator when live ⊊ schema."""
        if live is None:
            return pruned
        if isinstance(original, Project) and not original.distinct:
            return pruned  # recurse() already narrowed the projection itself
        names = names_of(original)
        kept = tuple(name for name in names if name in live)
        if not kept or len(kept) == len(names):
            return pruned
        dropped = tuple(name for name in names if name not in live)
        state.notes.append(
            (
                "pruned",
                f"{node_path(prefix, original)}: kept [{', '.join(kept)}];"
                f" dropped [{', '.join(dropped)}]",
            )
        )
        return Project(pruned, kept)

    def recurse(node: PlanNode, live: Optional[Set[str]], prefix: str) -> PlanNode:
        if isinstance(node, Relation):
            return node
        if isinstance(node, Select):
            need = widen(live, _resolve_names(_expression_names(node.condition), schema_of(node.child)))
            child = recurse(node.child, need, f"{prefix}.0")
            return node if child is node.child else Select(child, node.condition)
        if isinstance(node, Sort):
            need = widen(live, _resolve_names(node.columns, schema_of(node.child)))
            child = recurse(node.child, need, f"{prefix}.0")
            return (
                node
                if child is node.child
                else Sort(child, node.columns, node.descending)
            )
        if isinstance(node, Project):
            columns = node.columns
            if live is not None and not node.distinct:
                names = names_of(node)
                narrowed = tuple(
                    column
                    for column, name in zip(node.columns, names)
                    if name in live
                )
                if narrowed and len(narrowed) < len(columns):
                    columns = narrowed
                    state.notes.append(
                        (
                            "narrowed",
                            f"{node_path(prefix, node)}: kept"
                            f" [{', '.join(columns)}]",
                        )
                    )
            need = _resolve_names(columns, schema_of(node.child))
            child = recurse(node.child, need, f"{prefix}.0")
            if child is node.child and columns == node.columns:
                return node
            return Project(child, columns, node.distinct)
        if isinstance(node, (Join, Product)):
            needed: Optional[Set[str]]
            if live is None:
                needed = None
            else:
                needed = set(live)
                if isinstance(node, Join) and node.condition is not None:
                    needed = widen(
                        needed,
                        _resolve_names(
                            _expression_names(node.condition), schema_of(node)
                        ),
                    )
            left_names = names_of(node.left)
            right_names = names_of(node.right)
            combined = list(left_names) + list(right_names)
            if needed is not None and len(set(combined)) != len(combined):
                needed = None  # duplicate output names: side split is unsafe
            left_live = (
                None if needed is None else {n for n in left_names if n in needed}
            )
            right_live = (
                None if needed is None else {n for n in right_names if n in needed}
            )
            left = guard(
                recurse(node.left, left_live, f"{prefix}.0"),
                node.left,
                left_live,
                f"{prefix}.0",
            )
            right = guard(
                recurse(node.right, right_live, f"{prefix}.1"),
                node.right,
                right_live,
                f"{prefix}.1",
            )
            if left is node.left and right is node.right:
                return node
            if isinstance(node, Join):
                return Join(left, right, node.condition)
            return Product(left, right)
        if isinstance(node, GroupApply):
            needs = list(node.grouping_columns)
            for spec in node.aggregates:
                needs.extend(_expression_names(spec.expression))
            child_live = _resolve_names(needs, schema_of(node.child))
            child = guard(
                recurse(node.child, child_live, f"{prefix}.0"),
                node.child,
                child_live,
                f"{prefix}.0",
            )
            if child is node.child:
                return node
            return GroupApply(child, node.grouping_columns, node.aggregates)
        if isinstance(node, Group):
            need = widen(
                live, _resolve_names(node.grouping_columns, schema_of(node.child))
            )
            child = recurse(node.child, need, f"{prefix}.0")
            return node if child is node.child else Group(child, node.grouping_columns)
        if isinstance(node, Apply):
            child = recurse(node.child, None, f"{prefix}.0")
            return node if child is node.child else Apply(child, node.aggregates)
        return node

    new_plan = recurse(plan, None, "$")
    if new_plan == plan:
        return None
    premises = tuple(state.notes) or (("pruned", "(no columns dropped)"),)
    return _Step(new_plan, node_path("$", plan), premises)


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------


def apply_rewrites(
    plan: PlanNode,
    database: Database,
    rewrites: object = REWRITE_RULES,
    *,
    statistics=None,
    join_algorithm: str = "hash",
    verify: bool = True,
    max_steps: int = 16,
) -> RewriteOutcome:
    """Apply the enabled certified rewrites to ``plan``.

    The plan is fused first (``Apply ∘ Group`` → ``F G``) so the rules see
    the canonical shape.  Rules run in :data:`REWRITE_RULES` order; each
    site rewritten yields one :class:`RuleCertificate` carrying full
    before/after plans.  With ``verify=True`` (the default) every
    certificate is re-checked by the independent equivalence checker and a
    failure raises :class:`~repro.errors.TransformationError` — a bug in
    the rewriter can never silently alter query results.
    """
    enabled = normalize_rewrites(rewrites)
    original = plan
    current = fuse_group_apply(plan)
    certificates: List[RuleCertificate] = []

    def record(rule: str, step: _Step, before: PlanNode) -> None:
        certificates.append(
            RuleCertificate(rule, step.path, before, step.plan, step.premises)
        )

    if "predicate_pushdown" in enabled:
        for _ in range(max_steps):
            step = _find_pushdown(current, database)
            if step is None:
                break
            record("predicate_pushdown", step, current)
            current = step.plan

    if "join_reordering" in enabled:
        try:
            estimator = CardinalityEstimator(database, statistics)
            cost_model = CostModel(estimator, join_algorithm=join_algorithm)
        except Exception:
            estimator = cost_model = None
        if estimator is not None:
            for _ in range(max_steps):
                step = _find_reorder(current, database, estimator, cost_model)
                if step is None:
                    break
                record("join_reordering", step, current)
                current = step.plan

    if "projection_pruning" in enabled:
        step = _prune_plan(current, database)
        if step is not None:
            record("projection_pruning", step, current)
            current = step.plan

    if verify:
        raise_on_errors(
            (
                diagnostic
                for certificate in certificates
                for diagnostic in verify_rewrite(database, certificate)
            ),
            "certified rewrite failed its own audit",
        )

    carry_evidence(original, current)
    object.__setattr__(current, APPLIED_REWRITES_ATTR, enabled)
    return RewriteOutcome(current, tuple(certificates))


def apply_configured_rewrites(
    plan: PlanNode, database: Database, config
) -> RewriteOutcome:
    """:func:`apply_rewrites` as an ``ExecutorConfig`` asks for it: the
    config's rule set, costed for the join algorithm the executor will run
    (``"auto"`` resolves to hash)."""
    algorithm = config.join_algorithm
    return apply_rewrites(
        plan,
        database,
        config.rewrites,
        join_algorithm="hash" if algorithm == "auto" else algorithm,
    )
