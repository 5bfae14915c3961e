"""Output-schema inference for every operator of the SQL2 algebra.

Each :class:`~repro.algebra.ops.PlanNode` gets a typed, nullability-aware
output schema inferred bottom-up from the catalog — without executing the
plan.  This is the foundation the verifier's scope-resolution pass stands
on: a column reference is *bound* iff the child's inferred schema resolves
it.

Structural problems found during inference (unknown tables, unbound
projection/grouping columns, Apply over a non-grouped input) are reported
into an optional :class:`~repro.analysis.diagnostics.DiagnosticSink`; the
inference itself is total — a best-effort schema is always produced so one
defect does not mask every defect above it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra.ops import (
    AggregateSpec,
    Apply,
    Exchange,
    Group,
    GroupApply,
    Join,
    PlanNode,
    Product,
    Project,
    Relation,
    Select,
    Sort,
)
from repro.analysis.columns import AmbiguousColumn, ColumnInfo, PlanSchema
from repro.analysis.diagnostics import DiagnosticSink
from repro.analysis.typecheck import aggregate_output
from repro.catalog.catalog import Database
from repro.errors import CatalogError


def relation_schema(node: Relation, database: Database) -> PlanSchema:
    """Schema of a base-table scan, columns qualified by correlation name.

    Raises :class:`~repro.errors.CatalogError` for an unknown table.
    """
    table = database.table(node.table_name)
    correlation = node.correlation
    return PlanSchema(
        tuple(
            ColumnInfo(
                f"{correlation}.{column.name}", column.datatype, column.nullable
            )
            for column in table.schema.columns
        )
    )


def node_path(prefix: str, node: PlanNode) -> str:
    """The ``$.i:label`` breadcrumb diagnostics and certificates name a node by."""
    label = node.label()
    if len(label) > 60:
        label = label[:57] + "..."
    return f"{prefix}:{label}"


def _aggregate_columns(
    specs: Sequence[AggregateSpec], input_schema: PlanSchema
) -> Tuple[ColumnInfo, ...]:
    """Output columns contributed by F[AA], typed via the type checker."""
    return tuple(aggregate_output(spec, input_schema) for spec in specs)


def _grouping_columns(
    names: Sequence[str],
    input_schema: PlanSchema,
    sink: Optional[DiagnosticSink],
    path: str,
) -> Tuple[ColumnInfo, ...]:
    resolved: List[ColumnInfo] = []
    for name in names:
        try:
            info = input_schema.resolve(name)
        except AmbiguousColumn:
            info = None
            if sink is not None:
                sink.report(
                    "A004", path, f"grouping column {name!r} is ambiguous in "
                    f"[{', '.join(input_schema.names())}]"
                )
        if info is None:
            resolved.append(ColumnInfo(name))
            if sink is not None:
                sink.report(
                    "G102",
                    path,
                    f"grouping column {name!r} is not produced by the input "
                    f"(columns: {', '.join(input_schema.names()) or '(none)'})",
                    hint="group on columns of the operator's input schema",
                )
        else:
            resolved.append(ColumnInfo(name, info.datatype, info.nullable))
    return tuple(resolved)


def infer_schemas(
    plan: PlanNode,
    database: Database,
    sink: Optional[DiagnosticSink] = None,
) -> Dict[int, PlanSchema]:
    """Infer the output schema of every node in ``plan``.

    Returns a map from ``id(node)`` to its :class:`PlanSchema` (the same
    keying the executor's statistics use).  Structural schema defects are
    reported into ``sink`` when one is given.
    """
    schemas: Dict[int, PlanSchema] = {}

    def recurse(node: PlanNode, prefix: str) -> PlanSchema:
        path = node_path(prefix, node)
        child_schemas = [
            recurse(child, f"{prefix}.{i}")
            for i, child in enumerate(node.children())
        ]
        schema = _infer_one(node, child_schemas, path)
        schemas[id(node)] = schema
        duplicates = schema.duplicate_names() if sink is not None else ()
        if duplicates:
            sink.report(
                "A003",
                path,
                f"duplicate output columns: {', '.join(duplicates)}",
                hint="alias one side of the join or project the duplicates away",
            )
        return schema

    def _infer_one(
        node: PlanNode, child_schemas: List[PlanSchema], path: str
    ) -> PlanSchema:
        if isinstance(node, Relation):
            try:
                return relation_schema(node, database)
            except CatalogError as error:
                if sink is not None:
                    sink.report(
                        "A002", path, str(error),
                        hint="create the table or fix the Relation leaf",
                    )
                return PlanSchema(())
        if isinstance(node, (Select, Sort, Exchange)):
            # Exchange is schema-transparent: the merged stream has exactly
            # the child's columns (partials are an execution detail).
            return child_schemas[0]
        if isinstance(node, Project):
            resolved: List[ColumnInfo] = []
            for name in node.columns:
                try:
                    info = child_schemas[0].resolve(name)
                except AmbiguousColumn:
                    info = None
                    if sink is not None:
                        sink.report(
                            "A004", path,
                            f"projected column {name!r} is ambiguous in "
                            f"[{', '.join(child_schemas[0].names())}]",
                        )
                if info is None:
                    resolved.append(ColumnInfo(name))
                    if sink is not None:
                        sink.report(
                            "A001",
                            path,
                            f"projected column {name!r} is not produced by the "
                            "input "
                            f"(columns: {', '.join(child_schemas[0].names()) or '(none)'})",
                            hint="project only columns of the input schema",
                        )
                else:
                    resolved.append(info)
            return PlanSchema(tuple(resolved))
        if isinstance(node, (Product, Join)):
            return PlanSchema(child_schemas[0].columns + child_schemas[1].columns)
        if isinstance(node, Group):
            _grouping_columns(node.grouping_columns, child_schemas[0], sink, path)
            # A grouped table carries all input columns (G only orders them).
            return child_schemas[0]
        if isinstance(node, Apply):
            if isinstance(node.child, Group):
                # The Group node already reported unbound grouping columns;
                # resolve silently here to build the output schema.
                grouping = _grouping_columns(
                    node.child.grouping_columns, child_schemas[0], None, path
                )
            else:
                grouping = ()
                if sink is not None:
                    sink.report(
                        "G101",
                        path,
                        f"Apply over {type(node.child).__name__}: F[AA] is only "
                        "defined on a grouped table",
                        hint="insert a Group (G[GA]) beneath the Apply, or use "
                        "GroupApply",
                    )
            return PlanSchema(
                grouping + _aggregate_columns(node.aggregates, child_schemas[0])
            )
        if isinstance(node, GroupApply):
            grouping = _grouping_columns(
                node.grouping_columns, child_schemas[0], sink, path
            )
            return PlanSchema(
                grouping + _aggregate_columns(node.aggregates, child_schemas[0])
            )
        raise TypeError(f"cannot infer a schema for {type(node).__name__}")

    recurse(plan, "$")
    return schemas


def infer_schema(plan: PlanNode, database: Database) -> PlanSchema:
    """The root output schema of ``plan`` (best effort, never raises on
    semantic defects — pair with the verifier to get the diagnostics)."""
    return infer_schemas(plan, database)[id(plan)]
