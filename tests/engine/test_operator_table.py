"""One body per operator: every execution path reads the operator table.

(i) The row body registered in :data:`repro.engine.operators.OPERATORS` is
the one the row engine runs, the one a faulted vector kernel falls back
to, the one a kernel without an array path hands its inputs to, and the
one a degraded streamed segment replays through — with the statistics of
the unfaulted run each time.  (ii) Nothing else under
``src/repro/engine/`` calls the operator implementations directly, nothing
under ``engine/vector/`` but ``grouping.py`` folds values per group, nothing
there but ``compile.py`` turns truth codes into rows, and
``vector/kernels.py`` spells none of the row bodies' value semantics.
(iii) The benchmarked statements and plans reach no row body on the vector
engine when numpy is there.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

import repro.engine
from repro.algebra.ops import AggregateSpec, GroupApply, Join, Relation, Select
from repro.catalog.catalog import Database
from repro.catalog.schema import Column, TableSchema
from repro.engine import faults
from repro.engine.executor import ExecutorConfig, execute
from repro.engine.operators import OPERATORS
from repro.engine.stats import NodeStats
from repro.engine.vector.batch import _np
from tests.engine.differential import stats_signature
from repro.expressions.builder import col, count_star, eq, gt, sum_
from repro.sqltypes.datatypes import INTEGER


def make_db() -> Database:
    db = Database()
    db.create_table(TableSchema("T", [Column("k", INTEGER), Column("v", INTEGER)]))
    db.create_table(TableSchema("D", [Column("k", INTEGER), Column("w", INTEGER)]))
    for i in range(200):
        db.table("T").insert([i % 9, i])
    for k in range(9):
        db.table("D").insert([k, k * 10])
    return db


def make_plan() -> GroupApply:
    joined = Join(Relation("T", "T"), Relation("D", "D"), eq(col("T.k"), col("D.k")))
    return GroupApply(
        Select(joined, gt(col("T.v"), 10)),
        ["T.k"],
        [AggregateSpec("n", count_star()), AggregateSpec("s", sum_("T.v"))],
    )


def the_node(plan: GroupApply, node_type: type):
    return {GroupApply: plan, Select: plan.child, Join: plan.child.child}[node_type]


@pytest.mark.parametrize("node_type", [Select, Join, GroupApply])
def test_every_path_runs_the_one_row_body(monkeypatch, node_type):
    operator = OPERATORS[node_type]
    calls = []

    def counting_row(node, inputs, env, governor):
        calls.append(type(env).__name__)
        return operator.row(node, inputs, env, governor)

    monkeypatch.setitem(
        OPERATORS, node_type, dataclasses.replace(operator, row=counting_row)
    )
    db = make_db()
    label = the_node(make_plan(), node_type).label()

    def run(**config):
        return execute(db, make_plan(), ExecutorConfig(**config))

    def kernel_fault():
        return faults.FaultSpec("kernel", engine="vector", label=label)

    # The row engine.
    expected, row_stats = run(engine="row")
    signature = stats_signature(row_stats)
    assert calls == ["Executor"]
    # Without numpy the join kernel has no array path: an unfaulted vector
    # run hands the join to the row body, uncounted, with the same stats.
    handed = ["VectorExecutor"] if node_type is Join and _np is None else []

    # A materialized vector run: unfaulted it never touches the row body
    # unless handed; with a kernel fault at the operator it falls back to
    # exactly it.
    materialized = {"engine": "vector", "morsel_size": None}
    __, clean_stats = run(**materialized)
    assert calls == ["Executor", *handed] and clean_stats.degradations == 0
    assert stats_signature(clean_stats) == signature
    with faults.inject(kernel_fault()):
        result, stats = run(**materialized)
    assert calls == ["Executor", *handed, "VectorExecutor"]
    assert stats.degradations == 1
    assert result.equals_multiset(expected)
    assert stats_signature(stats) == signature == stats_signature(clean_stats)

    # A streamed run (13 morsels).  Select and GroupApply are fused into
    # the segment: the first fault degrades the whole segment, the second
    # hits the operator again inside the materialized replay, which falls
    # back to the same row body.  The Join is the segment's source and
    # degrades on its own.
    streamed = {"engine": "vector", "morsel_size": 16}
    __, clean_stats = run(**streamed)
    assert clean_stats.pipelines.morsels > 1 and clean_stats.degradations == 0
    planted = [kernel_fault()] if node_type is Join else [kernel_fault()] * 2
    with faults.inject(*planted) as injector:
        result, stats = run(**streamed)
    assert len(injector.fired) == len(planted)
    assert calls == ["Executor", *handed, "VectorExecutor", *handed, "VectorExecutor"]
    assert stats.degradations == len(planted)
    assert result.equals_multiset(expected)
    assert stats_signature(stats) == signature == stats_signature(clean_stats)


# -- (ii) one call site per operator implementation ----------------------------

ENGINE_ROOT = Path(repro.engine.__file__).parent
#: The implementations themselves.
EXEMPT = {"joins.py", "aggregation.py", "sorting.py"}
SINGLE_CALL_SITE = (
    "hash_join", "sort_merge_join", "nested_loop_join", "sort_group",
    "filter_batch", "project_batch", "evaluate_predicate",
)


def engine_sources():
    for path in sorted(ENGINE_ROOT.rglob("*.py")):
        relative = path.relative_to(ENGINE_ROOT).as_posix()
        if relative not in EXEMPT:
            yield relative, ast.parse(path.read_text())


def call_sites(name: str):
    sites = []
    for relative, tree in engine_sources():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = getattr(func, "attr", None) or getattr(func, "id", None)
            if called == name:
                sites.append(f"{relative}:{node.lineno}")
    return sites


@pytest.mark.parametrize("name", SINGLE_CALL_SITE)
def test_operator_implementation_has_one_call_site(name):
    sites = call_sites(name)
    assert len(sites) == 1, sites
    assert sites[0].startswith("operators.py:")


#: What folding values per group is made of: numpy's per-group reductions
#: and the NULL-propagating add/divide of the arbitrary-precision fold.
FOLD_PRIMITIVES = ("bincount", "reduceat", "at", "sql_add", "sql_div")


@pytest.mark.parametrize("name", FOLD_PRIMITIVES)
def test_the_grouped_fold_is_spelled_once(name):
    """Under ``engine/vector/`` only ``grouping.py`` folds values per
    group: a second spelling is how one of them came to lack a fast path."""
    elsewhere = [
        site
        for site in call_sites(name)
        if site.startswith("vector/") and not site.startswith("vector/grouping.py:")
    ]
    assert elsewhere == []
    if name != "sql_div":  # AVG divides in aggregation.finish_average
        assert any(site.startswith("vector/grouping.py:") for site in call_sites(name))


def test_truth_codes_become_a_selection_in_one_place():
    """Under ``engine/vector/`` only ``compile.py`` turns truth codes into
    rows (``compile_selection``): a filter that spells it again skips the
    mask path."""
    spelled = sorted(
        path.relative_to(ENGINE_ROOT).as_posix()
        for path in (ENGINE_ROOT / "vector").glob("*.py")
        if "code == TRUE_CODE" in path.read_text()
    )
    assert spelled == ["vector/compile.py"]


#: The row bodies' value semantics: what a Python join, sort or distinct
#: loop is made of.
ROW_SEMANTICS = ("sort_key", "group_key", "nan_keyed", "evaluate_predicate")


@pytest.mark.parametrize("name", ROW_SEMANTICS)
def test_the_kernels_spell_no_row_body(name):
    """``vector/kernels.py`` keeps array paths only; an input without one
    is handed to the row body, which is the one Python spelling."""
    assert [
        site for site in call_sites(name) if site.startswith("vector/kernels.py:")
    ] == []


def test_node_stats_is_built_in_one_place():
    [site] = call_sites(NodeStats.__name__)
    assert site.startswith("stats.py:")  # ExecutionStats.record_node


# -- (iii) what the benchmark reaches ------------------------------------------


@pytest.mark.skipif(_np is None, reason="without numpy joins and sorts are handed off")
def test_the_benchmarked_statements_reach_no_row_body(monkeypatch):
    """The six ``star_sql`` statements and the ``plan_exec`` plans, set up
    and warmed as the benchmark does, run every operator on a kernel."""
    from bench.workloads import plan_exec, star_sql

    reached = []
    for node_type, operator in list(OPERATORS.items()):
        def counting_row(node, inputs, env, governor, operator=operator):
            reached.append(node.label())
            return operator.row(node, inputs, env, governor)

        monkeypatch.setitem(
            OPERATORS, node_type, dataclasses.replace(operator, row=counting_row)
        )
    star_sql.StarSql().setup(seed=1, sizes=star_sql.FULL)
    context = plan_exec.setup(seed=1, sizes=plan_exec.QUICK)
    for plan in plan_exec.PLANS:
        plan_exec.execute(context, plan)
    assert reached == []
