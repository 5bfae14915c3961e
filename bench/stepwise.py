"""``Session.report`` taken one public call at a time, a span around each.

This mirrors ``repro.session.Session._run_select_unordered`` for the
statements the workloads use (grouped SELECTs without views, subqueries or
ORDER BY): parse, bind, partition into R1/R2, build the planner (which
scans every column for statistics), choose E1 or E2, apply the certified
rewrites, distribute over shards, execute.  The traced run checks every
stepwise result against ``Session.report``'s and requires the spans to
cover the untraced latency (``trace.coverage``); when either fails, this
file has drifted from ``session.py`` and must be brought back in line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.algebra.ops import GroupApply, Join, Relation, fuse_group_apply, walk_plan
from repro.analysis.certificates import attach_certificate, get_certificate
from repro.core.having import grouped_plan_with_having
from repro.core.partition import to_group_by_join_query
from repro.core.planbuild import build_join_tree
from repro.core.testfd import test_fd
from repro.core.transform import normalize_having
from repro.engine.executor import Executor
from repro.errors import TransformationError
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.distribute import distribute_plan, distribution_certificate
from repro.optimizer.planner import Planner
from repro.optimizer.rewrites import apply_rewrites
from repro.parser.binder import bind_select
from repro.parser.parser import parse_statement

from bench.harness import Tracer


@dataclass
class Step:
    """One statement's stepwise outcome: the result and the exact counts
    read at the same boundaries the spans were taken."""

    result: object
    stats: object
    plan: object
    testfd_yes: bool
    eager: bool
    rewrites_applied: int
    two_phase: bool
    base_rows: int
    qerrors: List[float]


def run_statement(
    database, sql: str, config, policy: str, tracer: Tracer, op: int, stmt: str
) -> Step:
    tags = {"op": op, "stmt": stmt}
    with tracer.span("session.statement", **tags):
        with tracer.span("parser.parse", **tags):
            statement = parse_statement(sql)
        with tracer.span("binder.bind", **tags):
            flat = bind_select(database, statement)
            try:
                query = to_group_by_join_query(flat)
            except TransformationError:
                query = None  # no R1/R2 partition: standard plan directly
        choice = None
        estimator: Optional[CardinalityEstimator] = None
        if query is None:
            with tracer.span("core.planbuild", **tags):
                tree = build_join_tree(flat.bindings, flat.where)
                columns = flat.select_group_columns + tuple(
                    spec.name for spec in flat.aggregates
                )
                plan = fuse_group_apply(
                    grouped_plan_with_having(
                        tree, flat.group_by, flat.aggregates, flat.having,
                        columns, flat.distinct,
                    )
                )
        else:
            with tracer.span("cardinality.collect", **tags):
                planner = Planner(
                    database, policy=policy, engine=config.engine,
                    workers=config.workers,
                )
            estimator = planner.estimator
            with tracer.span("planner.choose", **tags):
                choice = planner.choose(query)
            plan = fuse_group_apply(choice.plan)
            if plan is not choice.plan:
                certificate = get_certificate(choice.plan)
                if certificate is not None:
                    attach_certificate(plan, certificate)
        applied = 0
        if config.rewrites:
            algorithm = config.join_algorithm
            with tracer.span("rewrites.apply", **tags):
                outcome = apply_rewrites(
                    fuse_group_apply(plan), database, config.rewrites,
                    join_algorithm="hash" if algorithm == "auto" else algorithm,
                )
            plan, applied = outcome.plan, len(outcome.certificates)
        if config.shards > 1 and config.exchange != "off":
            with tracer.span("distribute.plan", **tags):
                plan = distribute_plan(plan, database, config)
        with tracer.span("engine.exec", **tags):
            executor = Executor(database, config, None)
            result, stats = executor.run(plan)
        plan = executor.executed_plan
    distribution = distribution_certificate(plan)
    return Step(
        result=result,
        stats=stats,
        plan=plan,
        testfd_yes=bool(choice is not None and choice.decision.valid),
        eager=bool(choice is not None and choice.strategy == "eager"),
        rewrites_applied=applied,
        two_phase=bool(
            distribution is not None
            and distribution.premise_values("strategy") == ("two-phase",)
        ),
        base_rows=base_rows(database, plan),
        qerrors=qerrors(
            estimator or CardinalityEstimator(database), plan, stats
        ),
    )


def probe_testfd(database, sql: str, tracer: Tracer, op: int, stmt: str) -> None:
    """Time ``test_fd`` on its own.  ``Planner.choose`` runs it inside its
    span; this probe sits outside the statement span so the tree's times
    stay additive."""
    flat = bind_select(database, parse_statement(sql))
    try:
        query = normalize_having(to_group_by_join_query(flat))
    except TransformationError:
        return
    with tracer.span("core.testfd", op=op, stmt=stmt, probe=True):
        test_fd(database, query)


def base_rows(database, plan) -> int:
    """Stored rows under the plan's scans: what rows-per-second counts."""
    return sum(
        len(database.table(node.table_name))
        for node in walk_plan(plan)
        if isinstance(node, Relation)
    )


def qerrors(estimator: CardinalityEstimator, plan, stats) -> List[float]:
    """Estimated against actual rows at every Join and GroupApply that
    executed here (operators below an Exchange run in the shard workers and
    leave no local statistics)."""
    errors = []
    for node in walk_plan(plan):
        observed = stats.nodes.get(id(node))
        if observed is None or not isinstance(node, (Join, GroupApply)):
            continue
        estimate = max(estimator.rows(node), 1.0)
        actual = max(float(observed.output_cardinality), 1.0)
        errors.append(max(estimate / actual, actual / estimate))
    return errors
