"""``plan_exec``: pre-built plans straight into the vector executor.

No parser and no planner: execution is all of the time, so kernel and
morsel changes show here and planner changes must not.  The E1/E2 pairs
are the paper's trade-off in measured form — the star per-customer report
(eager wins) and Figure 8 / Example 4 (a selective join under a
high-cardinality grouping column, eager loses).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.algebra.ops import (
    AggregateSpec,
    Apply,
    Group,
    GroupApply,
    Join,
    Relation,
    Sort,
)
from repro.catalog import Column, Database, PrimaryKeyConstraint, TableSchema
from repro.core.query_class import GroupByJoinQuery
from repro.core.transform import build_eager_plan, build_standard_plan
from repro.engine.executor import Executor, ExecutorConfig
from repro.expressions.builder import col, eq, max_, min_, sum_
from repro.fd.derivation import TableBinding
from repro.optimizer.planner import Planner
from repro.sqltypes import INTEGER
from repro.workloads.schemas import make_retail_star

from bench import datagen, stepwise
from bench.harness import (
    WARMUP_OPS,
    Options,
    Outcome,
    Tracer,
    closed_loop,
    end_to_end,
    measure_setup,
    median,
    paired_ratio,
    paired_rounds,
    peak_rss_mb,
    per_op_seconds,
    percentile,
    span_seconds,
    split_seconds,
    timed,
    window_detail,
)

#: Fitted to the window: a round of seven plans takes about 0.1 s here.
FULL = {
    "star": {"sales": 40000, "customers": 500, "products": 60, "stores": 12},
    "fig8": {"n_a": 10000, "n_b": 100, "a_groups": 9000, "match_rows": 50},
    "fact": {"n_fact": 40000, "n_dim": 60},
}
QUICK = {
    "star": {"sales": 2000, "customers": 50, "products": 12, "stores": 4},
    "fig8": {"n_a": 1000, "n_b": 20, "a_groups": 900, "match_rows": 20},
    "fact": {"n_fact": 2000, "n_dim": 20},
}

#: Extra executions of each morsel variant in the traced run.
MORSEL_REPEATS = 7

VECTOR = ExecutorConfig(engine="vector")
MATERIALIZED = ExecutorConfig(engine="vector", morsel_size=None)
PARALLEL2 = ExecutorConfig(engine="vector", workers=2)
SORTED = ExecutorConfig(engine="vector", aggregation="sort", exploit_orders=True)


def star_query() -> GroupByJoinQuery:
    return GroupByJoinQuery(
        r1=[TableBinding("S", "Sales")],
        r2=[TableBinding("C", "Customer")],
        where=eq(col("S.CustID"), col("C.CustID")),
        ga1=[],
        ga2=["C.CustID", "C.Name"],
        aggregates=[AggregateSpec("total", sum_("S.Amount"))],
    )


def fig8_query() -> GroupByJoinQuery:
    return GroupByJoinQuery(
        r1=[TableBinding("A", "A")],
        r2=[TableBinding("B", "B")],
        where=eq(col("A.BRef"), col("B.BId")),
        ga1=["A.GKey"],
        ga2=["B.BId"],
        aggregates=[AggregateSpec("s", sum_("A.Val"))],
    )


def sort_agg_plan():
    return Apply(
        Group(Sort(Relation("F", "F"), ["F.k"]), ["F.k"]),
        [AggregateSpec("s", sum_("F.v"))],
    )


def minmax_plan():
    joined = Join(
        Relation("Sales", "S"), Relation("Customer", "C"),
        eq(col("S.CustID"), col("C.CustID")),
    )
    return GroupApply(
        joined,
        ["C.CustID", "C.Name"],
        [
            AggregateSpec("total", sum_("S.Amount")),
            AggregateSpec("lo", min_("S.Amount")),
            AggregateSpec("hi", max_("S.Amount")),
        ],
    )


@dataclass(frozen=True)
class Plan:
    name: str
    database: str
    build: Callable[[], object]  # a fresh tree per execution: node ids key the stats
    config: ExecutorConfig
    #: Plans with the same ``answer`` must return the same rows (E1 ≡ E2).
    answer: str


PLANS: Tuple[Plan, ...] = (
    Plan("star_standard", "star", lambda: build_standard_plan(star_query()), VECTOR, "star"),
    Plan("star_eager", "star", lambda: build_eager_plan(star_query()), VECTOR, "star"),
    Plan("fig8_standard", "fig8", lambda: build_standard_plan(fig8_query()), VECTOR, "fig8"),
    Plan("fig8_eager", "fig8", lambda: build_eager_plan(fig8_query()), VECTOR, "fig8"),
    Plan("sort_agg", "fact", sort_agg_plan, SORTED, "sort_agg"),
    Plan("minmax_stream", "star", minmax_plan, VECTOR, "minmax"),
    Plan("minmax_materialized", "star", minmax_plan, MATERIALIZED, "minmax"),
)
#: The E1/E2 pairs ``planner.regret`` is taken over.
PAIRS = (("star", star_query), ("fig8", fig8_query))


@dataclass
class Context:
    databases: Dict[str, Database]
    rows_loaded: int
    load_seconds: float
    generated: dict


def fact_database() -> Database:
    database = Database("fact")
    database.create_table(TableSchema(
        "F", [Column("id", INTEGER), Column("k", INTEGER), Column("v", INTEGER)],
        [PrimaryKeyConstraint(["id"])],
    ))
    return database


def execute(context: Context, plan: Plan, config: ExecutorConfig = None):
    database = context.databases[plan.database]
    return Executor(database, config or plan.config).run(plan.build())


def setup(seed: int, sizes: dict) -> Context:
    generated = {
        "star": datagen.star_rows(seed, **sizes["star"]),
        "fig8": datagen.two_table_rows(seed, **sizes["fig8"]),
        "fact": datagen.fact_rows(seed, **sizes["fact"]),
    }
    databases = {
        "star": make_retail_star(),
        "fig8": datagen.two_table_database(),
        "fact": fact_database(),
    }
    started = time.perf_counter()
    rows = sum(datagen.load(databases[name], generated[name]) for name in databases)
    load_seconds = time.perf_counter() - started
    context = Context(databases, rows, load_seconds, generated)
    for __ in range(WARMUP_OPS):
        for plan in PLANS:
            execute(context, plan)
    return context


def oracle(context: Context):
    """Each answer once on the row engine, from the standard (E1) plan.
    Returns the expected results and the row engine's seconds per plan."""
    expected, seconds = {}, []
    for plan in PLANS:
        if plan.answer in expected:
            continue
        config = ExecutorConfig(
            engine="row", aggregation=plan.config.aggregation,
            exploit_orders=plan.config.exploit_orders,
        )
        started = time.perf_counter()
        expected[plan.answer], __ = execute(context, plan, config)
        seconds.append(time.perf_counter() - started)
    return expected, seconds


def run(options: Options) -> Outcome:
    sizes = QUICK if options.quick else FULL
    context, setup_times = measure_setup(
        lambda: setup(options.seed, sizes), lambda context: None
    )
    setup_s = median(setup_times["at_reference_speed"])
    setup_rss_mb = peak_rss_mb()
    input_digest = datagen.digest(context.generated)
    context.generated = {}  # the rows now live in the tables
    expected, row_seconds = oracle(context)
    rng = random.Random(options.seed)

    def operation(index: int):
        order = list(PLANS)
        rng.shuffle(order)
        return [(plan, execute(context, plan)) for plan in order]

    def check(outputs) -> bool:
        return all(
            stats.degradations == 0 and expected[plan.answer].equals_multiset(result)
            for plan, (result, stats) in outputs
        )

    untraced_seconds, traced_seconds = split_seconds(options)
    window = closed_loop(operation, check, untraced_seconds, options.min_operations)
    metrics = end_to_end(window, setup_s, units_per_op=len(PLANS))
    attempted, failed = window.attempted, window.failed
    spans: List[dict] = []
    shares: dict = {}
    if options.trace:
        metrics, spans, rounds, traced_failed = traced(
            context, expected, traced_seconds, rng
        )
        attempted += rounds
        failed += traced_failed
        metrics["engine.row.exec_ms"] = sum(row_seconds) / len(row_seconds) * 1000.0
        metrics["storage.insert_rows_per_s"] = context.rows_loaded / context.load_seconds
        metrics["failed_ops_share"] = failed / attempted
        shares = {"engine.exec": 1.0}
    detail = window_detail(
        window, sizes=sizes, clients=1, statements_per_op=len(PLANS),
        setup_seconds=setup_times, setup_rss_mb=setup_rss_mb,
        input_digest=input_digest, client_metrics={}, layer_shares=shares,
    )
    return Outcome(attempted, failed, metrics, detail, spans)


def traced(context: Context, expected, seconds: float, rng):
    """Rounds with a span around each ``Executor.run`` (see
    :func:`bench.harness.paired_rounds`); then the morsel variants and the
    planner's pick for each E1/E2 pair."""
    tracer = Tracer()
    n = len(PLANS)

    def spanned_round(order, index: int):
        good = True
        outputs = []
        for plan in order:
            executor = Executor(context.databases[plan.database], plan.config)
            tree = plan.build()
            with tracer.span("engine.exec", op=index, stmt=plan.name):
                result, stats = executor.run(tree)
            outputs.append((plan, executor.executed_plan, stats))
            good = good and expected[plan.answer].equals_multiset(result)
        return good, outputs

    untraced_rounds, rounds_done = paired_rounds(
        PLANS, rng, seconds,
        lambda order: [execute(context, plan) for plan in order], spanned_round,
    )
    rounds = len(rounds_done)
    failed = sum(1 for good, __ in rounds_done if not good)
    first_round = rounds_done[0][1]

    spans = tracer.spans
    by_plan: Dict[str, List[float]] = {plan.name: [] for plan in PLANS}
    for span in spans:
        by_plan[span["stmt"]].append(span_seconds(span))
    plan_ms = {name: median(times) * 1000.0 for name, times in by_plan.items()}

    parallel = [
        timed(lambda: execute(context, PLANS[5], PARALLEL2))
        for __ in range(MORSEL_REPEATS)
    ]
    streamed_stats = next(s for plan, __, s in first_round if plan.name == "minmax_stream")

    planners = {name: Planner(context.databases[name], engine="vector") for name, __ in PAIRS}
    regrets = []
    for name, query in PAIRS:
        picked = planners[name].choose(query()).strategy
        pair = (plan_ms[f"{name}_standard"], plan_ms[f"{name}_eager"])
        regrets.append(plan_ms[f"{name}_{picked}"] / min(pair))
    qerrors = [
        q
        for plan, executed, stats in first_round
        if plan.database in planners
        for q in stepwise.qerrors(planners[plan.database].estimator, executed, stats)
    ]

    traced_round = median(per_op_seconds(spans, "engine.exec"))
    coverage = paired_ratio(per_op_seconds(spans, "engine.exec"), untraced_rounds)
    base_rows = sum(
        stepwise.base_rows(context.databases[plan.database], executed)
        for plan, executed, __ in first_round
    )
    metrics = {
        "engine.vector.exec_ms": traced_round / n * 1000.0,
        "engine.vector.rows_per_s": base_rows / traced_round,
        "engine.vector.star_standard_ms": plan_ms["star_standard"],
        "engine.vector.star_eager_ms": plan_ms["star_eager"],
        "engine.vector.fig8_standard_ms": plan_ms["fig8_standard"],
        "engine.vector.fig8_eager_ms": plan_ms["fig8_eager"],
        "engine.vector.sort_agg_ms": plan_ms["sort_agg"],
        "morsel.stream_ms": plan_ms["minmax_stream"],
        "morsel.materialized_ms": plan_ms["minmax_materialized"],
        "morsel.parallel2_ms": median(parallel) * 1000.0,
        "morsel.max_inflight_bytes": streamed_stats.pipelines.max_inflight_bytes,
        "engine.total_work": sum(s.total_work() for __, __, s in first_round),
        "engine.groupby_input_rows": sum(
            s.groupby_input_rows() for __, __, s in first_round
        ),
        "engine.join_input_rows": sum(
            left + right
            for __, __, s in first_round
            for left, right in s.join_input_sizes()
        ),
        "planner.regret": sum(regrets) / len(regrets),
        "planner.eager_share": sum(
            planners[name].choose(query()).strategy == "eager" for name, query in PAIRS
        ) / len(PAIRS),
        "cardinality.qerror_p50": percentile(qerrors, 0.5),
        "cardinality.qerror_max": max(qerrors),
        "trace.overhead_share": coverage - 1.0,
        "trace.coverage": coverage,
    }
    return metrics, spans, rounds, failed
