"""The shape ``star_sql`` and ``shard_socket`` share: SQL text through
``Session.report``, one operation = every statement of a list once.

Counting a whole round as the operation keeps the percentiles from being
artefacts of a bimodal statement mix; the order inside a round is
reshuffled from the seed.  Per-statement medians go to the detail record.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence, Tuple

from repro.engine.executor import ExecutorConfig
from repro.session import Session

from bench import datagen, stepwise
from bench.harness import (
    WARMUP_OPS,
    Options,
    Outcome,
    Tracer,
    closed_loop,
    end_to_end,
    layer_ms,
    measure_setup,
    median,
    paired_ratio,
    paired_rounds,
    peak_rss_mb,
    per_op_seconds,
    percentile,
    span_seconds,
    split_seconds,
    window_detail,
)

@dataclass
class Traced:
    """What the traced rounds produced (empty when tracing is off)."""

    layers: dict = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)
    rounds: int = 0
    failed: int = 0
    #: Each stepwise layer's share of one traced operation.
    shares: dict = field(default_factory=dict)


@dataclass
class SqlContext:
    database: object
    session: Session
    statements: List[Tuple[str, str]]
    rows_loaded: int
    load_seconds: float
    tables: dict


class SqlWorkload:
    """Subclasses say what to load, how to configure the session and what
    extra layers to read; this class owns the rounds."""

    name = ""
    policy = "cost"
    config = ExecutorConfig()

    # -- what subclasses provide ------------------------------------------

    def sizes(self, quick: bool) -> dict:
        raise NotImplementedError

    def build(self, seed: int, sizes: dict):
        """Returns ``(database, generated tables, statements)``; the
        database is empty, the caller loads and times it."""
        raise NotImplementedError

    def start(self, context: SqlContext) -> None:
        """Spawn whatever the session needs before the warm-up."""

    def close(self, context: SqlContext) -> None:
        """Stop and reap whatever :meth:`start` spawned."""

    def extra_layers(
        self, context: SqlContext, steps: Sequence[stepwise.Step], exec_ms: float
    ) -> dict:
        """Layers only this workload enters, read after the traced rounds;
        ``exec_ms`` is the traced ``engine.vector.exec_ms``."""
        return {}

    # -- set-up -----------------------------------------------------------------

    def setup(self, seed: int, sizes: dict) -> SqlContext:
        database, tables, statements = self.build(seed, sizes)
        started = time.perf_counter()
        rows = datagen.load(database, tables)
        load_seconds = time.perf_counter() - started
        context = SqlContext(
            database,
            Session(database, policy=self.policy, executor_config=self.config),
            statements,
            rows,
            load_seconds,
            tables,
        )
        self.start(context)
        for __ in range(WARMUP_OPS):
            for __, sql in statements:
                context.session.report(sql)
        return context

    def oracle(self, context: SqlContext) -> Dict[str, object]:
        """Every statement on the row engine, never eager, unsharded,
        unrewritten: the independent answer each timed result must equal."""
        reference = Session(
            context.database,
            policy="never_eager",
            executor_config=ExecutorConfig(engine="row"),
        )
        return {name: reference.report(sql).result for name, sql in context.statements}

    # -- the run ----------------------------------------------------------------

    def run(self, options: Options) -> Outcome:
        sizes = self.sizes(options.quick)
        context, setup_times = measure_setup(
            lambda: self.setup(options.seed, sizes), self.close
        )
        setup_s = median(setup_times["at_reference_speed"])
        setup_rss_mb = peak_rss_mb()
        input_digest = datagen.digest(context.tables)
        context.tables = {}  # the rows now live in the database
        wire_bytes = 0
        try:
            expected = self.oracle(context)
            rng = random.Random(options.seed)
            statements = context.statements
            per_statement: Dict[str, List[float]] = {n: [] for n, __ in statements}

            def operation(index: int):
                order = list(statements)
                rng.shuffle(order)
                reports = []
                for name, sql in order:
                    started = time.perf_counter()
                    report = context.session.report(sql)
                    per_statement[name].append(time.perf_counter() - started)
                    reports.append((name, report))
                return reports

            def check(reports) -> bool:
                nonlocal wire_bytes
                for __, report in reports:
                    wire_bytes += sum(e.wire_bytes for e in report.stats.exchanges)
                return all(
                    clean(report) and expected[name].equals_multiset(report.result)
                    for name, report in reports
                )

            untraced_seconds, traced_seconds = split_seconds(options)
            window = closed_loop(
                operation, check, untraced_seconds, options.min_operations
            )
            traced = Traced()
            if options.trace:
                traced = self.traced(context, expected, traced_seconds, rng)
        finally:
            self.close(context)

        metrics = end_to_end(window, setup_s, units_per_op=len(statements))
        wire_bytes_per_stmt = wire_bytes / (window.attempted * len(statements))
        attempted = window.attempted + traced.rounds
        failed = window.failed + traced.failed
        if options.trace:
            layers = traced.layers
            layers["storage.insert_rows_per_s"] = (
                context.rows_loaded / context.load_seconds
            )
            layers["wire_bytes_per_stmt"] = wire_bytes_per_stmt
            layers["failed_ops_share"] = failed / attempted
            metrics = layers
        detail = window_detail(
            window, sizes=sizes, clients=1, statements_per_op=len(statements),
            setup_seconds=setup_times, setup_rss_mb=setup_rss_mb,
            input_digest=input_digest,
            client_metrics=(
                {"wire_bytes_per_stmt": wire_bytes_per_stmt} if wire_bytes else {}
            ),
            layer_shares=traced.shares,
            statement_p50_ms={
                name: percentile(times, 0.5) * 1000.0
                for name, times in per_statement.items()
                if times
            },
        )
        return Outcome(attempted, failed, metrics, detail, traced.spans)

    # -- the traced rounds --------------------------------------------------

    def traced(self, context, expected, seconds, rng) -> "Traced":
        """Stepwise rounds after the untraced window (see
        :func:`bench.harness.paired_rounds`), then the layer table."""
        statements = context.statements
        n = len(statements)
        tracer = Tracer()
        session_results = {
            name: context.session.report(sql).result for name, sql in statements
        }

        def untraced(order) -> None:
            for __, sql in order:
                context.session.report(sql)

        def stepwise_round(order, index: int):
            steps = []
            for name, sql in order:
                stepwise.probe_testfd(context.database, sql, tracer, index, name)
                steps.append(stepwise.run_statement(
                    context.database, sql, self.config, self.policy,
                    tracer, index, name,
                ))
            good = all(
                step.stats.degradations == 0
                and expected[name].equals_multiset(step.result)
                and session_results[name].equals_multiset(step.result)
                for (name, __), step in zip(order, steps)
            )
            return good, steps

        untraced_rounds, outputs = paired_rounds(
            statements, rng, seconds, untraced, stepwise_round
        )
        rounds = len(outputs)
        failed = sum(1 for good, __ in outputs if not good)
        first_round: List[stepwise.Step] = outputs[0][1]

        spans = tracer.spans
        untraced_round = median(untraced_rounds)
        traced_round = median(per_op_seconds(spans, "session.statement"))
        covered = median(covered_seconds(spans))
        coverage = paired_ratio(covered_seconds(spans), untraced_rounds)
        if coverage < 0.85:
            raise SystemExit(
                f"bench: trace.coverage {coverage:.3f} < 0.85 on {self.name}: "
                "bench/stepwise.py has drifted from repro/session.py"
            )
        exec_seconds = median(per_op_seconds(spans, "engine.exec"))
        qerrors = [q for step in first_round for q in step.qerrors] or [1.0]
        layers = {
            "parser.parse_ms": layer_ms(spans, "parser.parse", n),
            "binder.bind_ms": layer_ms(spans, "binder.bind", n),
            "testfd.ms": layer_ms(spans, "core.testfd", n),
            "testfd.yes_share": sum(s.testfd_yes for s in first_round) / n,
            "cardinality.collect_ms": layer_ms(spans, "cardinality.collect", n),
            "cardinality.qerror_p50": percentile(qerrors, 0.5),
            "cardinality.qerror_max": max(qerrors),
            "planner.choose_ms": layer_ms(spans, "planner.choose", n),
            "planner.eager_share": sum(s.eager for s in first_round) / n,
            "rewrites.apply_ms": layer_ms(spans, "rewrites.apply", n),
            "rewrites.applied_per_stmt": sum(s.rewrites_applied for s in first_round) / n,
            "distribute.plan_ms": layer_ms(spans, "distribute.plan", n),
            "distribute.two_phase_share": sum(s.two_phase for s in first_round) / n,
            "engine.vector.exec_ms": exec_seconds / n * 1000.0,
            "engine.vector.rows_per_s": sum(s.base_rows for s in first_round) / exec_seconds,
            "engine.total_work": sum(s.stats.total_work() for s in first_round),
            "engine.groupby_input_rows": sum(
                s.stats.groupby_input_rows() for s in first_round
            ),
            "engine.join_input_rows": sum(
                left + right
                for s in first_round
                for left, right in s.stats.join_input_sizes()
            ),
            "engine.row.exec_ms": self.row_engine_ms(context),
            "session.self_ms": (untraced_round - covered) / n * 1000.0,
            "trace.overhead_share": paired_ratio(
                per_op_seconds(spans, "session.statement"), untraced_rounds
            ) - 1.0,
            "trace.coverage": coverage,
        }
        layers.update(
            self.extra_layers(context, first_round, layers["engine.vector.exec_ms"])
        )
        shares = {
            name: sum(per_op_seconds(spans, name)) / (traced_round * rounds)
            for name in sorted({s["name"] for s in spans if s["parent"] is not None})
        }
        if layers.get("shardrpc.rpc_ms"):
            shares["engine.shardrpc (part of engine.exec)"] = layers[
                "shardrpc.rpc_ms"
            ] / (traced_round / n * 1000.0)
        return Traced(layers, spans, rounds, failed, shares)

    def row_engine_ms(self, context: SqlContext) -> float:
        """One stepwise round on the row engine, single site: the oracle's
        engine, timed at the same ``Executor.run`` boundary."""
        config = replace(self.config, engine="row", shards=1, transport="memory")
        tracer = Tracer()
        for name, sql in context.statements:
            stepwise.run_statement(
                context.database, sql, config, self.policy, tracer, 0, name
            )
        return layer_ms(tracer.spans, "engine.exec", len(context.statements))


def clean(report) -> bool:
    """No degradation to another engine or site, no retry, timeout or
    failover on the wire: anything else is not the path being measured."""
    stats = report.stats
    return stats.degradations == 0 and all(
        e.rpc_retries == 0 and e.rpc_timeouts == 0 and e.rpc_failovers == 0
        for e in stats.exchanges
    )


def covered_seconds(spans: Sequence[dict]) -> List[float]:
    """Per operation, the time inside spans that are direct children of a
    statement span: what the stepwise trace accounts for."""
    statements = {s["id"] for s in spans if s["name"] == "session.statement"}
    totals: Dict[int, float] = {}
    for span in spans:
        if span["parent"] in statements:
            totals[span["op"]] = totals.get(span["op"], 0.0) + span_seconds(span)
    return list(totals.values())
