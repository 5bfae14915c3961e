"""Plan cost model: CPU work, and optionally two-site communication.

Section 7 of the paper lists the trade-offs of eager grouping — the join
input can only shrink, the group-by input may grow or shrink with join
selectivity, and in a distributed database the transformation can slash
communication because only one row per group crosses the wire.  This module
turns those observations into numbers:

* :class:`CostModel` — per-operator CPU costs driven by the cardinality
  estimator (hash join ≈ |L|+|R|+|out|, hash group ≈ n+groups, etc.);
* :class:`DistributedCostModel` — adds a transfer charge for shipping the
  R1 side to the R2 site (or vice versa), the §7 communication argument.

Costs are abstract units, not seconds: the reproduction targets the
*shape* of the paper's comparisons (who wins, where the crossover falls).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.algebra.ops import (
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
from repro.costing.cardinality import CardinalityEstimator, EstimateContext


@dataclass(frozen=True)
class CostWeights:
    """Unit charges for the primitive operations."""

    tuple_cpu: float = 1.0          # touching one tuple
    hash_build: float = 1.5         # inserting into a hash table
    hash_probe: float = 1.0         # probing a hash table
    comparison: float = 1.0         # one sort comparison
    output_tuple: float = 0.2       # emitting a result tuple


#: Per-backend CPU scale factors.  The vector backend does the *same*
#: abstract work (its ExecutionStats are identical by contract) but each
#: unit is cheaper — columnar batches amortize interpretation overhead and
#: the numeric fast paths run at C speed.  The factor is deliberately
#: uniform across operators so plan comparisons (who wins, where the
#: crossover falls) are backend-independent: switching engines rescales
#: every candidate's cost by the same constant and never flips a choice.
ENGINE_CPU_FACTORS: Dict[str, float] = {"row": 1.0, "vector": 0.3}

#: Ceiling for the autotuner: past this many forked workers the per-worker
#: partial-merge and pool-teardown overheads dominate the morsel counts our
#: segments produce, so ``auto`` never picks more even on larger hosts.
MAX_AUTO_WORKERS = 16


def resolve_workers(workers: int) -> int:
    """The effective worker count for a configured ``workers`` value.

    ``0`` is the *auto* sentinel (``ExecutorConfig(workers=0)``, CLI
    ``--workers auto``): use every core the host reports, clamped to
    ``os.cpu_count()`` (and :data:`MAX_AUTO_WORKERS`).  Explicit positive
    counts are honored as-is — oversubscription is sometimes wanted in
    tests — and a single-core host resolves auto to 1, which disables
    parallel dispatch entirely (forked workers timesharing one core are
    pure overhead).
    """
    if workers > 0:
        return workers
    return max(1, min(os.cpu_count() or 1, MAX_AUTO_WORKERS))


@dataclass
class PlanCost:
    """A cost total plus the per-node breakdown for explainability."""

    total: float
    by_node: Dict[int, float]
    rows_out: float


@dataclass(frozen=True)
class NetworkWeights:
    """Two-site communication charges (per row shipped)."""

    per_row: float = 50.0  # a shipped row costs this many CPU-units
    per_query_setup: float = 100.0


class CostModel:
    """Estimates the CPU cost of a logical plan.

    Plans containing :class:`~repro.algebra.ops.Exchange` nodes are priced
    with the §7 communication term folded in: the subtree below an
    Exchange runs shard-parallel (its CPU cost divides by the shard
    count), and every row the child produces is charged ``network.per_row``
    times the node's ``fanout`` on its way through the wire.  This makes
    the planner push partial aggregation below the Exchange exactly when
    groups ≪ rows — the same comparison
    :class:`DistributedCostModel.cost_with_transfer` makes abstractly.
    """

    def __init__(
        self,
        estimator: CardinalityEstimator,
        weights: CostWeights = CostWeights(),
        join_algorithm: str = "hash",
        engine: str = "row",
        workers: int = 1,
        network: "NetworkWeights | None" = None,
    ) -> None:
        if join_algorithm not in ("hash", "nested_loop", "sort_merge"):
            raise ValueError(f"bad join_algorithm: {join_algorithm}")
        if engine not in ENGINE_CPU_FACTORS:
            raise ValueError(f"bad engine: {engine}")
        if workers < 1:
            raise ValueError(f"bad workers: {workers}")
        self.estimator = estimator
        self.weights = weights
        self.join_algorithm = join_algorithm
        self.engine = engine
        self.workers = workers
        self.network = network if network is not None else NetworkWeights()
        # Like the engine factor, the per-core speedup divides every
        # candidate's cost uniformly (morsel parallelism applies to whole
        # pipelines, not select operators), so plan choices never flip.
        self.cpu_factor = ENGINE_CPU_FACTORS[engine] / max(1, workers)

    def cost(self, plan: PlanNode) -> PlanCost:
        by_node: Dict[int, float] = {}
        total, context = self._cost(plan, by_node)
        factor = self.cpu_factor
        if factor != 1.0:
            total *= factor
            by_node = {node: value * factor for node, value in by_node.items()}
        return PlanCost(total, by_node, context.rows)

    # -- recursion -----------------------------------------------------------

    def _cost(self, plan: PlanNode, by_node: Dict[int, float]) -> Tuple[float, EstimateContext]:
        w = self.weights
        if isinstance(plan, Relation):
            context = self.estimator.estimate(plan)
            node_cost = context.rows * w.tuple_cpu
            by_node[id(plan)] = node_cost
            return node_cost, context

        if isinstance(plan, Select):
            child_cost, child = self._cost(plan.child, by_node)
            context = self.estimator.estimate(plan)
            node_cost = child.rows * w.tuple_cpu
            by_node[id(plan)] = node_cost
            return child_cost + node_cost, context

        if isinstance(plan, Project):
            child_cost, child = self._cost(plan.child, by_node)
            context = self.estimator.estimate(plan)
            node_cost = child.rows * w.tuple_cpu
            if plan.distinct:
                node_cost += child.rows * w.hash_build
            by_node[id(plan)] = node_cost
            return child_cost + node_cost, context

        if isinstance(plan, (Join, Product)):
            left_cost, left = self._cost(plan.left, by_node)
            right_cost, right = self._cost(plan.right, by_node)
            context = self.estimator.estimate(plan)
            node_cost = self._join_cost(plan, left, right, context)
            by_node[id(plan)] = node_cost
            return left_cost + right_cost + node_cost, context

        if isinstance(plan, GroupApply):
            child_cost, child = self._cost(plan.child, by_node)
            context = self.estimator.estimate(plan)
            node_cost = (
                child.rows * w.hash_build + context.rows * w.output_tuple
            )
            by_node[id(plan)] = node_cost
            return child_cost + node_cost, context

        if isinstance(plan, Apply) and isinstance(plan.child, Group):
            # Cost the fused form: Group+Apply is one aggregation operator.
            child_cost, child = self._cost(plan.child.child, by_node)
            context = self.estimator.estimate(plan)
            node_cost = child.rows * w.hash_build + context.rows * w.output_tuple
            by_node[id(plan)] = node_cost
            return child_cost + node_cost, context

        if isinstance(plan, (Group, Sort)):
            child_cost, child = self._cost(plan.child, by_node)
            context = self.estimator.estimate(plan)
            node_cost = _nlogn(child.rows) * w.comparison
            by_node[id(plan)] = node_cost
            return child_cost + node_cost, context

        if isinstance(plan, Exchange):
            child_cost, child = self._cost(plan.child, by_node)
            # The child's estimate is the shipped stream (for merge=True the
            # terminal GroupApply already shrank it to one row per group).
            shipped = child.rows
            merge_weight = (
                self.weights.hash_build if plan.merge else self.weights.tuple_cpu
            )
            node_cost = (
                self.network.per_query_setup
                + shipped * self.network.per_row * plan.fanout
                + shipped * merge_weight  # coordinator-side merge pass
            )
            by_node[id(plan)] = node_cost
            # The subtree below the wire runs once per shard in parallel,
            # so its CPU cost divides by the shard count.  (The per-node
            # breakdown keeps the undivided child entries: it explains the
            # work, the total explains the wall clock.)
            return child_cost / max(1, plan.shards) + node_cost, child

        raise TypeError(f"cannot cost {type(plan).__name__}")

    def _join_cost(
        self,
        plan: "Join | Product",
        left: EstimateContext,
        right: EstimateContext,
        output: EstimateContext,
    ) -> float:
        w = self.weights
        if isinstance(plan, Product) or (isinstance(plan, Join) and plan.condition is None):
            return left.rows * right.rows * w.tuple_cpu
        if self.join_algorithm == "nested_loop":
            return left.rows * right.rows * w.tuple_cpu + output.rows * w.output_tuple
        if self.join_algorithm == "sort_merge":
            return (
                (_nlogn(left.rows) + _nlogn(right.rows)) * w.comparison
                + (left.rows + right.rows) * w.tuple_cpu
                + output.rows * w.output_tuple
            )
        # hash join: build on the smaller input
        build, probe = (right, left) if right.rows <= left.rows else (left, right)
        return (
            build.rows * w.hash_build
            + probe.rows * w.hash_probe
            + output.rows * w.output_tuple
        )


class DistributedCostModel:
    """CPU cost plus the §7 communication term for a two-site layout.

    The R1-group tables live on site 1, the R2-group tables on site 2, and
    the join executes at site 2: whatever the plan produces on the R1 side
    (the raw filtered rows for E1, one row per group for E2) must cross the
    network.  ``transfer_rows(plan_r1_side_rows)`` is charged at
    ``per_row``.
    """

    def __init__(
        self,
        cost_model: CostModel,
        network: NetworkWeights = NetworkWeights(),
    ) -> None:
        self.cost_model = cost_model
        self.network = network

    def cost_with_transfer(self, plan: PlanNode, shipped_subplan: PlanNode) -> float:
        """Total cost of ``plan`` when ``shipped_subplan``'s output crosses
        the network."""
        base = self.cost_model.cost(plan).total
        shipped_rows = self.cost_model.estimator.rows(shipped_subplan)
        return base + self.network.per_query_setup + shipped_rows * self.network.per_row


def _nlogn(n: float) -> float:
    if n <= 1.0:
        return n
    return n * math.log2(n)
