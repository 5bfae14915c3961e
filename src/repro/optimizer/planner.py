"""The planner: choose between the standard (E1) and eager (E2) plans.

Section 7: "Ultimately, the choice is determined by the estimated cost of
the two plans."  The planner

1. checks validity with TestFD (invalid ⇒ standard plan, no choice);
2. builds both plans, costs them with the cardinality-driven model;
3. returns the cheaper one, with the full decision record.

Policies ``always_eager`` / ``never_eager`` exist for the ablation bench
(what would a heuristic-only optimizer lose?).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.algebra.ops import PlanNode
from repro.analysis.diagnostics import raise_on_errors
from repro.analysis.verifier import certify
from repro.catalog.catalog import Database
from repro.core.query_class import GroupByJoinQuery
from repro.core.transform import (
    TransformationDecision,
    build_eager_plan,
    build_standard_plan,
    check_transformable,
    normalize_having,
)
from repro.costing.cardinality import CardinalityEstimator, Statistics
from repro.costing.cost import CostModel, CostWeights, resolve_workers
from repro.errors import PlanningError

POLICIES = ("cost", "always_eager", "never_eager")


@dataclass
class PlanChoice:
    """The planner's verdict for one query: both access plans as built,
    and which of them the policy picked."""

    strategy: str  # "eager" or "standard"
    standard: PlanNode
    eager: Optional[PlanNode]  # None when the transformation is invalid
    standard_cost: float
    eager_cost: Optional[float]  # None when the transformation is invalid
    decision: TransformationDecision

    @property
    def plan(self) -> PlanNode:
        """The chosen plan (an eager one carries its audited certificate)."""
        if self.strategy == "eager":
            assert self.eager is not None
            return self.eager
        return self.standard

    @property
    def speedup(self) -> Optional[float]:
        """Estimated standard/eager cost ratio (>1 means eager wins)."""
        if self.eager_cost is None or self.eager_cost == 0:
            return None
        return self.standard_cost / self.eager_cost


class Planner:
    """Cost-based eager/standard plan selection."""

    def __init__(
        self,
        database: Database,
        statistics: Optional[Statistics] = None,
        weights: CostWeights = CostWeights(),
        join_algorithm: str = "hash",
        policy: str = "cost",
        assume_unique_keys: bool = False,
        engine: str = "row",
        workers: int = 1,
    ) -> None:
        if policy not in POLICIES:
            raise PlanningError(f"unknown policy {policy!r}; pick one of {POLICIES}")
        self.database = database
        self.estimator = CardinalityEstimator(database, statistics)
        # workers=0 is the auto sentinel: cost plans with the autotuned
        # effective count, the same number the morsel driver will use.
        self.cost_model = CostModel(
            self.estimator, weights, join_algorithm, engine,
            resolve_workers(workers),
        )
        self.policy = policy
        self.assume_unique_keys = assume_unique_keys

    def choose(self, query: GroupByJoinQuery) -> PlanChoice:
        """Pick a plan for ``query`` under the configured policy.

        An aggregate-free HAVING is first folded into WHERE
        (:func:`repro.core.transform.normalize_having`), which can re-admit
        the query to the transformable class.  A valid eager plan is
        certified here (:func:`repro.analysis.verifier.certify`: issued,
        audited, attached) whichever plan the policy then picks; a
        certificate that fails its audit raises
        :class:`~repro.errors.TransformationError` instead of a choice.
        """
        query = normalize_having(query)
        standard = build_standard_plan(query)
        standard_cost = self.cost_model.cost(standard).total
        decision = check_transformable(
            self.database, query, assume_unique_keys=self.assume_unique_keys
        )
        if not decision.valid:
            return PlanChoice(
                "standard", standard, None, standard_cost, None, decision
            )

        eager = build_eager_plan(query)
        eager_cost = self.cost_model.cost(eager).total
        raise_on_errors(
            certify(
                self.database, query, decision, standard, eager,
                self.assume_unique_keys,
            ),
            "rewrite failed self-verification",
        )
        pick_eager = self.policy == "always_eager" or (
            self.policy == "cost" and eager_cost < standard_cost
        )
        return PlanChoice(
            "eager" if pick_eager else "standard",
            standard, eager, standard_cost, eager_cost, decision,
        )
