"""Distribution planning: where to put the Exchange, and what to ship.

Section 7's argument, as a planning decision: on a partitioned table, a
group-by that sits directly on the scan side can run *below* the wire, so
each shard ships one row per (local) group instead of its whole partition.
:func:`distribute_plan` makes that choice with the communication-aware
cost model — it prices the **two-phase** plan (partial aggregation below
the Exchange, global merge above it) against the **ship-all** plan (the
bare scan region crosses the wire, the aggregate runs at the coordinator)
and keeps whichever the :class:`~repro.costing.cost.NetworkWeights`
term says is cheaper.  Eager plans are exactly where two-phase shines:
their below-join GroupApply already sits on a single-table region, so the
planner's eager/standard choice composes with the shard choice the way
the paper's distributed remark predicts.

Every wrap emits a ``shard_exchange`` :class:`RuleCertificate` (rule R704)
and self-audits through the independent equivalence checker before the
plan is allowed to run: the checker re-derives the shard-union premise
(linear single-table region below the wire) and, for two-phase, the
exact-decomposability of the aggregates (integer SUM/AVG only — float
partial sums would reassociate).  A failed audit raises rather than
executing an unproven plan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.algebra.ops import (
    Exchange,
    GroupApply,
    PlanNode,
    Relation,
    Select,
    scan_chain_relation,
    with_children,
)
from repro.analysis.certificates import (
    DISTRIBUTION_ATTR,
    RuleCertificate,
    carry_evidence,
    distribution_certificate,
)
from repro.analysis.diagnostics import raise_on_errors
from repro.analysis.equivalence import exact_decomposition_reason, verify_rewrite
from repro.catalog.catalog import Database
from repro.costing.cardinality import CardinalityEstimator
from repro.costing.cost import CostModel
from repro.storage.partition import PartitionSpec

if TYPE_CHECKING:
    from repro.engine.executor import PlanConfig

#: The accessor lives with the other evidence accessors; it stays importable
#: from here, beside the function that attaches what it reads.
__all__ = ["distribute_plan", "distribution_certificate"]


class _Site:
    """One distributable region: a scan chain, maybe under a GroupApply."""

    __slots__ = ("group", "chain", "relation")

    def __init__(
        self, group: Optional[GroupApply], chain: PlanNode, relation: Relation
    ):
        self.group = group
        self.chain = chain
        self.relation = relation


def _find_sites(plan: PlanNode) -> List[_Site]:
    """All maximal Relation/Select* regions, tagged with a direct GroupApply
    parent when one exists (the two-phase opportunity)."""
    sites: List[_Site] = []

    def recurse(node: PlanNode, parent: Optional[PlanNode]) -> None:
        if isinstance(node, GroupApply):
            relation = scan_chain_relation(node.child)
            if relation is not None:
                sites.append(_Site(node, node.child, relation))
                return
        if not isinstance(parent, (Select, GroupApply)):
            relation = scan_chain_relation(node)
            if relation is not None:
                sites.append(_Site(None, node, relation))
                return
        for child in node.children():
            recurse(child, node)

    recurse(plan, None)
    return sites


def _replace(plan: PlanNode, target: PlanNode, replacement: PlanNode) -> PlanNode:
    if plan is target:
        return replacement
    children = plan.children()
    if not children:
        return plan
    rebuilt = tuple(_replace(child, target, replacement) for child in children)
    if all(new is old for new, old in zip(rebuilt, children)):
        return plan
    return with_children(plan, rebuilt)


def _exchange_keys(
    relation: Relation, method: str, database: Database
) -> Tuple[str, ...]:
    """Partition on the catalog-declared column when it fits the method."""
    declared = database.partitioning.get(relation.table_name)
    if isinstance(declared, PartitionSpec) and declared.column is not None:
        if declared.method == method:
            return (f"{relation.correlation}.{declared.column}",)
    return ()


def distribute_plan(
    plan: PlanNode, database: Database, config: PlanConfig
) -> PlanNode:
    """Wrap the best scan region of ``plan`` in an Exchange, cost-based.

    Picks the region over the largest estimated base table (preferring
    tables with a declared partitioning), builds the two-phase candidate
    when the region's GroupApply decomposes exactly, prices both candidates
    with the network-aware cost model, certifies the winner (R704), and
    returns the rewritten plan.  Returns ``plan`` unchanged when nothing is
    distributable.
    """
    sites = _find_sites(plan)
    if not sites:
        return plan
    estimator = CardinalityEstimator(database)
    declared = [
        site for site in sites
        if database.partitioning.get(site.relation.table_name) is not None
    ]
    pool = declared or sites
    site = max(pool, key=lambda s: estimator.rows(s.relation))

    mode = config.exchange if config.exchange in (
        "gather", "shuffle", "broadcast"
    ) else "gather"
    method = config.partitioning
    shards = config.shards
    keys = _exchange_keys(site.relation, method, database)

    model = CostModel(
        estimator,
        join_algorithm=(
            "hash" if config.join_algorithm == "auto" else config.join_algorithm
        ),
        engine=config.engine,
    )

    candidates: List[Tuple[float, PlanNode, PlanNode, Exchange, str]] = []
    ship_all = Exchange(site.chain, mode, shards, method, keys, False)
    ship_all_plan = _replace(plan, site.chain, ship_all)
    candidates.append(
        (model.cost(ship_all_plan).total, ship_all_plan, site.chain, ship_all,
         "ship-all")
    )
    if (
        site.group is not None
        and exact_decomposition_reason(site.group, database) is None
    ):
        two_phase = Exchange(site.group, mode, shards, method, keys, True)
        two_phase_plan = _replace(plan, site.group, two_phase)
        candidates.append(
            (model.cost(two_phase_plan).total, two_phase_plan, site.group,
             two_phase, "two-phase")
        )

    cost, chosen_plan, replaced, exchange, strategy = min(
        candidates, key=lambda item: item[0]
    )
    estimated_shipped = estimator.rows(exchange.child) * exchange.fanout

    premises: List[Tuple[str, str]] = [
        ("strategy", strategy),
        ("shards", str(exchange.shards)),
        ("mode", exchange.mode),
        ("partitioning", exchange.partitioning),
        ("keys", ", ".join(exchange.keys) or "(rowid)"),
        ("estimated-shipped-rows", f"{estimated_shipped:.6f}"),
        ("cost", f"{cost:.6f}"),
        ("transport", config.transport),
    ]
    if strategy == "two-phase":
        premises.append(
            (
                "partial-merge",
                "aggregates decompose exactly; merge restores one-phase "
                "values and order via the MIN(RowID) ordinal",
            )
        )
    certificate = RuleCertificate(
        "shard_exchange", "$", plan, chosen_plan, tuple(premises)
    )

    raise_on_errors(
        verify_rewrite(database, certificate),
        "shard exchange failed its R704 audit",
    )

    # The rebuilt root keeps what the old one carried (eager certificate,
    # rewrite marker) and gains its own.
    carry_evidence(plan, chosen_plan)
    object.__setattr__(chosen_plan, DISTRIBUTION_ATTR, certificate)
    return chosen_plan
