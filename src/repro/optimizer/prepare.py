"""From a chosen plan to the plan that runs: one prepare step.

:func:`prepare_plan` is everything that happens to a plan between being
built and being handed to an engine — fuse ``Apply ∘ Group``, the configured
certified rewrites (R700–R703), the shard Exchange (R704), the opt-in static
verification — in that order, each step audited by the independent checker
before the next sees its output.  :func:`repro.statement.plan_statement`
calls it for a session or a lint run; :meth:`repro.engine.executor.Executor.run`
calls it for a plan that arrives from anywhere else.  A step whose work is
already on the plan is skipped, so preparing twice is preparing once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.algebra.ops import Exchange, PlanNode, fuse_group_apply, walk_plan
from repro.analysis.certificates import RuleCertificate, carry_evidence
from repro.analysis.diagnostics import Severity, render_diagnostics
from repro.analysis.verifier import analyze_plan
from repro.catalog.catalog import Database
from repro.errors import PlanVerificationError
from repro.optimizer.rewrites import (
    RewriteOutcome,
    apply_configured_rewrites,
    rewrites_applied,
)

if TYPE_CHECKING:
    from repro.engine.executor import PlanConfig


def prepare_plan(
    plan: PlanNode, database: Database, config: PlanConfig
) -> RewriteOutcome:
    """Make ``plan`` ready to run under ``config`` (an
    :attr:`~repro.engine.executor.ExecutorConfig.plan_config`).

    Returns the prepared plan and the rule certificates of the rewrites
    applied *here*; the root carries everything else it was given or gained
    (eager certificate, applied-rewrites marker, R704 certificate — see
    :func:`repro.analysis.certificates.carry_evidence`).  Skipped: the
    rewrites when the root is already marked as rewritten, distribution
    when the plan already holds an Exchange.
    """
    # Fuse first: the rules see one canonical shape, and the nodes that
    # execute are the nodes the report annotates.
    prepared = carry_evidence(plan, fuse_group_apply(plan))
    certificates: Tuple[RuleCertificate, ...] = ()
    if config.rewrites and rewrites_applied(prepared) is None:
        rewritten = apply_configured_rewrites(prepared, database, config)
        prepared, certificates = rewritten.plan, rewritten.certificates
    if (
        config.shards > 1
        and config.exchange != "off"
        and not any(isinstance(node, Exchange) for node in walk_plan(prepared))
    ):
        # Deferred (tests/test_layering.py): only a sharded query pays for
        # the partitioner the distribution planner imports.
        from repro.optimizer.distribute import distribute_plan

        prepared = distribute_plan(prepared, database, config)
    if config.verify:
        diagnostics = analyze_plan(prepared, database, min_severity=Severity.ERROR)
        if diagnostics:
            raise PlanVerificationError(
                "plan failed static verification:\n"
                + render_diagnostics(diagnostics),
                diagnostics,
            )
    return RewriteOutcome(prepared, certificates)
