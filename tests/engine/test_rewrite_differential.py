"""The certified-rewrite differential harness, quick configuration.

Every differential case (the same 78-pair catalog the backend-equivalence
harness uses) is replayed under every rewrite set — each single rule plus
all three together — on both engines, and compared against a no-rewrite
row-engine baseline: multiset-identical results AND identical ordering
metadata, with the two rewritten engines also agreeing on their stats
signatures.
"""

from tests.engine.differential import (
    failures,
    run_rewrite_differential,
)
from repro.optimizer.rewrites import REWRITE_RULES


def test_every_rewrite_set_preserves_results_on_both_engines():
    results = run_rewrite_differential(quick=True)
    assert results, "harness produced no comparisons"
    # Full matrix: every case/config pair times every rewrite set.
    labels = {r.config.rsplit("+rw:", 1)[1] for r in results}
    assert labels == {",".join(rs) for rs in
                      [(rule,) for rule in REWRITE_RULES] + [REWRITE_RULES]}
    broken = failures(results)
    assert not broken, "rewrites diverge on: " + ", ".join(
        "{} [{}] results_match={} stats_match={}".format(
            r.case, r.config, r.results_match, r.stats_match
        )
        for r in broken
    )


def test_single_rule_subset_runs_alone():
    results = run_rewrite_differential(
        quick=True, rewrite_sets=[("projection_pruning",)]
    )
    assert results and not failures(results)
    assert all(r.config.endswith("+rw:projection_pruning") for r in results)
