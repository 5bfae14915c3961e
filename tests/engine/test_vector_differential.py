"""The backend-equivalence harness, run in its quick configuration.

One test, broad net: every workload (including the NULL-infested variant)
times every executor configuration, row backend vs. vector backend,
compared under ``=ⁿ`` multiset semantics plus ordering metadata plus the
per-operator stats signature.  Any divergence fails with the offending
case's label.
"""

from tests.engine.differential import (
    failures,
    fault_failures,
    run_differential,
    run_fault_matrix,
    run_morsel_matrix,
)


def test_every_case_equivalent_across_backends():
    results = run_differential(quick=True)
    assert results, "harness produced no comparisons"
    broken = failures(results)
    assert not broken, "backends diverge on: " + ", ".join(
        "{} [{}] results_match={} stats_match={}".format(
            r.case, r.config, r.results_match, r.stats_match
        )
        for r in broken
    )


def test_every_case_equivalent_under_tight_memory_budget():
    """The same sweep with an 8 KiB working-set budget: every blocking
    operator big enough spills on both backends, and results, ordering
    metadata, and stats signatures must still match case for case."""
    results = run_differential(quick=True, overrides={"memory_limit_bytes": 8192})
    assert results, "harness produced no comparisons"
    broken = failures(results)
    assert not broken, "backends diverge under memory pressure on: " + ", ".join(
        "{} [{}] results_match={} stats_match={}".format(
            r.case, r.config, r.results_match, r.stats_match
        )
        for r in broken
    )
    assert any(r.row_spills for r in results), "budget never forced a spill"
    unequal = [r for r in results if r.row_spills != r.vector_spills]
    assert not unequal, "spill decisions diverge on: " + ", ".join(
        f"{r.case} [{r.config}] row={r.row_spills} vector={r.vector_spills}"
        for r in unequal
    )


def test_morsel_matrix_equivalent_everywhere():
    """The 78-case sweep under every morsel configuration — one-row
    morsels, odd sizes, multi-core dispatch, streaming off, and an 8 KiB
    working-set budget.  Morsel shape must be unobservable case by case."""
    sweeps = run_morsel_matrix(quick=True, budget_bytes=8192)
    assert len(sweeps) == 7
    for label, results in sweeps:
        assert len(results) == 78, f"{label}: harness shrank"
        broken = failures(results)
        assert not broken, f"[{label}] backends diverge on: " + ", ".join(
            "{} [{}] results_match={} stats_match={}".format(
                r.case, r.config, r.results_match, r.stats_match
            )
            for r in broken
        )
    budgeted = dict(sweeps)["morsel=7+workers=2+budget=8192"]
    assert any(r.row_spills for r in budgeted), "budget never forced a spill"
    unequal = [r for r in budgeted if r.row_spills != r.vector_spills]
    assert not unequal, "spill decisions depend on morsel shape: " + ", ".join(
        f"{r.case} row={r.row_spills} vector={r.vector_spills}"
        for r in unequal
    )


def test_fault_matrix_under_streaming_morsels():
    """Kernel faults inside fused, parallel pipelines still honour the
    resilience contract: degrade to a matching materialized run or surface
    a typed error naming the operator — never a silent divergence."""
    outcomes = run_fault_matrix(
        quick=True, overrides={"morsel_size": 7, "workers": 2}
    )
    assert outcomes, "matrix produced no injections"
    broken = fault_failures(outcomes)
    assert not broken, "fault contract violations: " + ", ".join(
        f"{o.case} [{o.engine}] {o.label} ({o.kind}): {o.mode} {o.detail}"
        for o in broken
    )
    assert any(o.mode == "degraded" for o in outcomes)
