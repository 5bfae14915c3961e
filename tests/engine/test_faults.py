"""Fault injection: typed errors, breadcrumbs, graceful degradation.

The unit half plants single faults and pins the resilience contract per
failure mode; the ``faults``-marked half sweeps the full injection
matrix (every operator of every workload case, both engines) — the CI
``fault-injection`` job runs it with ``pytest -m faults``.
"""

import pytest

from repro.algebra.ops import AggregateSpec, Apply, Group, Join, Relation, Select
from repro.catalog import Column, Database, PrimaryKeyConstraint, TableSchema
from repro.engine.executor import Executor, ExecutorConfig
from repro.engine.faults import FaultSpec, KernelFault, NetFaultSpec, inject
from tests.engine.differential import (
    fault_failures,
    render_fault_outcomes,
    run_fault_matrix,
)
from repro.errors import (
    ExecutionError,
    MemoryLimitExceeded,
    QueryTimeout,
    operator_path,
)
from repro.expressions.builder import col, count, eq, gt
from repro.sqltypes import INTEGER, VARCHAR


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        TableSchema(
            "D",
            [Column("k", INTEGER), Column("n", VARCHAR(5))],
            [PrimaryKeyConstraint(["k"])],
        )
    )
    database.create_table(
        TableSchema(
            "E",
            [Column("id", INTEGER), Column("k", INTEGER)],
            [PrimaryKeyConstraint(["id"])],
        )
    )
    for k in (1, 2, 3):
        database.insert("D", [k, f"d{k}"])
    for i in range(1, 13):
        database.insert("E", [i, (i % 3) + 1])
    return database


def plan():
    joined = Join(Relation("E", "E"), Relation("D", "D"), eq(col("E.k"), col("D.k")))
    return Apply(
        Group(Select(joined, gt(col("E.id"), 0)), ["D.k"]),
        [AggregateSpec("cnt", count(col("E.id")))],
    )


class TestRowEngineFaults:
    def test_kernel_fault_is_typed_with_breadcrumb(self, db):
        with inject(FaultSpec("kernel", engine="row", label="D")):
            with pytest.raises(KernelFault) as excinfo:
                Executor(db, ExecutorConfig()).run(plan())
        path = operator_path(excinfo.value)
        assert path, "breadcrumb missing"
        assert any("D" in frame for frame in path)
        assert "[at " in str(excinfo.value)

    def test_alloc_fault_becomes_memory_limit_exceeded(self, db):
        with inject(FaultSpec("alloc", engine="row")):
            with pytest.raises(MemoryLimitExceeded, match="allocation failed"):
                Executor(db, ExecutorConfig()).run(plan())

    def test_timeout_fault_surfaces_as_query_timeout(self, db):
        with inject(FaultSpec("timeout", engine="row")):
            with pytest.raises(QueryTimeout):
                Executor(db, ExecutorConfig()).run(plan())

    def test_join_breadcrumb_carries_child_position(self, db):
        with inject(FaultSpec("kernel", engine="row", label="D")):
            with pytest.raises(KernelFault) as excinfo:
                Executor(db, ExecutorConfig()).run(plan())
        # D is the right child of the join: its frame is position-tagged.
        assert any(frame.startswith("R:") for frame in operator_path(excinfo.value))


class TestVectorDegradation:
    def test_kernel_fault_degrades_to_row_engine(self, db, plant_faults):
        baseline, __ = Executor(db, ExecutorConfig(engine="vector")).run(plan())
        plant_faults(FaultSpec("kernel", engine="vector"))
        result, stats = Executor(db, ExecutorConfig(engine="vector")).run(plan())
        assert stats.degradations == 1
        assert stats.degradation_events
        assert "KernelFault" in stats.degradation_events[0]
        assert result.equals_multiset(baseline)
        assert result.ordering == baseline.ordering

    def test_degrade_false_surfaces_the_fault(self, db, plant_faults):
        plant_faults(FaultSpec("kernel", engine="vector"))
        config = ExecutorConfig(engine="vector", degrade=False)
        with pytest.raises(ExecutionError) as excinfo:
            Executor(db, config).run(plan())
        assert operator_path(excinfo.value)

    def test_alloc_fault_never_degrades(self, db, plant_faults):
        plant_faults(FaultSpec("alloc", engine="vector"))
        with pytest.raises(MemoryLimitExceeded) as excinfo:
            Executor(db, ExecutorConfig(engine="vector")).run(plan())
        assert operator_path(excinfo.value)

    def test_timeout_fault_never_degrades(self, db, plant_faults):
        plant_faults(FaultSpec("timeout", engine="vector"))
        with pytest.raises(QueryTimeout):
            Executor(db, ExecutorConfig(engine="vector")).run(plan())

    def test_every_degradation_is_counted(self, db, plant_faults):
        plant_faults(
            FaultSpec("kernel", engine="vector", occurrence=0),
            FaultSpec("kernel", engine="vector", occurrence=2),
        )
        result, stats = Executor(db, ExecutorConfig(engine="vector")).run(plan())
        assert stats.degradations == 2
        baseline, __ = Executor(db, ExecutorConfig(engine="vector")).run(plan())
        assert result.equals_multiset(baseline)


class TestInjectorMechanics:
    def test_occurrence_selects_the_nth_visit(self, db):
        with inject(FaultSpec("kernel", engine="row", label="E", occurrence=1)):
            # The plan scans E once; occurrence 1 never fires.
            result, __ = Executor(db, ExecutorConfig()).run(plan())
        assert result.cardinality == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("segfault")

    def test_injector_disarmed_after_context(self, db):
        with inject(FaultSpec("kernel", engine="row")):
            with pytest.raises(KernelFault):
                Executor(db, ExecutorConfig()).run(plan())
        result, __ = Executor(db, ExecutorConfig()).run(plan())
        assert result.cardinality == 3


@pytest.mark.faults
class TestFaultMatrix:
    def test_kernel_faults_degrade_or_surface_typed(self):
        outcomes = run_fault_matrix(quick=True, kinds=("kernel",))
        assert outcomes, "matrix planted no faults"
        assert not fault_failures(outcomes), render_fault_outcomes(outcomes)
        assert any(o.mode == "degraded" for o in outcomes)
        assert any(o.mode == "typed-error" for o in outcomes)

    def test_alloc_and_timeout_faults_always_typed(self):
        outcomes = run_fault_matrix(quick=True, kinds=("alloc", "timeout"))
        assert outcomes, "matrix planted no faults"
        assert not fault_failures(outcomes), render_fault_outcomes(outcomes)
        assert all(o.mode == "typed-error" for o in outcomes)


class TestNetFaultSpec:
    """The network-fault half of the injector: pure unit tests (no
    sockets) against :meth:`FaultInjector.network_actions` — the shard
    transport's per-message hook."""

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown network fault kind"):
            NetFaultSpec("melt")

    def test_count_and_rate_validated(self):
        with pytest.raises(ValueError, match="count"):
            NetFaultSpec("drop", count=0)
        with pytest.raises(ValueError, match="rate"):
            NetFaultSpec("drop", rate=1.5)

    def test_occurrence_window_fires_count_consecutive_messages(self):
        # occurrence=1, count=2: the 2nd and 3rd matching messages fire,
        # then the spec heals — a bounded partition window.
        with inject(
            NetFaultSpec("partition", shard="shard-0", occurrence=1, count=2)
        ) as injector:
            schedule = [
                bool(injector.network_actions("shard-0", "execute"))
                for __ in range(5)
            ]
        assert schedule == [False, True, True, False, False]

    def test_shard_and_op_filters(self):
        with inject(NetFaultSpec("drop", shard="shard-1", op="execute")) as injector:
            assert not injector.network_actions("shard-0", "execute")
            assert not injector.network_actions("shard-1", "ping")
            assert injector.network_actions("shard-1", "execute")

    def test_rate_mode_is_seeded_and_replayable(self):
        def schedule(seed):
            with inject(NetFaultSpec("drop", rate=0.4, seed=seed)) as injector:
                return [
                    bool(injector.network_actions("shard-0", "execute"))
                    for __ in range(30)
                ]

        first, second = schedule(11), schedule(11)
        assert first == second  # same seed, same schedule
        assert any(first) and not all(first)  # actually probabilistic
        assert schedule(12) != first  # a different seed reshuffles

    def test_session_scoped_spec_only_fires_in_scope(self):
        from repro.engine import faults as faults_module

        with inject(
            NetFaultSpec("partition", session="s1", count=10)
        ) as injector:
            assert not injector.network_actions("shard-0", "execute")
            with faults_module.scope("s2"):
                assert not injector.network_actions("shard-0", "execute")
            with faults_module.scope("s1"):
                assert injector.network_actions("shard-0", "execute")

    def test_mixed_inject_splits_operator_and_network_specs(self, db):
        # One context arms both halves; each fires only at its own hook.
        with inject(
            FaultSpec("kernel", engine="row"),
            NetFaultSpec("drop", op="execute"),
        ) as injector:
            assert injector.specs and injector.net_specs
            assert injector.network_actions("shard-0", "execute")
            with pytest.raises(KernelFault):
                Executor(db, ExecutorConfig()).run(plan())
        assert injector.net_fired and injector.fired

    def test_arm_net_while_live(self):
        with inject() as injector:
            assert not injector.network_actions("shard-0", "execute")
            injector.arm_net(NetFaultSpec("garble", op="execute"))
            assert injector.network_actions("shard-0", "execute")

    def test_module_hook_empty_when_disarmed(self):
        from repro.engine import faults as faults_module

        assert faults_module.network_actions("shard-0", "execute") == []
