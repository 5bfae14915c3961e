"""Satellites: the worker-count autotuner and the MIN/MAX morsel kernel."""

from __future__ import annotations

import pytest

from repro.algebra.ops import AggregateSpec, GroupApply, Relation
from repro.catalog import Column, Database, TableSchema
from repro.costing.cost import MAX_AUTO_WORKERS, resolve_workers
from repro.engine.executor import ExecutorConfig, execute
from repro.engine.vector.batch import ColumnBatch, _np
from repro.engine.vector.grouping import _exact_array
from repro.expressions.builder import max_, min_
from repro.sqltypes import FLOAT, INTEGER
from repro.sqltypes.values import NULL


class TestWorkerAutotuner:
    def test_explicit_counts_pass_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7
        # Oversubscription is honored as-is (tests rely on it).
        assert resolve_workers(64) == 64

    def test_auto_clamps_to_cpu_count(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_workers(0) == 6
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_workers(0) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers(0) == 1

    def test_auto_caps_at_max_auto_workers(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 128)
        assert resolve_workers(0) == MAX_AUTO_WORKERS

    def test_config_accepts_auto_sentinel(self):
        assert ExecutorConfig(workers=0).workers == 0
        with pytest.raises(ValueError):
            ExecutorConfig(workers=-1)

    def test_morsel_driver_resolves_auto(self, monkeypatch):
        import os

        from repro.engine.executor import Executor
        from repro.engine.vector.morsel import MorselDriver

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        executor = Executor(
            Database(), ExecutorConfig(engine="vector", workers=0)
        )
        assert MorselDriver(executor).workers == 4

    def test_cli_parse_workers(self):
        from repro.cli import parse_workers

        assert parse_workers("auto") == 0
        assert parse_workers("3") == 3
        with pytest.raises(ValueError):
            parse_workers("0")
        with pytest.raises(ValueError):
            parse_workers("fast")

    def test_auto_execution_matches_serial(self):
        database = _minmax_db([(i % 5, i * 7 % 113) for i in range(500)])
        serial, __ = execute(
            database, _minmax_plan(),
            ExecutorConfig(engine="vector", morsel_size=64, workers=1),
        )
        auto, __ = execute(
            database, _minmax_plan(),
            ExecutorConfig(engine="vector", morsel_size=64, workers=0),
        )
        assert auto.equals_multiset(serial)


def _minmax_db(rows, value_type=INTEGER):
    database = Database("minmax")
    database.create_table(
        TableSchema("T", [Column("k", INTEGER), Column("v", value_type)])
    )
    for key, value in rows:
        database.insert("T", [key, value])
    return database


def _minmax_plan():
    return GroupApply(
        Relation("T", "T"),
        ("T.k",),
        (
            AggregateSpec("lo", min_("T.v")),
            AggregateSpec("hi", max_("T.v")),
        ),
    )


def _run(database, morsel_size=None, engine="vector"):
    result, __ = execute(
        database, _minmax_plan(),
        ExecutorConfig(engine=engine, morsel_size=morsel_size),
    )
    return result


class TestMinMaxKernel:
    def test_streamed_matches_row_engine_ints(self):
        rows = [(i % 7, (i * 31) % 200 - 100) for i in range(300)]
        database = _minmax_db(rows)
        streamed = _run(database, morsel_size=32)
        assert streamed.equals_multiset(_run(database, engine="row"))

    def test_streamed_matches_row_engine_floats(self):
        rows = [(i % 4, float((i * 13) % 50) / 4.0) for i in range(200)]
        database = _minmax_db(rows, value_type=FLOAT)
        streamed = _run(database, morsel_size=16)
        assert streamed.equals_multiset(_run(database, engine="row"))

    @pytest.mark.skipif(_np is None, reason="numpy not available")
    def test_fast_path_fires_on_direct_columns(self):
        batch = ColumnBatch(("k", "v"), [[i % 3 for i in range(9)], list(range(9))])
        arr = _exact_array(batch.columns[1], batch, direct_only=True)
        assert arr is not None and arr.dtype.kind == "i"
        # ... and through a morsel's zero-copy slice of the same column.
        part = batch.slice(3, 6)
        assert _exact_array(part.columns[1], part, direct_only=True).tolist() == [3, 4, 5]

    def test_nulls_fall_back_and_stay_correct(self):
        database = Database("withnull")
        database.create_table(
            TableSchema(
                "T", [Column("k", INTEGER), Column("v", INTEGER, nullable=True)]
            )
        )
        for i in range(60):
            database.insert("T", [i % 3, NULL if i % 5 == 0 else i])
        streamed = _run(database, morsel_size=8)
        assert streamed.equals_multiset(_run(database, engine="row"))

    @pytest.mark.skipif(_np is None, reason="numpy not available")
    def test_minmax_array_refuses_nan(self):
        clean = [1.0, 2.0, 3.0]
        dirty = [1.0, float("nan"), 3.0]
        batch = ColumnBatch(("a", "b"), [clean, dirty])
        arr = _exact_array(clean, batch, direct_only=True)
        assert arr is not None and arr.dtype.kind == "f"
        assert _exact_array(dirty, batch, direct_only=True) is None
        # A list that is not a batch column (computed argument): MIN/MAX
        # refuse it, SUM takes it under the same census.
        assert _exact_array([1.0, 2.0, 3.0], batch, direct_only=True) is None
        assert _exact_array([1.0, 2.0, 3.0], batch, direct_only=False) is not None
        assert _exact_array([1, 2.0, 3.0], batch, direct_only=False) is None

    def test_tie_winner_matches_row_engine(self):
        """Duplicate extremes: the fold keeps the globally-first value;
        the kernel's strict merge must preserve that bit-for-bit."""
        rows = [(0, 5), (0, 5), (0, 5), (1, -2), (1, -2)]
        database = _minmax_db(rows)
        streamed = _run(database, morsel_size=2)
        assert streamed.equals_multiset(_run(database, engine="row"))
