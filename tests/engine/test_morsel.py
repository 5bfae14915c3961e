"""Streaming morsel pipelines: edge cases, cancellation, parallelism.

The morsel driver must be *invisible*: whatever the morsel size or worker
count, a query's results, ordering metadata, and resource behaviour match
the materialize-per-operator path (and the row engine).  These tests pin
the boundaries where that invisibility is most at risk — empty inputs,
one-row morsels, NULL-heavy group keys, cancellation mid-stream, the
multi-core merge, and the zero-copy slicing the whole design leans on.
"""

import pytest

import repro.engine.vector.batch as batch_module
from repro.algebra.ops import (
    AggregateSpec,
    Group,
    GroupApply,
    Join,
    Product,
    Project,
    Relation,
    Select,
    Sort,
)
from repro.catalog import Column, Database, PrimaryKeyConstraint, TableSchema
from repro.engine.executor import ExecutorConfig, execute
from repro.engine.governor import CancellationToken, ResourceGovernor
from repro.engine.stats import ExecutionStats
from repro.engine.vector.batch import ColumnBatch, _np
from repro.engine.vector.columnar import table_to_batch
from repro.engine.vector.morsel import MorselDriver
from repro.errors import QueryCancelled
from repro.expressions.builder import (
    avg,
    col,
    count,
    count_star,
    eq,
    gt,
    max_,
    min_,
    sum_,
)
from repro.sqltypes import INTEGER
from repro.sqltypes.values import NULL


def _db(rows, name="T", columns=("k", "v")):
    database = Database("morsels")
    database.create_table(
        TableSchema(name, [Column(c, INTEGER) for c in columns])
    )
    for row in rows:
        database.insert(name, list(row))
    return database


def _group_plan():
    filtered = Select(Relation("T", "T"), gt(col("T.v"), 2))
    return GroupApply(
        filtered,
        ["T.k"],
        [
            AggregateSpec("n", count_star()),
            AggregateSpec("s", sum_("T.v")),
            AggregateSpec("mn", min_("T.v")),
            AggregateSpec("mx", max_("T.v")),
            AggregateSpec("a", avg("T.v")),
        ],
    )


def _run(db, plan, **config):
    return execute(db, plan, ExecutorConfig(**config))


def _assert_matches_row_engine(db, plan, **vector_config):
    row_result, __ = _run(db, plan, engine="row")
    vec_result, vec_stats = _run(db, plan, engine="vector", **vector_config)
    assert vec_result.equals_multiset(row_result)
    return vec_result, vec_stats


# -- morsel-boundary edge cases ----------------------------------------------


@pytest.mark.parametrize("morsel_size", [1, 3, 7, 32768, None])
def test_empty_table(morsel_size):
    result, stats = _run(
        _db([]), _group_plan(), engine="vector", morsel_size=morsel_size
    )
    assert result.cardinality == 0


@pytest.mark.parametrize("morsel_size", [1, 3, 32768])
def test_single_row(morsel_size):
    result, __ = _run(
        _db([(1, 10)]), _group_plan(), engine="vector", morsel_size=morsel_size
    )
    assert sorted(map(tuple, result.rows)) == [(1, 1, 10, 10, 10, 10)]


@pytest.mark.parametrize("morsel_size", [1, 7, 1024])
@pytest.mark.parametrize("workers", [1, 2])
def test_grouped_aggregation_invariant(morsel_size, workers):
    rows = [(i % 13, (i * 7) % 101) for i in range(500)]
    _assert_matches_row_engine(
        _db(rows), _group_plan(), morsel_size=morsel_size, workers=workers
    )


@pytest.mark.parametrize("morsel_size", [1, 7, 1024])
@pytest.mark.parametrize("workers", [1, 2])
def test_null_heavy_group_keys(morsel_size, workers):
    # Every third key and every fourth value NULL: group_key NULL handling
    # and the accumulators' NULL-skip must survive morsel boundaries.
    rows = [
        (NULL if i % 3 == 0 else i % 5, NULL if i % 4 == 0 else i)
        for i in range(400)
    ]
    _assert_matches_row_engine(
        _db(rows), _group_plan(), morsel_size=morsel_size, workers=workers
    )


def test_distinct_projection_across_morsels():
    # DISTINCT dedups against a *global* seen-set, not per morsel.
    rows = [(i % 4, i % 3) for i in range(100)]
    plan = Project(Relation("T", "T"), ["T.k", "T.v"], distinct=True)
    result, __ = _run(_db(rows), plan, engine="vector", morsel_size=7)
    assert result.cardinality == 12


# -- pipeline statistics ------------------------------------------------------


def test_pipeline_stats_populated_and_rendered():
    rows = [(i % 5, i) for i in range(100)]
    __, stats = _run(
        _db(rows), _group_plan(), engine="vector", morsel_size=16
    )
    p = stats.pipelines
    assert p is not None
    assert p.segments >= 1
    assert p.morsels >= 100 // 16
    assert p.max_inflight_bytes > 0
    assert "pipelines:" in stats.summary()
    assert f"{p.morsels} morsels" in stats.summary()


def test_pipeline_stats_absent_when_streaming_disabled():
    rows = [(i % 5, i) for i in range(50)]
    __, stats = _run(_db(rows), _group_plan(), engine="vector", morsel_size=None)
    assert stats.pipelines is None
    assert "pipelines:" not in stats.summary()
    __, stats = _run(_db(rows), _group_plan(), engine="row")
    assert stats.pipelines is None


def test_inflight_bytes_track_morsel_size():
    # The whole point of streaming: peak in-flight bytes scale with the
    # morsel, not the table.  A 16x smaller morsel must shrink the
    # (chain-stage) in-flight peak, even with the aggregate state on top.
    # Beyond that the peak never decreases, only ties: a morsel at or above
    # the table's cardinality is one materialized morsel.
    db = _db([(i % 7, i) for i in range(4000)])
    peaks = [
        _run(db, _group_plan(), engine="vector", morsel_size=size)[1]
        .pipelines.max_inflight_bytes
        for size in (64, 1024, 4096, 32768)
    ]
    assert peaks[0] < peaks[1]
    assert peaks == sorted(peaks)


# -- cancellation and ticking -------------------------------------------------


class _TripwireToken(CancellationToken):
    """Cancels itself on the N-th ``cancelled`` check, counting accesses."""

    def __init__(self, trip_at):
        super().__init__()
        self.trip_at = trip_at
        self.accesses = 0

    @property
    def cancelled(self):
        self.accesses += 1
        if self.trip_at is not None and self.accesses >= self.trip_at:
            return True
        return self._cancelled


def _cancellation_plan():
    joined = Join(
        Relation("T", "T"), Relation("D", "D"), eq(col("T.k"), col("D.k"))
    )
    return GroupApply(
        Sort(joined, ["T.k"]),
        ["T.k"],
        [AggregateSpec("s", sum_("T.v"))],
    )


def _cancellation_db():
    database = _db([(i % 20, i) for i in range(600)])
    database.create_table(
        TableSchema("D", [Column("k", INTEGER), Column("name", INTEGER)])
    )
    for k in range(20):
        database.insert("D", [k, k])
    return database


@pytest.mark.parametrize("morsel_size", [2, 32768, None])
def test_cancellation_fires_at_every_check_boundary(morsel_size):
    """Sweep the trip point over every governor check of a multi-operator
    plan: wherever cancellation lands mid-plan — inside a streamed morsel
    loop, at an operator entry, in a blocking sort — the query must end in
    ``QueryCancelled``, never a silent completion."""
    db = _cancellation_db()
    probe = _TripwireToken(None)
    execute(
        db,
        _cancellation_plan(),
        ExecutorConfig(
            engine="vector", morsel_size=morsel_size, cancellation=probe
        ),
    )
    total = probe.accesses
    assert total >= 4, "plan too small to sweep"
    step = max(1, total // 12)  # a dozen probe points across the plan
    for trip_at in range(1, total + 1, step):
        token = _TripwireToken(trip_at)
        with pytest.raises(QueryCancelled):
            execute(
                db,
                _cancellation_plan(),
                ExecutorConfig(
                    engine="vector", morsel_size=morsel_size, cancellation=token
                ),
            )


def test_streaming_checks_scale_with_morsels():
    # Per-morsel ticks reach the governor: tiny morsels must produce
    # strictly more cancellation checks than one-shot materialization.
    db = _cancellation_db()
    counts = {}
    for morsel_size in (2, None):
        probe = _TripwireToken(None)
        execute(
            db,
            _cancellation_plan(),
            ExecutorConfig(
                engine="vector", morsel_size=morsel_size, cancellation=probe
            ),
        )
        counts[morsel_size] = probe.accesses
    assert counts[2] > counts[None]


def test_every_vector_operator_ticks():
    """Satellite regression: the pre-fix executor ticked only in _select.
    Every operator frame must now tick the governor at least once, so
    tick-driven checks cannot starve on plans avoiding selections."""
    from repro.engine.vector.executor import VectorExecutor

    db = _cancellation_db()
    plans = {
        "scan": Relation("T", "T"),
        "select": Select(Relation("T", "T"), gt(col("T.v"), 10)),
        "project": Project(Relation("T", "T"), ["T.k"]),
        "product": Product(
            Select(Relation("T", "T"), gt(col("T.v"), 590)), Relation("D", "D")
        ),
        "join": Join(
            Relation("T", "T"), Relation("D", "D"), eq(col("T.k"), col("D.k"))
        ),
        "group_apply": GroupApply(
            Relation("T", "T"), ["T.k"], [AggregateSpec("n", count_star())]
        ),
        "sort": Sort(Relation("T", "T"), ["T.k"]),
        "group": Group(Relation("T", "T"), ["T.k"]),
    }
    for name, plan in plans.items():
        executor = VectorExecutor(db, ExecutorConfig(engine="vector"))
        governor = ResourceGovernor()
        before = governor._ticks
        executor._execute(plan, ExecutionStats(), governor)
        # one tick per operator frame: the plan's own node plus its scans
        n_frames = 1 + sum(
            1 for a in ("child", "left", "right") if hasattr(plan, a)
        )
        assert governor._ticks - before >= n_frames, name


# -- multi-core dispatch ------------------------------------------------------


def test_parallel_segment_actually_runs_and_matches(monkeypatch):
    import repro.engine.vector.parallel as parallel

    calls = []
    original = parallel.run_parallel_segment

    def spy(**kwargs):
        outcome = original(**kwargs)
        calls.append(outcome)
        return outcome

    monkeypatch.setattr(parallel, "run_parallel_segment", spy)
    if not parallel.fork_available():
        pytest.skip("no fork on this platform")
    rows = [(i % 11, (i * 13) % 997) for i in range(3000)]
    __, vec_stats = _assert_matches_row_engine(
        _db(rows), _group_plan(), morsel_size=128, workers=2
    )
    assert calls, "parallel dispatch never engaged"
    assert any(outcome is not None for outcome in calls), (
        "every parallel attempt fell back to serial"
    )


def test_parallel_matches_serial_exactly():
    rows = [(i % 11, (i * 13) % 997) for i in range(3000)]
    db = _db(rows)
    serial, __ = _run(
        db, _group_plan(), engine="vector", morsel_size=128, workers=1
    )
    parallel_result, __ = _run(
        db, _group_plan(), engine="vector", morsel_size=128, workers=2
    )
    # Same morsel boundaries merged in range order: identical row order,
    # not merely the same multiset.
    assert list(map(tuple, serial.rows)) == list(map(tuple, parallel_result.rows))


def test_one_pool_process_serving_every_range(monkeypatch):
    # On a busy or single-core host one pool process picks up several
    # ranges.  Each partial must still cover only its own morsels: a
    # worker that carried stage counts or accumulators from one range
    # into the next would double-count rows and aggregate values.
    import repro.engine.vector.parallel as parallel

    if not parallel.fork_available():
        pytest.skip("no fork on this platform")
    fork = parallel._mp.get_context("fork")  # one object per start method
    real_pool = fork.Pool
    pools = []

    def one_process_pool(processes):
        pools.append(processes)
        return real_pool(processes=1)

    monkeypatch.setattr(fork, "Pool", one_process_pool)
    rows = [(i % 11, (i * 13) % 997) for i in range(3000)]
    db = _db(rows)
    serial, serial_stats = _run(
        db, _group_plan(), engine="vector", morsel_size=128, workers=1
    )
    shared, shared_stats = _run(
        db, _group_plan(), engine="vector", morsel_size=128, workers=4
    )
    assert pools == [4], "parallel dispatch never engaged"
    assert list(map(tuple, shared.rows)) == list(map(tuple, serial.rows))
    def counts(stats):
        return sorted(
            (node.kind, node.input_cardinalities, node.output_cardinality)
            for node in stats.nodes.values()
        )

    assert counts(shared_stats) == counts(serial_stats)
    kept = sum(1 for __, v in rows if v > 2)
    assert ("select", (3000,), kept) in counts(shared_stats)


def test_parallel_under_memory_budget_stays_deterministic():
    # With a budget the aggregate runs materialized (spill decisions are
    # global), so workers>1 must not change results or spill accounting.
    rows = [(i % 50, i) for i in range(2000)]
    db = _db(rows)
    solo, solo_stats = _run(
        db, _group_plan(), engine="vector", morsel_size=64,
        workers=1, memory_limit_bytes=8192,
    )
    multi, multi_stats = _run(
        db, _group_plan(), engine="vector", morsel_size=64,
        workers=2, memory_limit_bytes=8192,
    )
    assert multi.equals_multiset(solo)
    assert multi_stats.spill_count == solo_stats.spill_count


# -- zero-copy morsel views ---------------------------------------------------


def test_morsel_slices_share_scan_buffers():
    """A contiguous morsel slice of a cached scan column is a numpy view
    over the same base buffer — no per-morsel copies of input data."""
    if _np is None:
        pytest.skip("numpy unavailable")
    db = _db([(i % 5, i) for i in range(256)])
    batch = table_to_batch(db.table("T"), "T")
    whole = batch.as_array(1)  # warm the column cache
    assert whole is not None
    morsel = batch.slice(64, 192)
    part = morsel.as_array(morsel.names.index(batch.names[1]))
    assert part is not None
    assert _np.shares_memory(part, whole)
    assert list(part) == list(whole[64:192])


def test_nested_slices_stay_zero_copy():
    if _np is None:
        pytest.skip("numpy unavailable")
    db = _db([(i, i * 2) for i in range(100)])
    batch = table_to_batch(db.table("T"), "T")
    whole = batch.as_array(0)
    inner = batch.slice(10, 90).slice(5, 40)
    part = inner.as_array(0)
    assert part is not None
    assert _np.shares_memory(part, whole)
    assert list(part) == list(whole[15:50])


@pytest.mark.skipif(_np is None, reason="counts array conversions")
def test_slices_of_a_materialized_gather_view_its_one_array(monkeypatch):
    """A gather that has been read is a plain list from then on: its
    slices view the array its batch converted once, not each a new one."""
    rows = 1000
    taken = ColumnBatch.from_rows(("k",), [(i,) for i in range(rows)]).take(
        list(range(rows - 1, -1, -1))
    )
    taken.columns[0].materialize()
    converted = []
    real = batch_module._sequence_array

    def counting(sequence):
        converted.append(len(sequence))
        return real(sequence)

    monkeypatch.setattr(batch_module, "_sequence_array", counting)
    whole = taken.as_array(0)  # what the morsel pre-warm converts
    for start in range(0, rows, 200):
        part = taken.slice(start, start + 200).as_array(0)
        assert _np.shares_memory(part, whole)
        assert part.tolist() == list(range(rows - 1 - start, rows - 201 - start, -1))
    assert converted == [rows]


@pytest.mark.skipif(_np is None, reason="inspects the array cache")
def test_the_prewarm_leaves_a_join_output_ungathered(monkeypatch):
    """The streamed MIN/MAX shape: a join's output feeds a grouped fold in
    morsels.  A morsel gathers its own rows through its slice of the
    selection; a full-length gather of a join-output column is read by no
    morsel, so the pre-warm makes none — it converts the sources only."""
    database = _db([(i % 40, i) for i in range(512)])
    database.create_table(TableSchema("D", [Column("k", INTEGER), Column("w", INTEGER)]))
    for k in range(40):
        database.insert("D", [k, k * 3])
    plan = GroupApply(
        Join(Relation("T", "T"), Relation("D", "D"), eq(col("T.k"), col("D.k"))),
        ["D.k"],
        [AggregateSpec("lo", min_("T.v")), AggregateSpec("hi", max_("T.v"))],
    )
    sources = []
    real = MorselDriver._stream

    def capturing(self, bottom_up, source, *rest):
        sources.append(source)
        return real(self, bottom_up, source, *rest)

    monkeypatch.setattr(MorselDriver, "_stream", capturing)
    __, stats = _assert_matches_row_engine(
        database, plan, morsel_size=64, workers=1
    )
    assert stats.pipelines.morsels == 8
    (source,) = sources
    assert len(source.columns) == 4
    full = [i for i, array in source._arrays.items() if array is not None]
    assert full == []
    # What the morsels read is converted, where it lives: the join's sides.
    assert all(column.source_array is not None for column in source.columns)
