"""Property: the column-major Exchange merge equals the row-major one it
replaced.

A shard answers with one **block** — its result's columns, pickled once
below the wire — and the coordinator merges blocks without building a row:
each column concatenated across deliveries, ordered by the Sort operator's
kernel — a stable argsort of the RowID column handed to ``ColumnBatch.take``.  The merge this replaced
concatenated row tuples, sorted them by a Python key and re-cut them with
``itemgetter``; it lives on here as the oracle.  For 1–4 deliveries (empty
ones included) whose RowIDs interleave arbitrarily, over columns of int /
float / ``Decimal`` / str / NULL / BOOLEAN, with the RowID column kept and
stripped, on both engines, with numpy and with the sort kernel's taken away:
the merged rows are the concatenation sorted by RowID, value for value and
type for type.

The blocks are replayed by a stand-in backend, so everything the coordinator
does to a response — opening the block through the restricted unpickler,
checking it against the row count beside it, the merge, the row engine's one
``to_dataset()`` — is under test and nothing below the wire is.
"""

import sys
from operator import itemgetter
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.ops import Exchange, Relation
from repro.catalog.catalog import Database
from repro.catalog.schema import Column, TableSchema
from repro.engine import exchange, shardrpc
from repro.engine.executor import Executor, ExecutorConfig
from repro.engine.vector import kernels
from repro.engine.wire import PartitionStore, restricted_loads, wire_dumps
from repro.errors import WireFormatError
from repro.sqltypes.datatypes import INTEGER
from repro.sqltypes.values import NULL

ROWID = "T.#rowid"


def row_major_merge(columns, ordering, deliveries, ordinal_column, keep_rowids):
    """The merge ``exchange._merge_ordinal`` was before blocks: the oracle."""
    ordinal_index = columns.index(ordinal_column)
    rows = [row for delivery in deliveries for row in delivery]
    rows.sort(key=lambda row: row[ordinal_index])
    if keep_rowids:
        return columns, rows, ordering
    kept = [i for i in range(len(columns)) if i != ordinal_index]
    out_columns = tuple(columns[i] for i in kept)
    if len(kept) == 1:  # itemgetter of one index returns a scalar, not a row
        out_rows = [(row[kept[0]],) for row in rows]
    else:
        out_rows = list(map(itemgetter(*kept), rows))
    out_ordering = tuple(name for name in ordering if name != ordinal_column)
    return out_columns, out_rows, out_ordering


def block_response(names, ordering, rows):
    """What ``run_shard`` answers for a result of ``rows``."""
    columns = [list(column) for column in zip(*rows)] if rows else [[] for __ in names]
    return {
        "op": "result",
        "request_id": None,
        "columns": tuple(names),
        "ordering": tuple(ordering),
        "block": wire_dumps(columns),
        "row_count": len(rows),
        "degradations": 0,
        "degradation_events": [],
        "spill_count": 0,
        "spilled_rows": 0,
    }


class Replay:
    """The three members the delivery loop uses of a backend; delivery
    ``index`` is answered with ``responses[index]``."""

    def __init__(self, responses):
        self.responses = responses
        self.counters = shardrpc.RpcCounters()

    def execute(self, index, request):
        return {**self.responses[index], "worker": index}

    def health(self):
        return []


def merged_above_the_wire(responses, engine, keep_rowids):
    """Run one ship-all Exchange whose deliveries are ``responses``."""
    database = Database()
    database.create_table(TableSchema("T", [Column("k", INTEGER)]))
    node = Exchange(Relation("T", "T"), shards=len(responses))
    config = ExecutorConfig(engine=engine, expose_rowids=keep_rowids)
    with patch.object(
        exchange, "_shard_backend", lambda *__: Replay(responses)
    ):
        result, stats = Executor(database, config).run_prepared(node)
    return result, stats


def typed(rows):
    """Rows as ``(repr, type)`` cells: ``1``, ``1.0``, ``True`` and
    ``Decimal(1)`` compare equal, and so do ``0.0`` and ``-0.0``."""
    return [[(repr(value), type(value)) for value in row] for row in rows]


def kinds():
    """What one value column holds: any mix, or one kind (the case with an
    array view).  Built when drawn, not at import: ``just``, ``booleans`` and
    ``sampled_from`` read ``sys.modules["numpy"]``, and this file must still
    collect where that is ``None`` (see :data:`numpy_blocked`)."""
    mixed = st.one_of(
        st.integers(-5, 5),
        st.integers(-(2 ** 70), 2 ** 70),  # past int64: no array view
        st.floats(allow_nan=False),
        st.decimals(allow_nan=False, allow_infinity=False, places=2),
        st.text(max_size=3),
        st.booleans(),
        st.just(NULL),
    )
    return st.sampled_from([mixed, st.integers(-9, 9), st.floats(-1, 1)])


@st.composite
def shipped(draw):
    """``(names, ordering, deliveries)``: up to three value columns — each
    of one kind (the case with an array view) or mixed — and the RowID
    column among them, the rows dealt to 1–4 deliveries in drawn order."""
    width = draw(st.integers(1, 3))
    rowids = draw(st.lists(st.integers(0, 10 ** 6), unique=True, max_size=24))
    value_columns = [
        draw(st.lists(draw(kinds()), min_size=len(rowids), max_size=len(rowids)))
        for __ in range(width)
    ]
    position = draw(st.integers(0, width))
    names = [f"T.c{i}" for i in range(width)]
    names.insert(position, ROWID)
    rows = []
    for rowid, values in zip(rowids, zip(*value_columns)):
        row = list(values)
        row.insert(position, rowid)
        rows.append(tuple(row))
    n_deliveries = draw(st.integers(1, 4))
    deliveries = [[] for __ in range(n_deliveries)]
    for row in rows:
        deliveries[draw(st.integers(0, n_deliveries - 1))].append(row)
    ordering = draw(
        st.sampled_from([(), (ROWID,), (names[0],), (names[-1], ROWID)])
    )
    return tuple(names), ordering, deliveries


#: ``sys.modules["numpy"] = None`` (the verify skill's in-process pure-python
#: run) breaks hypothesis itself; CI's ``pure-python`` job has numpy not
#: installed, which does not, and runs the property.
numpy_blocked = pytest.mark.skipif(
    sys.modules.get("numpy", ...) is None, reason="hypothesis needs numpy unblocked"
)


@numpy_blocked
@pytest.mark.parametrize("with_numpy", [True, False], ids=["numpy", "sorted"])
@pytest.mark.parametrize("keep_rowids", [False, True], ids=["stripped", "kept"])
@pytest.mark.parametrize("engine", ["row", "vector"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=shipped())
def test_merged_blocks_equal_the_row_major_merge(engine, keep_rowids, with_numpy, case):
    if with_numpy and kernels._np is None:
        pytest.skip("numpy is not installed: the other parameter covers it")
    names, ordering, deliveries = case
    responses = [block_response(names, ordering, rows) for rows in deliveries]
    with patch.object(kernels, "_np", kernels._np if with_numpy else None):
        result, stats = merged_above_the_wire(responses, engine, keep_rowids)
    columns, rows, out_ordering = row_major_merge(
        names, ordering, deliveries, ROWID, keep_rowids
    )
    assert result.columns == columns
    assert typed(result.rows) == typed(rows)
    assert all(isinstance(row, tuple) for row in result.rows)
    assert result.ordering == out_ordering
    [shipment] = stats.exchanges
    assert shipment.rows_shipped == len(rows)
    assert shipment.bytes_shipped == sum(len(r["block"]) for r in responses)


@pytest.mark.parametrize("engine", ["row", "vector"])
def test_a_block_of_no_rows_carries_its_row_count(engine):
    """A list of columns has no length to read when it holds none, and an
    empty one looks like any other: the count travels beside the block."""
    database = Database()
    database.create_table(TableSchema("T", [Column("k", INTEGER)]))
    request = {
        **exchange.shard_request(
            "T", Relation("T", "T"), None, ExecutorConfig(engine=engine)
        ),
        "partition": "empty",
        "table": database.table("T"),
    }
    response = exchange.run_shard(request, PartitionStore())
    assert response["op"] == "result" and response["row_count"] == 0
    assert response["columns"] == ("T.k", ROWID)
    assert isinstance(response["block"], bytes)
    assert restricted_loads(response["block"]) == [[], []]
    result, __ = merged_above_the_wire([response, response], engine, False)
    assert (result.columns, result.rows) == (("T.k",), [])


@pytest.mark.parametrize(
    "tamper",
    [
        lambda response: {**response, "row_count": response["row_count"] + 1},
        lambda response: {**response, "columns": response["columns"] + ("T.x",)},
        lambda response: {**response, "block": wire_dumps([(1, 2), (3, 4)])},
        lambda response: {**response, "block": wire_dumps({"not": "columns"})},
    ],
    ids=["count", "width", "tuples", "dict"],
)
def test_a_block_that_is_not_what_its_response_says_is_refused(tamper):
    response = tamper(block_response(("T.k", ROWID), (), [(7, 0), (8, 1)]))
    with pytest.raises(WireFormatError, match="shard block"):
        merged_above_the_wire([response], "vector", False)
