"""Table → columnar-batch adapters for the vector backend.

A stored :class:`~repro.storage.table.Table` is row-major (a list of
:class:`Row` objects); the vector engine wants one list per column.  The
transpose happens once per scan, at C speed via ``zip(*rows)``, and the
resulting :class:`~repro.engine.vector.batch.ColumnBatch` carries the same
qualified column names (and optional ``<corr>.#rowid`` column) the row
executor's scan produces.

The batch is a :meth:`~repro.storage.table.Table.derived` value of the
table (a column-store cache): repeated scans of an unmodified table —
self-joins, repeated queries — reuse the transposed columns *and* their
cached numpy array views, until a mutation bumps :attr:`~Table.version`.
Batches are safe to share because the vector kernels never mutate column
data in place.
"""

from __future__ import annotations

from repro.engine.dataset import rowid_column
from repro.engine.vector.batch import ColumnBatch
from repro.storage.table import Table


def table_to_batch(
    table: Table, correlation: str, expose_rowids: bool = False
) -> ColumnBatch:
    """Scan ``table`` under ``correlation`` into a columnar batch."""
    return table.derived(
        ("columnar", correlation, expose_rowids),
        lambda: _transpose(table, correlation, expose_rowids),
    )


def _transpose(table: Table, correlation: str, expose_rowids: bool) -> ColumnBatch:
    names = [f"{correlation}.{c}" for c in table.column_names()]
    stored = table.rows()
    if stored:
        columns = [list(column) for column in zip(*(row.values for row in stored))]
    else:
        columns = [[] for __ in names]
    if expose_rowids:
        names.append(rowid_column(correlation))
        columns.append([row.rowid for row in stored])
    return ColumnBatch(names, columns, length=len(stored))
