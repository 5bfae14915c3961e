"""In-flight relations: named columns plus a multiset of value tuples.

A :class:`DataSet` is what physical operators produce and consume.  Columns
carry qualified names (``"E.DeptID"``); derived columns (aggregate outputs)
may be bare names.  Rows are plain tuples of SQL values.

Multiset comparison uses the ``=ⁿ`` duplicate semantics of the paper
(:func:`repro.sqltypes.values.group_key`), which is exactly what "E1 and E2
produce the same result" means in the theorems.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import BindingError
from repro.expressions.eval import RowScope
from repro.sqltypes.values import NULL, SqlValue, group_key, sort_key

#: The value types on which raw equality is ``=ⁿ``: an int equals only an
#: equal int, a str an equal str, and the one NULL object only itself.
#: Exact types only: ``bool`` (an int subclass) keys apart from ``1`` under
#: ``=ⁿ``, and a float or Decimal may be NaN, which a dict matches only by
#: identity.
PLAIN_TYPES = frozenset((int, str, type(NULL)))


def rowid_column(correlation: str) -> str:
    """Name of the hidden RowID column exposed for correlation ``corr``."""
    return f"{correlation}.#rowid"


class DataSet:
    """A bag of rows under a fixed column layout.

    ``ordering`` is a *physical property*: the columns the rows are known
    to be sorted by (ascending, NULLS FIRST), empty when unknown.  The
    executor propagates it so downstream operators can exploit interesting
    orders — the §2 pipelining observation and §7's "the resulting table is
    normally sorted based on the grouping columns" remark.
    """

    __slots__ = ("columns", "rows", "_index", "ordering")

    def __init__(
        self,
        columns: Sequence[str],
        rows: Iterable[Tuple[SqlValue, ...]] = (),
        ordering: Sequence[str] = (),
    ) -> None:
        self.columns: Tuple[str, ...] = tuple(columns)
        self.rows: List[Tuple[SqlValue, ...]] = [tuple(row) for row in rows]
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self.columns)}
        self.ordering: Tuple[str, ...] = tuple(ordering)

    # -- shape -------------------------------------------------------------

    @property
    def cardinality(self) -> int:
        return len(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple[SqlValue, ...]]:
        return iter(self.rows)

    def index_of(self, column: str) -> int:
        """Resolve a column name; bare names match a unique qualified one."""
        if column in self._index:
            return self._index[column]
        matches = [
            i
            for name, i in self._index.items()
            if name.rsplit(".", 1)[-1] == column
        ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise BindingError(f"dataset has no column {column!r}: {self.columns}")
        raise BindingError(f"ambiguous column {column!r} in {self.columns}")

    def indexes_of(self, columns: Sequence[str]) -> Tuple[int, ...]:
        return tuple(self.index_of(column) for column in columns)

    # -- row access ----------------------------------------------------------

    def scope(self, row: Tuple[SqlValue, ...]) -> RowScope:
        return RowScope.from_pairs(self.columns, row)

    def values_at(
        self, row: Tuple[SqlValue, ...], indexes: Sequence[int]
    ) -> Tuple[SqlValue, ...]:
        return tuple(row[i] for i in indexes)

    def project(self, columns: Sequence[str]) -> "DataSet":
        """π^A: positional projection without duplicate elimination.

        The ordering property survives up to the longest prefix whose
        columns are all retained.
        """
        indexes = self.indexes_of(columns)
        kept = {self.columns[i] for i in indexes}
        surviving: list[str] = []
        for column in self.ordering:
            if column in kept:
                surviving.append(column)
            else:
                break
        return DataSet(
            [self.columns[i] for i in indexes],
            (tuple(row[i] for i in indexes) for row in self.rows),
            ordering=surviving,
        )

    def rename(self, mapping: Dict[str, str]) -> "DataSet":
        """Rename columns (old qualified name -> new name)."""
        renamed = tuple(mapping.get(name, name) for name in self.columns)
        result = DataSet(renamed)
        result.rows = self.rows  # safe: rows are immutable tuples
        return result

    # -- comparison ------------------------------------------------------------

    def multiset_key(self) -> Counter:
        """A canonical multiset fingerprint under ``=ⁿ`` duplicate semantics."""
        return Counter(group_key(row) for row in self.rows)

    def equals_multiset(self, other: "DataSet") -> bool:
        """Bag equality with NULL=NULL duplicate semantics.

        Column *names* are not compared (E1 and E2 may label the aggregate
        output differently); arity and content are.  When every value on
        both sides is an exact ``int``, ``str`` or NULL (the census gate
        of :data:`PLAIN_TYPES`), the raw rows are counted: there, tuple
        equality is ``=ⁿ``.  Any other value takes :meth:`multiset_key`.
        """
        if len(self.columns) != len(other.columns):
            return False
        if len(self.rows) != len(other.rows):
            return False
        if all(
            PLAIN_TYPES.issuperset(map(type, chain.from_iterable(side.rows)))
            for side in (self, other)
        ):
            return Counter(self.rows) == Counter(other.rows)
        return self.multiset_key() == other.multiset_key()

    def sorted_rows(self) -> List[Tuple[SqlValue, ...]]:
        """Rows in a deterministic order (NULLS FIRST) for display/tests."""
        return sorted(self.rows, key=sort_key)

    def to_pretty(self, limit: int = 20) -> str:
        """A small fixed-width table rendering for examples and debugging.

        Rows print in their current order (so ORDER BY results display as
        ordered); use :meth:`sorted_rows` for a canonical order.
        """
        header = list(self.columns)
        body = [
            ["NULL" if repr(v) == "NULL" else str(v) for v in row]
            for row in self.rows[:limit]
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(header, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        lines.extend(
            " | ".join(v.ljust(w) for v, w in zip(row, widths)) for row in body
        )
        if self.cardinality > limit:
            lines.append(f"... ({self.cardinality - limit} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"DataSet({self.columns}, {self.cardinality} rows)"
