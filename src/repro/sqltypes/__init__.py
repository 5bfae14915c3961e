"""SQL value domain: NULL, three-valued logic, and data types."""

from repro.sqltypes.datatypes import (
    BOOLEAN,
    CHAR,
    DATE,
    DECIMAL,
    FLOAT,
    INTEGER,
    SMALLINT,
    VARCHAR,
    DataType,
    type_from_name,
)
from repro.sqltypes.truth import (
    FALSE,
    TRUE,
    UNKNOWN,
    Truth,
    ceil_interpret,
    floor_interpret,
    from_bool,
    truth_all,
    truth_and,
    truth_any,
    truth_not,
    truth_or,
)
from repro.sqltypes.values import (
    NULL,
    NullsFirstKey,
    SqlValue,
    group_key,
    is_null,
    null_equal,
    null_equal_rows,
    sort_key,
    sql_compare_eq,
    sql_compare_ge,
    sql_compare_gt,
    sql_compare_le,
    sql_compare_lt,
    sql_compare_ne,
)

__all__ = [
    "BOOLEAN", "CHAR", "DATE", "DECIMAL", "FLOAT", "INTEGER", "SMALLINT",
    "VARCHAR", "DataType", "type_from_name",
    "FALSE", "TRUE", "UNKNOWN", "Truth", "ceil_interpret", "floor_interpret",
    "from_bool", "null_equal", "null_equal_rows", "truth_all", "truth_and",
    "truth_any", "truth_not", "truth_or",
    "NULL", "NullsFirstKey", "SqlValue", "group_key", "is_null", "sort_key",
    "sql_compare_eq", "sql_compare_ge", "sql_compare_gt", "sql_compare_le",
    "sql_compare_lt", "sql_compare_ne",
]
