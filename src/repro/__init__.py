"""groupby-pushdown: a reproduction of Yan & Larson, *Performing Group-By
before Join* (ICDE 1994).

The package layers a strict-SQL2 query engine (catalog, three-valued logic,
algebra, physical operators) beneath the paper's contribution: the E1 <-> E2
transformation, the Main Theorem's FD1/FD2 conditions, and the TestFD
compile-time test.

Typical entry points:

* :class:`Session` — parse-and-run SQL with cost-based eager/standard
  plan choice;
* :class:`GroupByJoinQuery` + :func:`test_fd` / :func:`transform` — the
  programmatic transformation API;
* :mod:`repro.main_theorem` — instance-level verification of the
  theorem.
"""

from repro.analysis.verifier import transform
from repro.catalog import (
    Assertion,
    CheckConstraint,
    Column,
    Database,
    Domain,
    ForeignKeyConstraint,
    NotNullConstraint,
    PrimaryKeyConstraint,
    TableSchema,
    UniqueConstraint,
)
from repro.core import (
    FlatQuery,
    GroupByJoinQuery,
    TestFDResult,
    build_eager_plan,
    build_standard_plan,
    check_transformable,
    test_fd,
)
from repro.engine import DataSet, Executor, ExecutorConfig, execute
from repro.errors import (
    BindingError,
    CatalogError,
    ConstraintViolation,
    ExecutionError,
    ParseError,
    PlanningError,
    ReproError,
    TransformationError,
    TypeMismatchError,
)
from repro.fd import FunctionalDependency, TableBinding
from repro.optimizer.planner import PlanChoice, Planner
from repro.session import QueryReport, Session
from repro.sqltypes import (
    BOOLEAN,
    CHAR,
    DATE,
    DECIMAL,
    FLOAT,
    INTEGER,
    NULL,
    SMALLINT,
    VARCHAR,
)

__version__ = "1.0.0"

__all__ = [
    "Assertion", "CheckConstraint", "Column", "Database", "Domain",
    "ForeignKeyConstraint", "NotNullConstraint", "PrimaryKeyConstraint",
    "TableSchema", "UniqueConstraint",
    "FlatQuery", "GroupByJoinQuery", "TestFDResult", "build_eager_plan",
    "build_standard_plan", "check_transformable", "test_fd", "transform",
    "DataSet", "Executor", "ExecutorConfig", "execute",
    "BindingError", "CatalogError", "ConstraintViolation", "ExecutionError",
    "ParseError", "PlanningError", "ReproError", "TransformationError",
    "TypeMismatchError",
    "FunctionalDependency", "TableBinding",
    "PlanChoice", "Planner",
    "QueryReport", "Session",
    "BOOLEAN", "CHAR", "DATE", "DECIMAL", "FLOAT", "INTEGER", "NULL",
    "SMALLINT", "VARCHAR",
    "__version__",
]
