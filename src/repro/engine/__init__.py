"""Physical execution: datasets, operators, executor, and statistics."""

from repro.engine.dataset import DataSet, rowid_column
from repro.engine.executor import Executor, ExecutorConfig, execute
from repro.engine.stats import ExecutionStats, NodeStats

__all__ = [
    "DataSet", "Executor", "ExecutorConfig", "execute", "rowid_column",
    "ExecutionStats", "NodeStats",
]
