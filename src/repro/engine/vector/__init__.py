"""The vectorized execution backend: columnar batches + compiled kernels.

Selected with ``ExecutorConfig(engine="vector")``; the default row backend
stays untouched.  Operators consume and produce :class:`ColumnBatch`
(column-major data with a per-column type census), predicates and
scalar expressions are compiled once per operator to closures over whole
columns (:mod:`repro.engine.vector.compile`), and every kernel reports the
same :class:`~repro.engine.stats.ExecutionStats` counters as the row
engine so the paper's §7 cost study is backend-independent.
"""
