"""The repository's end-to-end benchmark (see bench/README.md).

Four named workloads, client-observed metrics measured with tracing off,
and an outside-in per-layer trace recorded from this package's own files
around calls into the program's public functions.
"""
