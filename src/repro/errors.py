"""Exception hierarchy for the groupby-pushdown engine.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch one type.  The subtypes mirror the layers of the system: typing,
catalog/constraints, parsing, planning/execution, and the transformation
theory itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TypeMismatchError(ReproError):
    """A value does not conform to the SQL data type it was declared with."""


class CatalogError(ReproError):
    """A schema-level problem: unknown table/column, duplicate definition."""


class ConstraintViolation(ReproError):
    """An insert or update violates a declared integrity constraint."""

    def __init__(self, constraint_name: str, message: str) -> None:
        super().__init__(f"{constraint_name}: {message}")
        self.constraint_name = constraint_name


class ParseError(ReproError):
    """The SQL text could not be parsed.

    Carries the (1-based) line and column of the offending token when known.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class BindingError(ReproError):
    """A name in a query could not be resolved against the catalog."""


class ExecutionError(ReproError):
    """A runtime failure while evaluating a plan (e.g. bad aggregate input)."""


class ResourceError(ExecutionError):
    """A declared resource budget was exhausted during execution.

    Subtypes name the budget dimension (memory, wall-clock, rows,
    cancellation).  Resource errors are *not* degradable: the vector
    engine's kernel-failure fallback never retries them, because the row
    engine shares the same budget and would only fail later.
    """


class MemoryLimitExceeded(ResourceError):
    """An operator's working set exceeded ``memory_limit_bytes`` and could
    not (or was not allowed to) spill to disk."""


class QueryTimeout(ResourceError):
    """Execution exceeded the ``timeout_seconds`` budget."""


class QueryCancelled(ResourceError):
    """The query's :class:`~repro.engine.governor.CancellationToken` was
    cancelled; raised cooperatively at a batch/row-loop boundary."""


class RowLimitExceeded(ResourceError):
    """An operator produced more rows than the ``max_rows`` budget allows."""


class AdmissionRejected(ResourceError):
    """The server's admission controller refused to start the query.

    Unlike the other resource errors this fires *before* any execution:
    the server-level budget pool (concurrent-query slots, memory pool,
    per-tenant quotas — see :mod:`repro.server.admission`) had no room.
    Carries which ``resource`` was exhausted (``"slots"``, ``"memory"``,
    ``"tenant-slots"``, ``"tenant-memory"``) and a ``retry_after`` hint in
    seconds — the contract the client-side backoff helper
    (:func:`repro.engine.retry.call_with_backoff`) builds on.  Shares the
    resource exit-code family (5).
    """

    def __init__(
        self, message: str, resource: str = "slots", retry_after: float = 0.05
    ) -> None:
        super().__init__(f"{message} (retry after {retry_after:.3f}s)")
        self.resource = resource
        self.retry_after = retry_after


def annotate_operator(error: BaseException, frame: str) -> None:
    """Append a plan-node breadcrumb to an in-flight error.

    Each executor dispatch frame the error propagates through calls this
    with its operator label, so the final message carries the full path
    from the failing operator up to the plan root, innermost first —
    e.g. ``Join[E.DeptID = D.DeptID]/G[D.DeptID] F[cnt]``.  Idempotent
    per frame; the original message is preserved in ``bare_message``.
    """
    path = getattr(error, "operator_path", ())
    error.operator_path = path + (frame,)  # type: ignore[attr-defined]
    bare = getattr(error, "bare_message", None)
    if bare is None:
        bare = error.args[0] if error.args else str(error)
        error.bare_message = bare  # type: ignore[attr-defined]
    error.args = (f"{bare} [at {'/'.join(error.operator_path)}]",)


def operator_path(error: BaseException) -> tuple:
    """The breadcrumb trail attached by :func:`annotate_operator` (may be
    empty for errors raised outside any operator frame)."""
    return tuple(getattr(error, "operator_path", ()))


def raise_through_frames(error: BaseException, frames, wrap_bare: bool = False):
    """Re-raise ``error`` as it leaves the operator frame(s) ``frames``.

    What every executor frame does with an escaping exception: a raw
    :class:`MemoryError` becomes the typed :class:`MemoryLimitExceeded`,
    with ``wrap_bare`` any other non-Repro exception becomes an
    :class:`ExecutionError` (so nothing escapes the vector engine bare),
    and the typed error gains one breadcrumb per frame, innermost first.
    """
    if isinstance(error, MemoryError):
        typed: BaseException = MemoryLimitExceeded(f"allocation failed: {error}")
    elif isinstance(error, ReproError) or not wrap_bare:
        typed = error
    else:
        typed = ExecutionError(f"{type(error).__name__}: {error}")
    if isinstance(typed, ReproError):
        for frame in frames:
            annotate_operator(typed, frame)
    if typed is error:
        raise error
    raise typed from error


def error_exit_code(error: BaseException) -> int:
    """The ``repro`` CLI's exit-code family for an error.

    parse = 2, bind = 3, execution = 4, resource = 5; unknown repro
    errors fall into the execution family.  Name-resolution failures
    (unknown table/column, ambiguous reference) are the bind family
    whether they surface as :class:`BindingError` or
    :class:`CatalogError`.
    """
    if isinstance(error, ParseError):
        return 2
    if isinstance(error, (BindingError, CatalogError)):
        return 3
    if isinstance(error, ResourceError):
        return 5
    return 4


class TransportError(ExecutionError):
    """A failure in the multi-host shard transport (sockets, framing, RPC).

    Subtypes distinguish the wire-format family (malformed or forged
    payloads, version mismatches — never retryable: resending the same
    bytes reproduces the failure) from the availability family (timeouts,
    connection loss, partitions — retryable: the shard RPC layer backs
    off, retries under the idempotent request-ID contract, and fails the
    delivery over to a live peer).  Shares the execution exit-code
    family (4).
    """


class WireFormatError(TransportError):
    """A frame or payload on the shard wire could not be decoded safely.

    Raised for bad magic, a wire-version mismatch, a checksum failure
    (garbled bytes), an oversized frame, or a pickle payload referencing
    a class outside the transport's allow-list (a forged payload).  Never
    retried with the same bytes; the RPC layer re-serializes and resends
    once when the cause was transit corruption.
    """


class ShardUnavailable(TransportError):
    """A shard worker did not answer: timeout, connection loss, or a
    network partition.  Retryable — carries an optional ``retry_after``
    hint honoured by :func:`repro.engine.retry.call_with_backoff`."""

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class PlanVerificationError(ExecutionError):
    """Static verification rejected a plan before execution.

    Raised by the executor's opt-in pre-flight check
    (``ExecutorConfig(verify=True)``); carries the verifier's diagnostics.
    """

    def __init__(self, message: str, diagnostics: tuple = ()) -> None:
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class TransformationError(ReproError):
    """The query is outside the class handled by the paper's transformation.

    Raised, for example, when every table carries aggregation columns (no
    R1/R2 partition exists) or when a HAVING clause is present.
    """


class PlanningError(ReproError):
    """The optimizer could not produce a plan for the query."""
