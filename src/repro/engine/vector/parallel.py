"""Multi-core morsel dispatch for streamed aggregation segments.

Parallelism is fork-based: the driver publishes the segment (compiled
stages + the pre-warmed source batch, numpy buffers included) in a
module global, then forks a :mod:`multiprocessing` pool.  Each worker
inherits the parent's address space copy-on-write, so the source's numpy
base buffers are physically shared pages — no serialization of input
data, only the (small) per-worker aggregate partials travel back over a
pipe.  Workers process disjoint *contiguous* ranges of morsels, so the
work split is deterministic: the same morsel boundaries as the serial
loop, merely partitioned.

Correctness leans entirely on the ``export``/``merge`` contract of
:class:`~repro.engine.vector.grouping.GroupedFold`: each range's fold is
exported and the exports are merged in range order (= morsel order), so
group representatives and MIN/MAX ties resolve to the globally-first row
exactly as the serial fold does.  A fold whose state is order-*sensitive*
(a non-integer SUM/AVG) says so in its export; the driver then discards
every partial untouched and re-runs the segment serially — bit-identical
results, at the cost of parallelism for that segment.

The governor stays in the parent: cancellation and timeouts are polled
while waiting on the pool (the pool is torn down before the resource
error propagates), and spill decisions never arise here because the
driver only parallelizes segments running without a memory budget.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

try:  # pragma: no cover - exercised only where multiprocessing is absent
    import multiprocessing as _mp
except ImportError:  # pragma: no cover
    _mp = None

from repro.engine.governor import ResourceGovernor
from repro.engine.vector.stages import SegmentKernelError, _reset_stage, run_morsel

#: The segment being executed, published for forked workers to inherit.
#: (chain stages bottom-up, agg stage, source batch, morsel size).
_TASK = None


def fork_available() -> bool:
    """Whether fork-based worker pools exist on this platform."""
    if _mp is None:
        return False
    try:
        return "fork" in _mp.get_all_start_methods()
    except Exception:  # pragma: no cover - defensive
        return False


def _split_ranges(n_morsels: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous morsel ranges, one per worker, sizes differing by ≤ 1."""
    parts = min(workers, n_morsels)
    base, extra = divmod(n_morsels, parts)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for p in range(parts):
        stop = start + base + (1 if p < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def _run_range(task_range: Tuple[int, int]):
    """Worker body: push one contiguous morsel range through the chain.

    Runs in a forked child over inherited (copy-on-write) stage objects
    and source buffers; mutating them is process-private — but a pool
    process may serve several ranges, so every range first puts the
    stages back into the state the parent forked them in: a partial
    covers its own morsels only, in counts and in accumulators.  Returns
    the aggregate partial as a picklable dict, or an ``{"error": ...}``
    marker — exceptions are flattened so nothing unpicklable crosses the
    pipe.
    """
    start, stop = task_range
    chain, agg, source, morsel_size = _TASK
    stages = (*chain, agg)
    stage_index = 0

    def visit(index: int, stage) -> None:
        nonlocal stage_index
        stage_index = index

    try:
        for stage in stages:
            _reset_stage(stage)
        max_inflight = 0
        for m in range(start, stop):
            __, inflight = run_morsel(source, m, morsel_size, stages, visit)
            max_inflight = max(max_inflight, inflight)
        return agg.export_partial(
            [(stage.in_rows, stage.out_rows) for stage in chain], max_inflight
        )
    except Exception as error:
        return {
            "error": {
                "stage_index": stage_index,
                "cause": f"{type(error).__name__}: {error}",
            }
        }


def run_parallel_segment(
    *,
    bottom_up,
    chain,
    agg,
    source,
    morsel_size: int,
    n_morsels: int,
    workers: int,
    governor: ResourceGovernor,
) -> Optional[int]:
    """Fan a segment's morsels across a forked worker pool and merge.

    Returns the peak concurrent in-flight byte estimate (summed across
    workers) on success, or ``None`` when the segment must be re-run
    serially (fork failed, or an order-sensitive aggregate surfaced) —
    in that case no driver-side state has been touched.  Worker kernel
    failures raise :class:`SegmentKernelError` so the driver degrades
    the whole segment, exactly like a serial kernel failure.
    """
    global _TASK
    ranges = _split_ranges(n_morsels, workers)
    _TASK = (chain, agg, source, morsel_size)
    try:
        ctx = _mp.get_context("fork")
        pool = ctx.Pool(processes=len(ranges))
    except Exception:
        _TASK = None
        return None  # cannot fork here: fall back to the serial loop
    top_label = bottom_up[-1].label
    try:
        result = pool.map_async(_run_range, ranges)
        while not result.ready():
            # Cancellation/timeout propagate from the parent's governor;
            # the finally clause tears the workers down before they do.
            governor.check(top_label)
            result.wait(0.02)
        partials = result.get()
    finally:
        pool.terminate()
        pool.join()
        _TASK = None

    for partial in partials:
        failure = partial.get("error")
        if failure is not None:
            raise SegmentKernelError(failure["stage_index"], failure["cause"])
    if any(partial["order_sensitive"] for partial in partials):
        return None  # non-associative folds: re-run serially, state untouched

    # Merge in range order: group discovery order equals the serial
    # first-appearance order, and every accumulator merge is exact.
    max_inflight = 0
    for partial in partials:
        agg.merge_partial(partial)
        for stage, (in_rows, out_rows) in zip(chain, partial["chain_counts"]):
            stage.in_rows += in_rows
            stage.out_rows += out_rows
        max_inflight += partial["max_inflight"]
    return max_inflight
