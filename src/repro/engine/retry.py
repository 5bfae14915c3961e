"""Client-side retry with jittered exponential backoff.

The admission contract is reject-don't-queue: a loaded server answers
with :class:`~repro.errors.AdmissionRejected` (carrying a ``retry_after``
hint) instead of making the caller wait inside the server.  The waiting
therefore happens *here*, on the client's own time:
:func:`call_with_backoff` retries the callable with exponentially growing,
jittered delays — never sleeping less than the server's hint — until it
succeeds, the deadline passes, or the attempt budget runs out.

The shard RPC layer (:mod:`repro.engine.shardrpc`) reuses the same
helper with ``retry_on=(ShardUnavailable, WireFormatError)``: any error
type carrying an optional ``retry_after`` attribute plugs in, and the
``on_retry`` hook lets callers meter every backoff (the RPC retry
counters in :class:`~repro.engine.stats.ExchangeStats` come from it).

Jitter is full-range (``delay * uniform(0.5, 1.0)`` around the doubling
schedule) from a caller-supplied seeded RNG, so concurrent clients
decorrelate their retries *and* tests replay the exact schedule.

Edge cases pinned by tests (and relied on by the RPC layer):

* ``attempts=1`` never sleeps — the single attempt either succeeds or
  raises immediately; there is no backoff before a retry that will
  never happen.
* a ``retry_after`` hint larger than the remaining deadline fails fast:
  the helper raises the last error instead of oversleeping past
  ``deadline_seconds`` (the sleep-then-discover-it-was-pointless
  anti-pattern).
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional, Tuple, Type, TypeVar

from repro.errors import AdmissionRejected

T = TypeVar("T")


def call_with_backoff(
    fn: Callable[[], T],
    *,
    attempts: int = 8,
    base_delay: float = 0.01,
    factor: float = 2.0,
    max_delay: float = 1.0,
    deadline_seconds: Optional[float] = None,
    seed: Optional[int] = None,
    rng: Optional[random.Random] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
    retry_on: Tuple[Type[BaseException], ...] = (AdmissionRejected,),
    on_retry: Optional[Callable[[BaseException, float], None]] = None,
) -> T:
    """Call ``fn`` until it succeeds; backoff between retryable failures.

    Only errors matching ``retry_on`` (by default
    :class:`~repro.errors.AdmissionRejected`) are retried — every other
    error (including the resource errors a *running* query can raise)
    propagates immediately: a retryable rejection means "try again
    later", a typed execution failure means "this query failed".

    The sleep before attempt *k* is
    ``max(hint, min(max_delay, base_delay * factor**k) * jitter)`` where
    ``hint`` is the error's ``retry_after`` attribute (0 when absent) and
    ``jitter`` is drawn uniformly from [0.5, 1.0].  ``sleep``/``clock``
    are injectable so tests run instantly and deterministically.
    ``on_retry(error, delay)`` fires once per backoff actually taken —
    never on the final failure — so callers can meter retries.

    Raises the last retryable error when ``attempts`` are exhausted or
    ``deadline_seconds`` has passed (fail fast: the helper never sleeps
    past the deadline just to discover it expired).
    """
    if attempts < 1:
        raise ValueError("attempts must be at least 1")
    generator = rng if rng is not None else random.Random(seed)
    started = clock()
    last: Optional[BaseException] = None
    for attempt in range(attempts):
        try:
            return fn()
        except retry_on as error:
            last = error
            if attempt == attempts - 1:
                break
            delay = min(max_delay, base_delay * (factor ** attempt))
            hint = float(getattr(error, "retry_after", 0.0) or 0.0)
            delay = max(hint, delay * generator.uniform(0.5, 1.0))
            if (
                deadline_seconds is not None
                and clock() - started + delay > deadline_seconds
            ):
                break
            if on_retry is not None:
                on_retry(error, delay)
            sleep(delay)
    assert last is not None
    raise last
