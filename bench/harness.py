"""What every workload shares: bootstrap, clocks, spans, windows, summaries."""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
#: Scratch files the workloads need on disk (the generated serve script);
#: inside the checkout, ignored by git, removed when the workload ends.
WORK_DIR = BENCH_DIR / "_work"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The speed meter (see :func:`speed_sample`): iterations of its loop, and
#: the seconds that loop takes on the reference host — this one when no
#: neighbour is busy.  Every end-to-end time is reported at that speed.
SPEED_LOOPS = 60000
REFERENCE_SECONDS = 0.003
#: Speed samples taken before and after each set-up.
SETUP_SPEED_SAMPLES = 5
#: A measured window runs for ``--seconds`` and until it holds this many
#: operations: twelve samples lie beyond p90 then.
MIN_OPERATIONS = 120
#: A traced run makes stepwise operations until its traced half of the
#: window is used up, and never fewer than this.
MIN_TRACED_ROUNDS = 10
#: Warm-up operations before the measured window (fills the columnar scan
#: cache, the partition twins and the shard pool's connections).
WARMUP_OPS = 3


def bootstrap() -> None:
    """Make ``repro`` importable here and in every process we spawn.

    The program is run from source: ``src/`` goes on ``sys.path`` and into
    ``PYTHONPATH`` (``repro serve`` and the shard workers are started with
    ``python -m repro``).  Without the program there is nothing to measure.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure ({src}/repro is missing)")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (
        f"{src}{os.pathsep}{inherited}" if inherited else str(src)
    )


def load_contract() -> dict:
    """``BENCHMARK.json``: the one place metric names and units are fixed."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def timed(call: Callable[[], object]) -> float:
    """Seconds ``call`` took."""
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- the host's speed ---------------------------------------------------------
#
# This host is a few cores of a shared machine, and its neighbours slow
# every kind of work down together — interpreter loops, numpy kernels,
# process spawns — by up to 1.6x, for anything from a fraction of a second
# to minutes.  A window cannot outlast that, so the benchmark meters it: a
# fixed loop that is no part of the program is timed next to everything
# that is measured, and each measured time is scaled to what it would have
# been with that loop at :data:`REFERENCE_SECONDS`.  A slow-down of the
# program moves its times and not the loop's, so it shows in full; a
# slow-down of the host moves both and cancels.  The times as measured are
# kept in ``bench/results`` next to the scaled ones.


def speed_sample() -> float:
    """Seconds the meter's loop takes right now.  Shorter than the
    interpreter's switch interval, so in a threaded client it is not
    interrupted half way."""
    started = time.perf_counter()
    x = 0
    for i in range(SPEED_LOOPS):
        x += i * i % 7
    return time.perf_counter() - started


def speed_scale(samples: Sequence[float]) -> float:
    """What to multiply a time by that was measured between ``samples``
    to have it at the reference speed."""
    return REFERENCE_SECONDS / median(samples)


# -- spans --------------------------------------------------------------------


class Tracer:
    """In-memory spans: name, start, end, parent, operation and statement.

    One tracer per thread of control; spans nest by a stack, so a span's
    parent is whatever span was open when it started.  Times are seconds
    since the tracer was created.  Nothing is written until the run ends.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attributes) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            **attributes,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = round(time.perf_counter() - self.origin, 7)
        try:
            yield record
        finally:
            record["end"] = round(time.perf_counter() - self.origin, 7)
            self._stack.pop()


def span_seconds(span: dict) -> float:
    return span["end"] - span["start"]


def per_op_seconds(spans: Sequence[dict], name: str) -> List[float]:
    """Total seconds spent in spans called ``name``, one entry per operation."""
    totals: Dict[int, float] = {}
    for span in spans:
        if span["name"] == name:
            totals[span["op"]] = totals.get(span["op"], 0.0) + span_seconds(span)
    return list(totals.values())


def paired_ratio(numerators: Sequence[float], denominators: Sequence[float]) -> float:
    """The median of pairwise ratios: each traced operation against the
    untraced one run right before it, so a slow phase cancels out."""
    return median([a / b for a, b in zip(numerators, denominators)])


def layer_ms(spans: Sequence[dict], name: str, per_op: int) -> float:
    """Milliseconds per statement in layer ``name``: the mean over one
    operation's ``per_op`` statements, the median over operations."""
    totals = per_op_seconds(spans, name)
    if not totals:
        return 0.0
    return median(totals) / per_op * 1000.0


# -- set-up and the measured window -------------------------------------------


def measure_setup(setup: Callable[[], object], close: Callable[[object], None]):
    """Set up :data:`SETUP_REPEATS` times and keep the last.

    Returns ``(context, times)``; ``times`` holds each set-up as measured
    and at the reference speed, taken from the speed samples on both sides
    of it, and ``setup_s`` is the median of one of the two.  Each set-up is
    complete — generate, load, spawn, warm up — and every one but the last
    is torn down and released before the next is built: two data sets
    resident at once would set ``peak_rss_mb`` and hide what the window
    adds.
    """
    measured: List[float] = []
    scaled: List[float] = []
    before = [speed_sample() for __ in range(SETUP_SPEED_SAMPLES)]
    for index in range(SETUP_REPEATS):
        started = time.perf_counter()
        context = setup()
        measured.append(time.perf_counter() - started)
        if index < SETUP_REPEATS - 1:
            close(context)
            del context
            gc.collect()
        after = [speed_sample() for __ in range(SETUP_SPEED_SAMPLES)]
        scaled.append(measured[-1] * speed_scale(before + after))
        before = after
    return context, {"measured": measured, "at_reference_speed": scaled}


@dataclass
class Window:
    """What one measured window produced.  ``latencies`` and
    ``wall_seconds`` are at the reference speed (see :func:`speed_scale`);
    ``measured`` holds the same operations as the clock saw them."""

    latencies: List[float] = field(default_factory=list)
    measured: List[float] = field(default_factory=list)
    failed: int = 0
    wall_seconds: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed


def closed_loop(
    operation: Callable[[int], object],
    check: Callable[[object], bool],
    seconds: float,
    min_operations: int,
) -> Window:
    """One client, closed loop: the next operation starts when the last
    one has answered.  ``operation`` is timed; ``check`` and a speed
    sample run between operations, outside the timed span, and the
    window's clock is the sum of the timed spans — so neither costs
    measured time.  Each operation is scaled by the speed samples on both
    sides of it.  The window ends once the clock, as measured, reaches
    ``seconds`` and ``min_operations`` operations have been attempted."""
    window = Window()
    clock = 0.0
    index = 0
    before = speed_sample()
    while clock < seconds or index < min_operations:
        started = time.perf_counter()
        try:
            output, good = operation(index), True
        except Exception:  # an operation that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            good = False
        elapsed = time.perf_counter() - started
        after = speed_sample()
        scaled = elapsed * speed_scale((before, after))
        before = after
        clock += elapsed
        window.wall_seconds += scaled
        if good and check(output):
            window.latencies.append(scaled)
            window.measured.append(elapsed)
        else:
            window.failed += 1
        index += 1
    return window


def end_to_end(
    window: Window, setup_s: float, units_per_op: int = 1
) -> Dict[str, float]:
    """The end-to-end metrics of one window, all at the reference speed:
    p50 and p90 over every completed operation, and units (statements,
    plans, requests) completed per second of the window's clock."""
    if not window.latencies:
        raise SystemExit("bench: no operation completed in the window")
    return {
        "setup_s": setup_s,
        "latency_p50_ms": percentile(window.latencies, 0.5) * 1000.0,
        "latency_p90_ms": percentile(window.latencies, 0.9) * 1000.0,
        "throughput_ops_s": units_per_op * len(window.latencies) / window.wall_seconds,
        "peak_rss_mb": peak_rss_mb(),
    }


def paired_rounds(
    items: Sequence[object],
    rng,
    seconds: float,
    untraced: Callable[[list], object],
    traced: Callable[[list, int], object],
) -> Tuple[List[float], list]:
    """The traced part of a round workload: until ``seconds`` have passed
    and :data:`MIN_TRACED_ROUNDS` are done, shuffle ``items``, time
    ``untraced(order)``, then call ``traced(order, round index)`` on the
    same order.  Each traced round is thus paired with an untraced one run
    right before it: this host's speed drifts, and overhead and coverage
    only mean something like against like.  Returns the untraced seconds
    and what ``traced`` returned, round by round."""
    untraced_seconds: List[float] = []
    outputs: list = []
    deadline = time.perf_counter() + seconds
    while len(outputs) < MIN_TRACED_ROUNDS or time.perf_counter() < deadline:
        order = list(items)
        rng.shuffle(order)
        untraced_seconds.append(timed(lambda: untraced(order)))
        outputs.append(traced(order, len(outputs)))
    return untraced_seconds, outputs


def window_detail(window: Window, **more) -> dict:
    """What every workload keeps of a window in ``bench/results``: the
    sample count, every sample at the reference speed and as measured,
    then whatever ``more`` it adds."""
    return {
        "samples": len(window.latencies),
        "latencies_ms": [round(v * 1000.0, 3) for v in window.latencies],
        "measured_latencies_ms": [round(v * 1000.0, 3) for v in window.measured],
        "measured_p50_ms": percentile(window.measured, 0.5) * 1000.0,
        "measured_p90_ms": percentile(window.measured, 0.9) * 1000.0,
        "window_seconds": window.wall_seconds,
        **more,
    }


@dataclass
class Outcome:
    """What a workload hands back to the command line."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    #: Everything else worth keeping in ``bench/results``: sample counts,
    #: sizes, per-statement medians, layer shares.
    detail: dict = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)


@dataclass(frozen=True)
class Options:
    workload: str
    seed: int
    seconds: float
    trace: bool
    quick: bool

    @property
    def min_operations(self) -> int:
        """The fewest operations the measured window may hold.  Smoke runs
        and the untraced half of a traced run feed no end-to-end metric."""
        return 0 if self.quick or self.trace else MIN_OPERATIONS


def split_seconds(options: Options) -> Tuple[float, float]:
    """(untraced window, traced window): a traced run spends half its time
    on an untraced window so overhead and coverage compare like with like."""
    if options.trace:
        return options.seconds / 2.0, options.seconds / 2.0
    return options.seconds, 0.0
