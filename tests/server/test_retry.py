"""call_with_backoff: the client side of the admission contract."""

from __future__ import annotations

import pytest

from repro.engine.retry import call_with_backoff
from repro.errors import AdmissionRejected, QueryTimeout


def flaky(rejections: int, retry_after: float = 0.0):
    """A callable that rejects ``rejections`` times, then succeeds."""
    state = {"calls": 0}

    def fn():
        state["calls"] += 1
        if state["calls"] <= rejections:
            raise AdmissionRejected("busy", retry_after=retry_after)
        return state["calls"]

    fn.state = state
    return fn


def test_immediate_success_no_sleep():
    sleeps = []
    assert call_with_backoff(flaky(0), sleep=sleeps.append, seed=0) == 1
    assert sleeps == []


def test_succeeds_after_backoff():
    sleeps = []
    fn = flaky(3)
    assert call_with_backoff(fn, sleep=sleeps.append, seed=0) == 4
    assert len(sleeps) == 3
    # Exponential: each delay at least as large a base as the previous
    # doubling allows (jitter is within [0.5, 1.0] of the schedule).
    assert all(d > 0 for d in sleeps)


def test_exhausted_attempts_raises_last_rejection():
    sleeps = []
    with pytest.raises(AdmissionRejected):
        call_with_backoff(flaky(10), attempts=3, sleep=sleeps.append, seed=0)
    assert len(sleeps) == 2  # no sleep after the final attempt


def test_never_sleeps_less_than_server_hint():
    sleeps = []
    call_with_backoff(
        flaky(3, retry_after=0.5),
        base_delay=0.001,
        sleep=sleeps.append,
        seed=0,
    )
    assert all(d >= 0.5 for d in sleeps)


def test_jitter_is_deterministic_under_seed():
    first: list = []
    second: list = []
    call_with_backoff(flaky(4), sleep=first.append, seed=42)
    call_with_backoff(flaky(4), sleep=second.append, seed=42)
    assert first == second
    third: list = []
    call_with_backoff(flaky(4), sleep=third.append, seed=43)
    assert first != third


def test_deadline_stops_retrying():
    clock = {"now": 0.0}

    def fake_clock():
        return clock["now"]

    def fake_sleep(delay):
        clock["now"] += delay

    with pytest.raises(AdmissionRejected):
        call_with_backoff(
            flaky(100, retry_after=0.4),
            attempts=100,
            deadline_seconds=1.0,
            sleep=fake_sleep,
            clock=fake_clock,
            seed=0,
        )
    assert clock["now"] <= 1.0


def test_delay_capped_at_max_delay():
    sleeps = []
    call_with_backoff(
        flaky(6),
        base_delay=0.1,
        factor=10.0,
        max_delay=0.2,
        sleep=sleeps.append,
        seed=0,
    )
    assert max(sleeps) <= 0.2


def test_non_admission_errors_propagate_immediately():
    calls = {"n": 0}

    def fn():
        calls["n"] += 1
        raise QueryTimeout("not an admission problem")

    with pytest.raises(QueryTimeout):
        call_with_backoff(fn, seed=0)
    assert calls["n"] == 1


def test_attempts_validation():
    with pytest.raises(ValueError):
        call_with_backoff(lambda: 1, attempts=0)


class TestPinnedEdgeCases:
    """The two contract edge cases the shard RPC layer relies on."""

    def test_single_attempt_never_sleeps(self):
        # attempts=1: the one attempt either succeeds or raises — there is
        # no backoff before a retry that will never happen.
        sleeps = []
        with pytest.raises(AdmissionRejected):
            call_with_backoff(
                flaky(10), attempts=1, sleep=sleeps.append, seed=0
            )
        assert sleeps == []

    def test_single_attempt_ignores_huge_hint(self):
        sleeps = []
        with pytest.raises(AdmissionRejected):
            call_with_backoff(
                flaky(10, retry_after=60.0),
                attempts=1,
                sleep=sleeps.append,
                seed=0,
            )
        assert sleeps == []

    def test_hint_beyond_deadline_fails_fast(self):
        # A retry_after hint larger than the remaining deadline must raise
        # immediately, not sleep past the deadline to discover it expired.
        clock = {"now": 0.0}
        sleeps = []

        def fake_clock():
            return clock["now"]

        def fake_sleep(seconds):
            sleeps.append(seconds)
            clock["now"] += seconds

        with pytest.raises(AdmissionRejected):
            call_with_backoff(
                flaky(10, retry_after=5.0),
                attempts=8,
                deadline_seconds=1.0,
                sleep=fake_sleep,
                clock=fake_clock,
                seed=0,
            )
        assert sleeps == []  # never slept at all: the hint > deadline
        assert clock["now"] == 0.0


class TestRetryOnAndMetering:
    """The generalized hooks the shard RPC layer plugs into."""

    def test_custom_retry_on_types(self):
        from repro.errors import ShardUnavailable

        state = {"calls": 0}

        def fn():
            state["calls"] += 1
            if state["calls"] <= 2:
                raise ShardUnavailable("worker silent")
            return "ok"

        assert (
            call_with_backoff(
                fn,
                retry_on=(ShardUnavailable,),
                sleep=lambda s: None,
                seed=0,
            )
            == "ok"
        )
        assert state["calls"] == 3

    def test_default_does_not_retry_transport_errors(self):
        from repro.errors import ShardUnavailable

        def fn():
            raise ShardUnavailable("worker silent")

        with pytest.raises(ShardUnavailable):
            call_with_backoff(fn, sleep=lambda s: None, seed=0)

    def test_on_retry_fires_per_backoff_taken(self):
        metered = []
        call_with_backoff(
            flaky(3),
            sleep=lambda s: None,
            on_retry=lambda error, delay: metered.append((error, delay)),
            seed=0,
        )
        assert len(metered) == 3
        assert all(isinstance(e, AdmissionRejected) for e, __ in metered)

    def test_on_retry_not_fired_on_final_failure(self):
        metered = []
        with pytest.raises(AdmissionRejected):
            call_with_backoff(
                flaky(10),
                attempts=3,
                sleep=lambda s: None,
                on_retry=lambda error, delay: metered.append(delay),
                seed=0,
            )
        assert len(metered) == 2

    def test_shard_unavailable_hint_honoured(self):
        from repro.errors import ShardUnavailable

        state = {"calls": 0}

        def fn():
            state["calls"] += 1
            if state["calls"] == 1:
                raise ShardUnavailable("busy", retry_after=0.25)
            return "ok"

        sleeps = []
        call_with_backoff(
            fn,
            retry_on=(ShardUnavailable,),
            base_delay=0.001,
            sleep=sleeps.append,
            seed=0,
        )
        assert sleeps and sleeps[0] >= 0.25
