"""Unit tests for the unified retry discipline (no sockets, no sleeps).

``RetryPolicy``/``RetryState`` take explicit ``now`` arguments, so the
deadline-budget arithmetic is tested against a fake clock; the
``CircuitBreaker`` likewise.  The wall-clock paths are exercised end to
end by the chaos tests.
"""

import pytest

from repro.retry import (
    CircuitBreaker,
    CircuitOpenError,
    RestartBackoff,
    RetryBudgetExceeded,
    RetryPolicy,
)


class TestPolicyValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_s=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_s=0.0)

    def test_policy_is_immutable_and_shareable(self):
        policy = RetryPolicy()
        with pytest.raises(AttributeError):
            policy.attempts = 9


class TestBackoffShape:
    def test_exponential_without_jitter(self):
        policy = RetryPolicy(
            attempts=5, base_backoff_s=0.1, multiplier=2.0, max_backoff_s=0.5, jitter=0.0
        )
        state = policy.start(now=0.0)
        sleeps = []
        for _ in range(4):
            state.begin_attempt()
            sleeps.append(state.next_backoff(now=0.0))
        assert sleeps == pytest.approx([0.1, 0.2, 0.4, 0.5])  # capped

    def test_jitter_stays_in_band_and_is_deterministic(self):
        policy = RetryPolicy(attempts=8, base_backoff_s=0.1, jitter=0.5, seed=3)
        a, b = policy.start(key=7, now=0.0), policy.start(key=7, now=0.0)
        for _ in range(6):
            a.begin_attempt()
            b.begin_attempt()
            sa, sb = a.next_backoff(now=0.0), b.next_backoff(now=0.0)
            assert sa == sb  # same (seed, key) => same jitter sequence
            nominal = min(policy.max_backoff_s, 0.1 * 2.0 ** (a.attempt - 1))
            assert nominal * 0.5 <= sa <= nominal

    def test_different_keys_decorrelate(self):
        policy = RetryPolicy(attempts=8, base_backoff_s=0.1, jitter=0.5, seed=3)
        a, b = policy.start(key=1, now=0.0), policy.start(key=2, now=0.0)
        sleeps_a, sleeps_b = [], []
        for _ in range(6):
            a.begin_attempt()
            b.begin_attempt()
            sleeps_a.append(a.next_backoff(now=0.0))
            sleeps_b.append(b.next_backoff(now=0.0))
        assert sleeps_a != sleeps_b


class TestDeadlineBudget:
    def test_attempt_timeout_is_clipped_to_remaining_budget(self):
        policy = RetryPolicy(attempts=5, attempt_timeout_s=2.0, deadline_s=3.0)
        state = policy.start(now=100.0)
        assert state.attempt_timeout(now=100.0) == pytest.approx(2.0)
        assert state.attempt_timeout(now=102.0) == pytest.approx(1.0)

    def test_spent_budget_raises_instead_of_attempting(self):
        policy = RetryPolicy(attempts=5, deadline_s=1.0)
        state = policy.start(now=0.0)
        with pytest.raises(RetryBudgetExceeded):
            state.attempt_timeout(now=1.5)

    def test_backoff_is_clipped_to_remaining_budget(self):
        policy = RetryPolicy(
            attempts=5, base_backoff_s=10.0, jitter=0.0, max_backoff_s=10.0, deadline_s=1.0
        )
        state = policy.start(now=0.0)
        state.begin_attempt()
        assert state.next_backoff(now=0.75) == pytest.approx(0.25)
        with pytest.raises(RetryBudgetExceeded):
            state.next_backoff(now=1.25)

    def test_no_deadline_means_unbounded(self):
        state = RetryPolicy(attempts=2).start(now=0.0)
        assert state.remaining(now=1e9) is None
        assert state.attempt_timeout(now=1e9) is None

    def test_attempt_counting(self):
        state = RetryPolicy(attempts=2).start(now=0.0)
        assert state.more_attempts()
        assert state.begin_attempt() == 1
        assert state.more_attempts()
        assert state.begin_attempt() == 2
        assert not state.more_attempts()


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=10.0)
        for _ in range(2):
            breaker.record_failure(now=0.0)
        breaker.before_attempt(now=1.0)  # still closed
        breaker.record_failure(now=1.0)
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.before_attempt(now=2.0)

    def test_success_resets_the_failure_run(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(now=0.0)
        breaker.record_success()
        breaker.record_failure(now=0.0)
        assert breaker.state == "closed"  # runs must be *consecutive*

    def test_half_open_probe_closes_on_success(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0)
        breaker.record_failure(now=0.0)
        assert breaker.state == "open"
        breaker.before_attempt(now=6.0)  # probe allowed through
        assert breaker.state == "half-open"
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_probe_reopens_on_failure(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0)
        breaker.record_failure(now=0.0)
        breaker.before_attempt(now=6.0)
        breaker.record_failure(now=6.0)
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.before_attempt(now=7.0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)

    def test_reopen_after_half_open_failure_restarts_the_full_cooldown(self):
        """A failed probe must buy the server a *full* fresh cooldown,
        measured from the probe failure — not the original opening."""
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0)
        breaker.record_failure(now=0.0)
        breaker.before_attempt(now=6.0)  # half-open probe
        breaker.record_failure(now=6.0)  # probe failed -> re-open at t=6
        # 5s after the ORIGINAL open would be t=5 (already past); 5s
        # after the re-open is t=11.  Anything before that fails fast.
        with pytest.raises(CircuitOpenError):
            breaker.before_attempt(now=10.9)
        breaker.before_attempt(now=11.0)  # next probe allowed
        assert breaker.state == "half-open"

    def test_half_open_allows_exactly_one_probe_outcome_cycle(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=1.0)
        breaker.record_failure(now=0.0)
        breaker.record_failure(now=0.0)
        assert breaker.state == "open"
        breaker.before_attempt(now=2.0)
        assert breaker.state == "half-open"
        # A single failure re-opens immediately in half-open — the
        # closed-state threshold does not apply to probes.
        breaker.record_failure(now=2.0)
        assert breaker.state == "open"


class TestRestartBackoff:
    def test_delays_grow_exponentially_with_the_streak(self):
        backoff = RestartBackoff(
            base_s=0.1, multiplier=2.0, max_s=10.0, jitter=0.0,
            flap_threshold=100,
        )
        delays = [backoff.next_delay(now=float(i)) for i in range(4)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.8])

    def test_delay_is_capped(self):
        backoff = RestartBackoff(
            base_s=1.0, multiplier=10.0, max_s=3.0, jitter=0.0,
            flap_threshold=100,
        )
        backoff.next_delay(now=0.0)
        assert backoff.next_delay(now=1.0) == pytest.approx(3.0)

    def test_jitter_is_seeded_and_in_band(self):
        a = RestartBackoff(base_s=1.0, jitter=0.5, seed=7, flap_threshold=100)
        b = RestartBackoff(base_s=1.0, jitter=0.5, seed=7, flap_threshold=100)
        da, db = a.next_delay(now=0.0), b.next_delay(now=0.0)
        assert da == db  # same seed, same schedule
        assert 0.5 <= da <= 1.0

    def test_stability_resets_the_streak(self):
        backoff = RestartBackoff(
            base_s=0.1, multiplier=2.0, max_s=10.0, jitter=0.0,
            stable_after_s=5.0, flap_threshold=100,
        )
        backoff.next_delay(now=0.0)
        backoff.next_delay(now=1.0)
        backoff.note_stable(uptime_s=2.0, now=2.0)  # not stable enough
        assert backoff.next_delay(now=3.0) == pytest.approx(0.4)
        backoff.note_stable(uptime_s=6.0, now=9.0)  # genuinely stable
        assert backoff.next_delay(now=10.0) == pytest.approx(0.1)

    def test_flap_detector_holds_the_worker_down(self):
        backoff = RestartBackoff(
            base_s=0.01, multiplier=1.0, max_s=0.01, jitter=0.0,
            flap_window_s=30.0, flap_threshold=3, hold_down_s=5.0,
        )
        assert backoff.next_delay(now=0.0) == pytest.approx(0.01)
        assert backoff.next_delay(now=1.0) == pytest.approx(0.01)
        # Third restart inside the window: flapping -> hold-down floor.
        assert backoff.next_delay(now=2.0) == pytest.approx(5.0)
        assert backoff.flapping

    def test_flap_window_expires(self):
        backoff = RestartBackoff(
            base_s=0.01, multiplier=1.0, max_s=0.01, jitter=0.0,
            flap_window_s=10.0, flap_threshold=2, hold_down_s=5.0,
        )
        backoff.next_delay(now=0.0)
        # Second restart far outside the window: not flapping.
        assert backoff.next_delay(now=100.0) == pytest.approx(0.01)
        assert not backoff.flapping

    def test_lifetime_restarts_counter(self):
        backoff = RestartBackoff(jitter=0.0, flap_threshold=100)
        for i in range(3):
            backoff.next_delay(now=float(i))
        assert backoff.restarts == 3

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RestartBackoff(base_s=-1.0)
        with pytest.raises(ValueError):
            RestartBackoff(jitter=1.5)
        with pytest.raises(ValueError):
            RestartBackoff(flap_threshold=0)
