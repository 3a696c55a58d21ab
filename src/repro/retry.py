"""Unified retry discipline: serving clients, the cluster supervisor and
the run executor.

Before this module, ``TraceClient.call_with_retry`` retried ``busy``
rejections on a fixed backoff and nothing else; backoff could overshoot
any caller deadline, and a transport error during a *session* op could
be retried into a double-applied chunk.  This module centralises the
policy so every retrying path — ``call_with_retry``, the
:class:`~repro.serve.recovery.ResilientTraceClient`, the soaks, the
worker supervisor's restarts and the run executor's transient cell
retries — shares one set of rules:

* **jittered exponential backoff** — seeded, so chaos runs are
  reproducible;
* **per-attempt timeout** — one slow attempt cannot eat the budget;
* **overall deadline budget** — backoff sleeps are clipped so the sum
  of attempts + sleeps never exceeds ``deadline_s``;
* **idempotency gating** — which *errors* are retryable for which
  *ops* is decided by :data:`repro.serve.protocol.IDEMPOTENT_OPS`, not
  by each call site (see the delivery-semantics table in
  :mod:`repro.serve.protocol`).

The :class:`CircuitBreaker` adds fail-fast on top: after
``failure_threshold`` consecutive transport failures the circuit opens
and callers get :class:`CircuitOpenError` immediately instead of
burning their deadline against a dead server; after ``reset_timeout_s``
one probe attempt (half-open) is allowed through.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from . import obs

__all__ = [
    "RetryPolicy",
    "RetryState",
    "RetryBudgetExceeded",
    "CircuitBreaker",
    "CircuitOpenError",
    "RestartBackoff",
]


class RetryBudgetExceeded(TimeoutError):
    """The overall deadline budget ran out before an attempt succeeded."""


class CircuitOpenError(ConnectionError):
    """Fail-fast: the circuit breaker is open, no attempt was made."""


@dataclass(frozen=True)
class RetryPolicy:
    """How to retry: attempts, backoff shape, timeouts, budget.

    A policy is immutable and shareable; per-call bookkeeping lives in
    the :class:`RetryState` returned by :meth:`start`.

    Parameters
    ----------
    attempts:
        Maximum number of attempts (>= 1).  ``attempts=1`` means "no
        retries".
    base_backoff_s, multiplier, max_backoff_s:
        Exponential backoff: sleep ``base * multiplier**k`` (capped)
        before attempt ``k+1``.
    jitter:
        Fraction of each sleep drawn uniformly at random (full jitter
        on that fraction): ``jitter=0.5`` sleeps between 50% and 100%
        of the nominal value.  Seeded per :class:`RetryState`, so runs
        are reproducible.
    attempt_timeout_s:
        Per-attempt timeout, or None to let the transport decide.
    deadline_s:
        Overall budget across all attempts *and* sleeps, or None for
        unbounded.  Sleeps are clipped to the remaining budget and a
        spent budget raises :class:`RetryBudgetExceeded` instead of
        starting another attempt.
    seed:
        Jitter RNG seed; :meth:`start` mixes in its ``key`` argument so
        concurrent operations can be decorrelated while staying
        deterministic.
    """

    attempts: int = 5
    base_backoff_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 2.0
    jitter: float = 0.5
    attempt_timeout_s: Optional[float] = None
    deadline_s: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {self.deadline_s}")

    def start(self, key: int = 0, now: Optional[float] = None) -> "RetryState":
        """Begin one retrying operation; returns its mutable state.

        ``key`` decorrelates jitter between concurrent operations
        (e.g. pass the request id) without sacrificing determinism.
        """
        return RetryState(
            policy=self,
            started=now if now is not None else time.monotonic(),
            # Mix policy seed and per-operation key into one int seed
            # (random.Random rejects tuples).
            _rng=random.Random(self.seed * 0x9E3779B1 + int(key)),
        )


@dataclass
class RetryState:
    """Mutable bookkeeping for one retrying operation."""

    policy: RetryPolicy
    started: float
    attempt: int = 0
    _rng: random.Random = field(default_factory=random.Random)

    # -- budget -------------------------------------------------------

    def remaining(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds left in the overall budget (None = unbounded)."""
        if self.policy.deadline_s is None:
            return None
        now = now if now is not None else time.monotonic()
        return self.policy.deadline_s - (now - self.started)

    def attempt_timeout(self, now: Optional[float] = None) -> Optional[float]:
        """The timeout for the next attempt: per-attempt cap clipped to
        the remaining budget.  Raises :class:`RetryBudgetExceeded` if
        the budget is already spent."""
        left = self.remaining(now)
        if left is not None and left <= 0:
            raise RetryBudgetExceeded(
                f"deadline budget of {self.policy.deadline_s}s exhausted "
                f"after {self.attempt} attempt(s)"
            )
        per = self.policy.attempt_timeout_s
        if left is None:
            return per
        return left if per is None else min(per, left)

    # -- attempts -----------------------------------------------------

    def more_attempts(self) -> bool:
        """True while another attempt is allowed by ``attempts``."""
        return self.attempt < self.policy.attempts

    def begin_attempt(self) -> int:
        """Record the start of an attempt; returns its 1-based number."""
        self.attempt += 1
        return self.attempt

    def next_backoff(self, now: Optional[float] = None) -> float:
        """The jittered sleep before the next attempt, clipped to the
        remaining budget.  Raises :class:`RetryBudgetExceeded` when the
        budget cannot fund any further sleep + attempt."""
        exponent = max(0, self.attempt - 1)
        nominal = min(
            self.policy.max_backoff_s,
            self.policy.base_backoff_s * (self.policy.multiplier**exponent),
        )
        if self.policy.jitter > 0.0 and nominal > 0.0:
            floor = nominal * (1.0 - self.policy.jitter)
            nominal = floor + self._rng.random() * (nominal - floor)
        left = self.remaining(now)
        if left is not None:
            if left <= 0:
                raise RetryBudgetExceeded(
                    f"deadline budget of {self.policy.deadline_s}s exhausted "
                    f"after {self.attempt} attempt(s)"
                )
            nominal = min(nominal, left)
        return nominal


class CircuitBreaker:
    """Client-side fail-fast after consecutive transport failures.

    States: *closed* (normal), *open* (every :meth:`before_attempt`
    raises :class:`CircuitOpenError` until ``reset_timeout_s`` passes),
    *half-open* (one probe allowed; success closes, failure re-opens).
    """

    def __init__(self, failure_threshold: int = 5, reset_timeout_s: float = 1.0):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout_s = float(reset_timeout_s)
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        return self._state

    def before_attempt(self, now: Optional[float] = None) -> None:
        """Gate an attempt; raises :class:`CircuitOpenError` when open."""
        now = now if now is not None else time.monotonic()
        if self._state == "open":
            if now - self._opened_at >= self.reset_timeout_s:
                self._state = "half-open"
                obs.inc("serve.breaker_half_open")
            else:
                obs.inc("serve.breaker_fast_fail")
                raise CircuitOpenError(
                    f"circuit open after {self._failures} consecutive failures"
                )

    def record_success(self) -> None:
        if self._state != "closed":
            obs.inc("serve.breaker_closed")
        self._failures = 0
        self._state = "closed"

    def record_failure(self, now: Optional[float] = None) -> None:
        now = now if now is not None else time.monotonic()
        self._failures += 1
        if self._state == "half-open" or self._failures >= self.failure_threshold:
            if self._state != "open":
                obs.inc("serve.breaker_opened")
            self._state = "open"
            self._opened_at = now


class RestartBackoff:
    """Restart pacing for supervised processes: jittered exponential
    backoff plus a flap detector.

    The retry classes above pace *calls*; this paces *process
    restarts*.  Each :meth:`next_delay` records one restart and returns
    how long the supervisor should wait before spawning the
    replacement: exponential in the current consecutive-restart streak,
    jittered (seeded, so supervised soaks stay reproducible), and
    capped.  A worker that keeps dying — ``flap_threshold`` restarts
    inside ``flap_window_s`` — is *flapping*: the backoff jumps to
    ``hold_down_s`` so a crash-looping worker cannot monopolise the
    supervisor, but it is never abandoned (the cluster must heal when
    the cause clears).  :meth:`note_stable` resets the streak once the
    process has stayed up past ``stable_after_s``.

    All methods accept an explicit ``now`` so tests drive a fake clock.
    """

    def __init__(
        self,
        base_s: float = 0.05,
        multiplier: float = 2.0,
        max_s: float = 2.0,
        jitter: float = 0.5,
        flap_window_s: float = 30.0,
        flap_threshold: int = 5,
        hold_down_s: float = 5.0,
        stable_after_s: float = 5.0,
        seed: int = 0,
    ):
        if base_s < 0 or max_s < 0 or hold_down_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        if flap_threshold < 1:
            raise ValueError(f"flap_threshold must be >= 1, got {flap_threshold}")
        self.base_s = float(base_s)
        self.multiplier = float(multiplier)
        self.max_s = float(max_s)
        self.jitter = float(jitter)
        self.flap_window_s = float(flap_window_s)
        self.flap_threshold = int(flap_threshold)
        self.hold_down_s = float(hold_down_s)
        self.stable_after_s = float(stable_after_s)
        self._rng = random.Random(seed * 0x9E3779B1 + 0x5F)
        self._streak = 0
        self._recent: list = []  # restart timestamps inside the window
        self.restarts = 0  #: lifetime restart count (telemetry)

    @property
    def flapping(self) -> bool:
        """True while the flap detector holds the worker down."""
        return len(self._recent) >= self.flap_threshold

    def next_delay(self, now: Optional[float] = None) -> float:
        """Record one restart; return the pre-spawn delay in seconds."""
        now = now if now is not None else time.monotonic()
        self.restarts += 1
        self._streak += 1
        self._recent = [t for t in self._recent if now - t < self.flap_window_s]
        self._recent.append(now)
        nominal = min(
            self.max_s, self.base_s * (self.multiplier ** (self._streak - 1))
        )
        if self.flapping:
            obs.inc("cluster.flaps_detected")
            nominal = max(nominal, self.hold_down_s)
        if self.jitter > 0.0 and nominal > 0.0:
            floor = nominal * (1.0 - self.jitter)
            nominal = floor + self._rng.random() * (nominal - floor)
        return nominal

    def note_stable(self, uptime_s: float, now: Optional[float] = None) -> None:
        """Report the process has been healthy for ``uptime_s`` seconds;
        past ``stable_after_s`` the streak (and flap window) reset."""
        if uptime_s >= self.stable_after_s:
            self._streak = 0
            now = now if now is not None else time.monotonic()
            self._recent = [t for t in self._recent if now - t < self.flap_window_s]
            if not self.flapping:
                self._recent.clear()
