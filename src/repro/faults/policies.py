"""Recovery policies for the resilient transcoder pair.

A desynchronised predictive transcoder never heals on its own: the
decoder's dictionary diverged from the encoder's, and both keep
evolving.  Recovery therefore needs *common knowledge* — an action both
ends take at a moment both can name.  Three policies, in increasing
hardware cost:

* :class:`ResetBoth` (``"reset-both"``) — both FSMs reset their
  predictor state every ``period`` cycles, on a schedule both know at
  design time.  No feedback wire; a desync lasts at most ``period``
  cycles.  The recurring cost is the dictionary warm-up after every
  reset (more raw transmissions), charged automatically because the
  encoder really does reset.

* :class:`FallbackStateless` (``"fallback-stateless"``) — the decoder
  owns a reverse NACK wire.  On detection it toggles the wire; from the
  next cycle both ends degrade to a *stateless* inversion code for
  ``window`` cycles (stateless codes cannot desynchronise), resetting
  their predictors on entry, then re-enter predictive mode in lock
  step.  Values are correct again one cycle after detection.

* :class:`ResyncOnError` (``"resync-on-error"``) — same NACK wire, but
  the reaction is an immediate joint predictor reset: predictive
  coding continues the very next cycle from power-on state.  Cheapest
  wire-time cost per event, but every event forfeits the whole
  dictionary.

Policies are value objects (parameters only); the per-run state machine
lives in :meth:`repro.faults.resilient.ResilientTranscoder.run`.
"""

from __future__ import annotations

from abc import ABC
from typing import Dict, Optional, Tuple, Union

__all__ = [
    "RecoveryPolicy",
    "ResetBoth",
    "FallbackStateless",
    "ResyncOnError",
    "POLICIES",
    "DEFAULT_POLICIES",
    "resolve_policy",
]


class RecoveryPolicy(ABC):
    """Base class for recovery policies.

    Attributes
    ----------
    name:
        Registry name used by the CLI and reports.
    uses_feedback:
        Whether the policy needs the reverse NACK wire; if so, the
        resilient bundle is one wire wider and its toggles are charged
        to the coded bus.
    """

    name: str = ""
    uses_feedback: bool = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ResetBoth(RecoveryPolicy):
    """Scheduled joint predictor reset every ``period`` cycles."""

    name = "reset-both"
    uses_feedback = False

    def __init__(self, period: int = 512):
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        self.period = period

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResetBoth(period={self.period})"


class FallbackStateless(RecoveryPolicy):
    """NACK-triggered degradation to stateless inversion coding."""

    name = "fallback-stateless"
    uses_feedback = True

    def __init__(self, window: int = 64):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FallbackStateless(window={self.window})"


class ResyncOnError(RecoveryPolicy):
    """NACK-triggered immediate joint predictor reset."""

    name = "resync-on-error"
    uses_feedback = True


POLICIES: Dict[str, type] = {
    ResetBoth.name: ResetBoth,
    FallbackStateless.name: FallbackStateless,
    ResyncOnError.name: ResyncOnError,
}

#: Policy names a faults run compares by default, cheapest hardware first.
DEFAULT_POLICIES: Tuple[str, ...] = (
    "reset-both",
    "fallback-stateless",
    "resync-on-error",
)


def resolve_policy(policy: Union[str, RecoveryPolicy, None]) -> RecoveryPolicy:
    """Accept a policy instance, a registry name, or None (default)."""
    if policy is None:
        return ResetBoth()
    if isinstance(policy, RecoveryPolicy):
        return policy
    try:
        return POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown recovery policy {policy!r}; choose from {', '.join(sorted(POLICIES))}"
        ) from None
