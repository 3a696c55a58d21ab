"""Desync detection and recovery around any transcoder.

:class:`ResilientTranscoder` wraps a :class:`~repro.coding.base.Transcoder`
with the smallest detection mechanism that composes with every scheme in
this library: one **parity wire** carrying even parity over the wrapped
coder's W_C wire states.  Any single-wire upset flips the received
parity and is detected in the same cycle; the word is then discarded
(decoded best-effort as its raw data bits) and the configured
:mod:`recovery policy <repro.faults.policies>` takes over.  Policies
that signal the encoder do so over a reverse **NACK wire** using toggle
signalling, so an idle feedback wire costs nothing.

Both extra wires are part of :attr:`output_width`, so the energy
accounting in :mod:`repro.energy` charges their transitions *and* their
coupling to the rest of the bundle — resilience is never free, and the
``repro run faults`` matrix quantifies exactly how much of the
paper's savings each policy gives back.

Two APIs:

* the plain :class:`~repro.coding.base.Transcoder` interface
  (``encode_trace`` / ``decode_trace``) models the *fault-free* path
  and must reproduce the wrapped coder bit-exactly (asserted in
  ``tests/test_resilient.py``);
* :meth:`ResilientTranscoder.run` co-simulates independent encoder and
  decoder FSM instances with a :class:`~repro.faults.models.FaultyChannel`
  between them — the only honest way to model desynchronisation, since
  a shared predictor can never diverge from itself.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from .. import obs
from ..coding.base import IdentityTranscoder, Transcoder
from ..coding.errors import DesyncError
from ..coding.inversion import InversionTranscoder
from ..traces.trace import BusTrace
from .models import FaultModel, FaultyChannel
from .policies import FallbackStateless, RecoveryPolicy, ResetBoth, ResyncOnError, resolve_policy

__all__ = ["ResilientTranscoder", "ResilientRun", "RecoveryEvent"]


def _parity(state: int) -> int:
    """Even parity bit over a wire state."""
    return bin(state).count("1") & 1


def _make_fallback(width: int, room: int) -> Transcoder:
    """The stateless codec used during fallback windows.

    Decoding an inversion code is memoryless — a corrupted word yields
    one wrong value, never a desync — which is exactly why the fallback
    policy degrades to it.  Uses as many of the wrapped coder's control
    wires as the pattern family supports (``room`` spare wires above
    the data wires), falling back to raw pass-through when there are
    none.
    """
    for bits in range(min(room, 3), 0, -1):
        try:
            return InversionTranscoder(width, bits)
        except ValueError:
            continue  # pattern family degenerate at this width
    return IdentityTranscoder(width)


@dataclass(frozen=True)
class RecoveryEvent:
    """One closed desync episode: detection and the cycle sync resumed."""

    detected: int
    recovered: int

    @property
    def cycles(self) -> int:
        """Cycles spent out of sync (recovered - detected)."""
        return self.recovered - self.detected


@dataclass
class ResilientRun:
    """Everything one fault-injected co-simulation produces."""

    decoded: BusTrace  #: the value stream the receiver delivered
    physical: BusTrace  #: post-fault wire states incl. parity/NACK wires
    policy: str
    injected_cycles: int  #: cycles whose wire state the channel changed
    flipped_bits: int  #: total wire upsets injected
    detections: List[int] = field(default_factory=list)
    recoveries: List[RecoveryEvent] = field(default_factory=list)
    value_errors: int = 0  #: cycles where the delivered value was wrong
    silent_errors: int = 0  #: wrong values with no detection that cycle
    open_desync: Optional[int] = None  #: detection cycle of an unrecovered desync

    @property
    def cycles(self) -> int:
        return len(self.decoded)

    @property
    def correct_fraction(self) -> float:
        """Fraction of cycles whose delivered value was correct."""
        if self.cycles == 0:
            return 1.0
        return 1.0 - self.value_errors / self.cycles

    @property
    def mean_cycles_to_recovery(self) -> float:
        """Mean length of closed desync episodes (NaN when none)."""
        if not self.recoveries:
            return math.nan
        return sum(e.cycles for e in self.recoveries) / len(self.recoveries)


class ResilientTranscoder(Transcoder):
    """Parity-checked, policy-recovered wrapper around any transcoder.

    Parameters
    ----------
    coder:
        The transcoder to protect.  Used directly by the fault-free
        trace API; :meth:`run` deep-copies it into independent
        encoder-side and decoder-side FSMs.
    policy:
        A :class:`~repro.faults.policies.RecoveryPolicy` instance or
        registry name (``"reset-both"``, ``"fallback-stateless"``,
        ``"resync-on-error"``).  Default ``"reset-both"``.
    """

    def __init__(self, coder: Transcoder, policy: Union[str, RecoveryPolicy, None] = None):
        self.base = coder
        self.policy = resolve_policy(policy)
        self.input_width = coder.input_width
        #: bit position of the parity wire (just above the coder's MSB wire)
        self.parity_wire = coder.output_width
        #: bit position of the reverse NACK wire, if the policy uses one
        self.feedback_wire = (
            coder.output_width + 1 if self.policy.uses_feedback else None
        )
        self.output_width = coder.output_width + 1 + int(self.policy.uses_feedback)
        self._base_mask = (1 << coder.output_width) - 1
        self._in_mask = (1 << coder.input_width) - 1
        self.reset()

    # -- fault-free Transcoder interface --------------------------------

    def reset(self) -> None:
        self.base.reset()

    def encode_value(self, value: int) -> int:
        state = self.base.encode_value(value)
        return state | (_parity(state) << self.parity_wire)

    def decode_state(self, state: int) -> int:
        forward = state & self._base_mask
        received_parity = (state >> self.parity_wire) & 1
        if _parity(forward) != received_parity:
            raise DesyncError(
                f"parity mismatch on received state {forward:#x}",
                coder=type(self.base).__name__,
            )
        return self.base.decode_state(forward)

    # -- fault-injected co-simulation ------------------------------------

    def _fresh_base(self) -> Transcoder:
        twin = copy.deepcopy(self.base)
        twin.reset()
        return twin

    def run(
        self,
        trace: BusTrace,
        channel: Union[FaultyChannel, FaultModel, None] = None,
    ) -> ResilientRun:
        """Co-simulate encoder → faulty channel → decoder over ``trace``.

        Independent deep copies of the wrapped coder play the two ends
        of the bus; the channel perturbs the forward wires (data +
        parity — the NACK wire is assumed protected).  Returns the
        delivered value stream, the post-fault physical trace for
        energy accounting, and the detection/recovery record.
        """
        if trace.width != self.input_width:
            raise ValueError(
                f"trace width {trace.width} != transcoder input width {self.input_width}"
            )
        if channel is None:
            channel = FaultyChannel()
        elif isinstance(channel, FaultModel):
            channel = FaultyChannel(channel)
        channel.reset()

        policy = self.policy
        uses_feedback = policy.uses_feedback
        scheduled_period = policy.period if isinstance(policy, ResetBoth) else None
        fallback_window = (
            policy.window if isinstance(policy, FallbackStateless) else None
        )

        enc = self._fresh_base()
        dec = self._fresh_base()
        enc_fb: Optional[Transcoder] = None
        dec_fb: Optional[Transcoder] = None
        if fallback_window is not None:
            room = self.base.output_width - self.input_width
            enc_fb = _make_fallback(self.input_width, room)
            dec_fb = copy.deepcopy(enc_fb)
            fb_out_mask = (1 << enc_fb.output_width) - 1

        pw = self.parity_wire
        forward_width = self.base.output_width + 1  # wires exposed to faults
        base_mask = self._base_mask
        in_mask = self._in_mask

        nack_level = 0  # decoder-driven NACK wire (toggle signalling)
        enc_seen_nack = 0  # encoder's latched sample from last cycle
        fallback_until = -1  # last cycle of the active fallback window
        desync_since: Optional[int] = None
        detections: List[int] = []
        recoveries: List[RecoveryEvent] = []
        value_errors = 0
        silent_errors = 0

        n = len(trace)
        decoded = np.empty(n, dtype=np.uint64)
        physical = np.empty(n, dtype=np.uint64)

        _cosim_start = time.perf_counter()
        for t in range(n):
            truth = int(trace.values[t])

            # ---- scheduled joint reset (reset-both) ----------------------
            if scheduled_period is not None and t > 0 and t % scheduled_period == 0:
                enc.reset()
                dec.reset()
                if desync_since is not None:
                    recoveries.append(RecoveryEvent(desync_since, t))
                    desync_since = None

            # ---- feedback reaction (both ends observe last cycle's NACK) --
            if uses_feedback and nack_level != enc_seen_nack:
                enc_seen_nack = nack_level
                enc.reset()
                dec.reset()
                if fallback_window is not None:
                    fallback_until = t + fallback_window - 1
                    assert enc_fb is not None and dec_fb is not None
                    enc_fb.reset()
                    dec_fb.reset()
                if desync_since is not None:
                    recoveries.append(RecoveryEvent(desync_since, t))
                    desync_since = None

            in_fallback = t <= fallback_until

            # ---- encode --------------------------------------------------
            if in_fallback:
                assert enc_fb is not None
                forward = enc_fb.encode_value(truth)
            else:
                forward = enc.encode_value(truth)
            sent = forward | (_parity(forward) << pw)

            # ---- channel -------------------------------------------------
            recv = channel.transmit(t, sent, forward_width)

            # ---- decode --------------------------------------------------
            r_forward = recv & base_mask
            parity_ok = _parity(r_forward) == ((recv >> pw) & 1)
            detected = False
            if in_fallback:
                assert dec_fb is not None
                value = dec_fb.decode_state(r_forward & fb_out_mask)
                detected = not parity_ok  # recorded; stateless needs no action
            elif not parity_ok:
                detected = True
                value = r_forward & in_mask  # best-effort: raw data bits
            else:
                try:
                    value = dec.decode_state(r_forward)
                except DesyncError:
                    detected = True
                    value = r_forward & in_mask

            if detected:
                detections.append(t)
                if not in_fallback:
                    if desync_since is None:
                        desync_since = t
                    if uses_feedback:
                        nack_level ^= 1  # NACK: both ends act next cycle

            phys = recv
            if uses_feedback:
                phys |= nack_level << (pw + 1)
            physical[t] = phys
            decoded[t] = value

            if value != truth:
                value_errors += 1
                if not detected:
                    silent_errors += 1

        # Telemetry: the fault co-simulation's health counters (see the
        # DESIGN.md observability mapping — these are the §fault-co-sim
        # quantities the sweeps aggregate).
        base_name = type(self.base).__name__
        obs.observe(
            "coder.cosim_s",
            time.perf_counter() - _cosim_start,
            coder=base_name,
            policy=policy.name,
        )
        obs.inc("coder.cosim_runs", coder=base_name, policy=policy.name)
        obs.inc("coder.cosim_cycles", n, coder=base_name, policy=policy.name)
        if detections:
            obs.inc(
                "coder.desync_events",
                len(detections),
                coder=base_name,
                policy=policy.name,
            )
        if recoveries:
            obs.inc(
                "coder.desync_recoveries",
                len(recoveries),
                coder=base_name,
                policy=policy.name,
            )
        if silent_errors:
            obs.inc(
                "coder.silent_errors",
                silent_errors,
                coder=base_name,
                policy=policy.name,
            )

        name = trace.name or ""
        suffix = f"resilient[{type(self.base).__name__}|{policy.name}]"
        return ResilientRun(
            decoded=BusTrace(decoded, self.input_width, f"{name}|{suffix}" if name else suffix),
            physical=BusTrace(physical, self.output_width, f"{name}|{suffix}|phys" if name else f"{suffix}|phys"),
            policy=policy.name,
            injected_cycles=channel.injected_cycles,
            flipped_bits=channel.flipped_bits,
            detections=detections,
            recoveries=recoveries,
            value_errors=value_errors,
            silent_errors=silent_errors,
            open_desync=desync_since,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResilientTranscoder({self.base!r}, policy={self.policy.name!r}, "
            f"W_C={self.output_width})"
        )
