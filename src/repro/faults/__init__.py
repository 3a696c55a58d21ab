"""Fault injection and resilience for bus transcoders.

The lock-step encoder/decoder symmetry that every stateful scheme in
:mod:`repro.coding` relies on is exactly what a real on-chip bus cannot
guarantee: transient timing errors, crosstalk glitches and supply droop
all corrupt wire states in flight, and a single corrupted state
desynchronises a dictionary-based transcoder *permanently*.

This package quantifies that fragility and prices the cure:

* :mod:`repro.faults.models` — deterministic, seeded fault injectors
  (bit flips at a BER, stuck-at wires, bursts, droop) behind a
  :class:`FaultyChannel`;
* :mod:`repro.faults.policies` — recovery policies built on common
  knowledge between the two FSMs (scheduled joint resets, NACK-driven
  stateless fallback, NACK-driven resync);
* :mod:`repro.faults.resilient` — the :class:`ResilientTranscoder`
  wrapper adding a parity wire (charged by the energy model), desync
  detection, and policy-driven recovery, plus the honest two-FSM
  co-simulation in :meth:`ResilientTranscoder.run`;
* :mod:`repro.faults.transport` — the same discipline lifted to the
  serving layer: seeded connection-level fault models (drops, stalls,
  partial writes, frame corruption, reordering) consumed by the chaos
  proxy in :mod:`repro.serve.chaos`.

The net-savings-vs-BER experiment is the ``faults`` matrix of
:mod:`repro.runs` (``repro run faults`` on the command line).
"""

from .models import (
    BitFlips,
    Burst,
    Compose,
    Droop,
    FaultModel,
    FaultyChannel,
    NoFaults,
    Scripted,
    StuckAt,
)
from .policies import (
    DEFAULT_POLICIES,
    POLICIES,
    FallbackStateless,
    RecoveryPolicy,
    ResetBoth,
    ResyncOnError,
    resolve_policy,
)
from .resilient import RecoveryEvent, ResilientRun, ResilientTranscoder
from .transport import (
    ComposeTransport,
    ConnectionDrop,
    CorruptFrame,
    FrameDecision,
    NoTransportFaults,
    PartialWrite,
    ReorderFrames,
    ScriptedTransport,
    StallFrames,
    TransportFault,
)

__all__ = [
    "FaultModel",
    "NoFaults",
    "BitFlips",
    "StuckAt",
    "Burst",
    "Droop",
    "Scripted",
    "Compose",
    "FaultyChannel",
    "RecoveryPolicy",
    "ResetBoth",
    "FallbackStateless",
    "ResyncOnError",
    "POLICIES",
    "DEFAULT_POLICIES",
    "resolve_policy",
    "ResilientTranscoder",
    "ResilientRun",
    "RecoveryEvent",
    "FrameDecision",
    "TransportFault",
    "NoTransportFaults",
    "ConnectionDrop",
    "StallFrames",
    "PartialWrite",
    "CorruptFrame",
    "ReorderFrames",
    "ScriptedTransport",
    "ComposeTransport",
]
