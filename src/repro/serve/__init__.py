"""``repro.serve`` — the streaming trace-serving subsystem.

The batch CLI materialises whole traces; this package serves the same
transcoders as *online* components, the paper's per-cycle FSM view
(Figure 1) lifted to a network service:

* :mod:`~repro.serve.protocol` — versioned newline-JSON frames, typed
  error codes (``busy`` backpressure, ``desync`` detection, ...);
* :mod:`~repro.serve.engine` — per-connection sessions holding live
  transcoder FSM state, a bounded request queue with 429-style
  rejection, micro-batching of concurrent one-shot encodes into the
  vectorized kernels, per-request deadlines and a bounded drain;
* :mod:`~repro.serve.server` — the asyncio TCP frontend
  (``repro serve``);
* :mod:`~repro.serve.client` — the asyncio client and the
  ``repro client`` CLI's backend;
* :mod:`~repro.serve.recovery` — :class:`ResilientTraceClient`, the
  auto-resuming client (reconnect → ``resume`` from an exported
  checkpoint → bit-exact tail replay);
* :mod:`~repro.serve.chaos` — the seeded chaos proxy enforcing
  :mod:`repro.faults.transport` fault models on live connections;
* :mod:`~repro.serve.ring` / :mod:`~repro.serve.ports` — consistent
  hashing and the shared ``--port 0`` announce/parse contract;
* :mod:`~repro.serve.supervisor` — worker process supervision:
  spawn ``repro serve --port 0`` subprocesses, heartbeat them, restart
  crashes and wedges with jittered backoff and flap detection;
* :mod:`~repro.serve.cluster` — the sharded cluster (``repro
  cluster``): a protocol-v2 router in front of N supervised workers,
  consistent-hash placement, crash failover and planned migration by
  checkpoint-export → ``resume`` → verified replay;
* :mod:`~repro.serve.loadgen` — ``repro loadgen``: open/closed-loop
  arrival disciplines with feed-latency percentiles;
* :mod:`~repro.serve.soak` — the ``repro chaos-soak`` and ``repro
  cluster-soak`` acceptance scenarios on the :mod:`repro.soak` core:
  resilient streams through the chaos proxy or through SIGKILLed
  workers, each verified to encode and decode bit-identically, plus
  resume/shed or failover/migration evidence and a clean drain.

The retry discipline (:class:`RetryPolicy` with an overall deadline
budget, :class:`CircuitBreaker` fail-fast, :class:`RestartBackoff`)
lives in :mod:`repro.retry`, shared with the run executor; its names
are re-exported here.

Everything is instrumented through :mod:`repro.obs` (``serve.*``
request counters, latency histograms, queue-depth gauges, ``chaos.*``
injection counters) and rendered by ``repro report``.
"""

from .chaos import ChaosProxy, ChaosStats, ChaosTransport
from .client import EncodeStream, FrameCorruptionError, TraceClient
from .cluster import ClusterRouter, TraceCluster
from .engine import ServeEngine, Session
from .loadgen import LoadgenConfig, LoadgenReport, run_loadgen
from .protocol import (
    ERROR_CODES,
    IDEMPOTENT_OPS,
    KNOWN_OPS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
)
from .recovery import ResilientTraceClient
from ..retry import (
    CircuitBreaker,
    CircuitOpenError,
    RestartBackoff,
    RetryBudgetExceeded,
    RetryPolicy,
)
from .ring import HashRing
from .server import TraceServer
from .supervisor import WorkerSpec, WorkerSupervisor

__all__ = [
    "ChaosProxy",
    "ChaosStats",
    "ChaosTransport",
    "CircuitBreaker",
    "CircuitOpenError",
    "ClusterRouter",
    "ERROR_CODES",
    "EncodeStream",
    "FrameCorruptionError",
    "HashRing",
    "IDEMPOTENT_OPS",
    "KNOWN_OPS",
    "LoadgenConfig",
    "LoadgenReport",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ResilientTraceClient",
    "RestartBackoff",
    "RetryBudgetExceeded",
    "RetryPolicy",
    "ServeEngine",
    "Session",
    "TraceClient",
    "TraceCluster",
    "TraceServer",
    "WorkerSpec",
    "WorkerSupervisor",
    "run_loadgen",
]
