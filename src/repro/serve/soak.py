"""The serving soaks: bit-exact streams through network and process faults.

Two acceptance scenarios share one stream builder and one verifier:
N concurrent :class:`~repro.serve.recovery.ResilientTraceClient`
streams, each of which must **encode and decode bit-identically**
against the fault-free library path of its trace.  Faults may delay or
destroy connections and processes, never data.

``repro chaos-soak`` (:func:`run_chaos_soak`) attacks the *network* of
one real :class:`~repro.serve.server.TraceServer`: a seeded
:class:`~repro.serve.chaos.ChaosProxy` injects scheduled connection
drops, frame corruption, stalls, partial writes and response reorders.
It passes only if every stream verifies, at least one session
**resume** and one **shed/busy** rejection were observed (the overload
phase floods a paused engine past its queue bound), and the server
**drains cleanly**.  Every fault model is a pure FSM of ``(seed, frame
index)`` and cuts are *scheduled* late enough that a checkpoint export
has always happened, so the verdict is a function of the seed.

``repro cluster-soak`` (:func:`run_cluster_soak`) attacks the
*processes* of a real :class:`~repro.serve.cluster.TraceCluster`:

1. feed every stream up to a phase boundary (placements settle,
   checkpoints exported);
2. **SIGKILL** the worker hosting stream 0's session — a real
   ``kill -9`` — and keep feeding, so the victim's sessions fail over
   to ring neighbours while the supervisor restarts the corpse;
3. wait for the cluster to heal, then run a **planned rebalance**: the
   failed-over sessions migrate home by checkpoint-export → ``resume``;
4. feed the remainder and close every stream.

It passes only if every stream verifies, at least one crash
**failover** and one planned **migration** were observed, and every
worker — the restarted victim included — drains cleanly on SIGTERM.
Traces, placement, backoff jitter and the kill target are functions of
the seed and the phase structure; the one scheduler-dependent freedom
(which ops land during the victim's downtime) is covered by invariants
that hold for every interleaving.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, List, Optional

import numpy as np

from .. import obs
from ..coding.specs import parse_coder_spec
from ..corpus.workload import WorkloadSource, parse_workload_source
from ..faults.transport import (
    ComposeTransport,
    ConnectionDrop,
    CorruptFrame,
    PartialWrite,
    ReorderFrames,
    StallFrames,
    TransportFault,
)
from ..retry import CircuitBreaker, RestartBackoff, RetryPolicy
from ..soak import SoakReport
from ..traces.trace import BusTrace
from ..workloads import locality_trace
from . import protocol
from .chaos import ChaosProxy
from .client import TraceClient
from .cluster import TraceCluster
from .loadgen import LOADGEN_SPECS
from .recovery import ResilientTraceClient
from .server import TraceServer
from .supervisor import WorkerSpec

__all__ = [
    "ChaosSoakConfig",
    "ClusterSoakConfig",
    "run_chaos_soak",
    "run_cluster_soak",
]

log = obs.get_logger("serve.soak")

#: Bus width of the built-in synthetic soak traces.
WIDTH = 16

# -- chaos soak: one server behind the chaos proxy ---------------------
#: Client retry discipline (each stream mixes in its own jitter seed).
CHAOS_RETRY = RetryPolicy(
    attempts=16,
    base_backoff_s=0.02,
    max_backoff_s=0.5,
    attempt_timeout_s=2.0,
    deadline_s=60.0,  # per-chunk overall budget
)
CHAOS_CHECKPOINT_EVERY = 3  #: client checkpoint-export cadence
CHAOS_QUEUE_LIMIT = 16  #: server queue bound (shed threshold)
CHAOS_BATCH_LIMIT = 8
CHAOS_REQUEST_TIMEOUT_S = 30.0
CHAOS_SESSION_IDLE_TIMEOUT_S = 30.0
CHAOS_DRAIN_TIMEOUT_S = 10.0
#: Scheduled c2s connection cut: frame ``CUT_AT + (index % CUT_SPREAD)``
#: of every proxied connection.  Late enough that the first exported
#: checkpoint (open + 3 chunks + export = 5 frames) already exists.
CUT_AT = 9
CUT_SPREAD = 4
STALL_RATE = 0.05
STALL_S = 0.02
CORRUPT_RATE = 0.03  #: s2c frame corruption probability
PARTIAL_RATE = 0.04  #: c2s split-frame probability
TRUNCATE_RATE = 0.02  #: s2c died-mid-write probability
REORDER_RATE = 0.03  #: s2c adjacent-reorder probability

# -- cluster soak: supervised workers behind the router ----------------
CLUSTER_RETRY = RetryPolicy(
    attempts=24,
    base_backoff_s=0.02,
    max_backoff_s=0.5,
    attempt_timeout_s=5.0,
    deadline_s=120.0,  # per-chunk overall budget
)
CLUSTER_CHECKPOINT_EVERY = 2
CLUSTER_QUEUE_LIMIT = 64
CLUSTER_BATCH_LIMIT = 16
CLUSTER_REQUEST_TIMEOUT_S = 20.0
CLUSTER_DRAIN_TIMEOUT_S = 15.0
HEARTBEAT_INTERVAL_S = 0.2
LIVENESS_DEADLINE_S = 2.0
HEAL_TIMEOUT_S = 60.0  #: budget for a killed worker to come back


def _check_sizes(
    clients: int, cycles: Optional[int], chunk: int, what: str = "cycles"
) -> None:
    """``cycles`` is None while the stream lengths are unknown (a corpus)."""
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if chunk < 1 or (cycles is not None and cycles < chunk):
        bound = "" if cycles is None else f" <= {what} ({cycles})"
        raise ValueError(f"need 1 <= chunk ({chunk}){bound}")


@dataclass(frozen=True)
class ChaosSoakConfig:
    """One chaos-soak scenario; the verdict is a function of it."""

    clients: int = 8  #: concurrent resilient streams (acceptance: >= 8)
    cycles: int = 600  #: trace length per stream
    chunk: int = 60  #: values per streamed chunk
    seed: int = 0  #: master seed for traces and fault models

    def __post_init__(self):
        _check_sizes(self.clients, self.cycles, self.chunk)

    @classmethod
    def quick(cls, seed: int = 0, clients: int = 8) -> "ChaosSoakConfig":
        """The CI profile: small traces, same fault coverage."""
        return cls(clients=clients, cycles=360, chunk=40, seed=seed)


@dataclass(frozen=True)
class ClusterSoakConfig:
    """One cluster-soak scenario; deterministic given ``seed``."""

    workers: int = 4
    clients: int = 8
    cycles: int = 480  #: trace length per stream
    chunk: int = 40  #: values per streamed chunk
    seed: int = 0
    kills: int = 1  #: SIGKILL rounds (each kills one hosting worker)
    obs_dir: str = ""  #: per-worker telemetry base (CI artifacts); "" = off
    #: Workload-source spec (``corpus:DIR``/``gen:...``/``suite:...``).
    #: When set, client ``i`` streams member ``i`` of the source, whose
    #: bus width and per-stream cycle counts replace the synthetic ones
    #: — the bit-exactness verdict then covers corpus replay end to end.
    corpus: str = ""

    def __post_init__(self):
        if self.workers < 2:
            raise ValueError(
                f"workers must be >= 2 for a failover soak, got {self.workers}"
            )
        if self.kills < 1:
            raise ValueError(f"kills must be >= 1, got {self.kills}")
        # Under a corpus the streams' own lengths replace ``cycles``;
        # run_cluster_soak checks ``chunk`` against them once resolved.
        _check_sizes(self.clients, None if self.corpus else self.cycles, self.chunk)

    @classmethod
    def quick(cls, seed: int = 0) -> "ClusterSoakConfig":
        """The CI profile: 3 workers, shorter traces, one kill."""
        return cls(workers=3, clients=6, cycles=240, chunk=20, seed=seed)


# -- the shared stream builder and verifier ----------------------------


@dataclass
class _SoakStream:
    """One client stream and its ground truth."""

    index: int
    spec: str
    trace: BusTrace
    client: ResilientTraceClient
    states: List[int] = field(default_factory=list)
    error: str = ""  #: why feeding stopped early, if it did


def _soak_traces(
    clients: int, cycles: int, seed: int, source: Optional[WorkloadSource] = None
) -> List[BusTrace]:
    """Stream ``i``'s trace: member ``i`` of ``source``, else synthetic."""
    if source is not None:
        return [source.for_stream(i).trace() for i in range(clients)]
    return [
        locality_trace(cycles, width=WIDTH, seed=seed * 1000 + 17 * i + 5)
        for i in range(clients)
    ]


def _open_streams(
    traces: List[BusTrace],
    host: str,
    port: int,
    retry: RetryPolicy,
    checkpoint_every: int,
    seed: int,
) -> List[_SoakStream]:
    streams = []
    for index, trace in enumerate(traces):
        # The loadgen's coder cycle, stateful families included, so
        # resumption and failover restore non-trivial FSM state.
        spec = LOADGEN_SPECS[index % len(LOADGEN_SPECS)]
        client = ResilientTraceClient(
            host,
            port,
            coder=spec,
            width=trace.width,
            retry=dataclasses.replace(retry, seed=seed * 31 + index),
            breaker=CircuitBreaker(failure_threshold=12, reset_timeout_s=0.1),
            checkpoint_every=checkpoint_every,
        )
        streams.append(_SoakStream(index, spec, trace, client))
    return streams


async def _feed(
    stream: _SoakStream, chunk: int, start: int = 0, stop: Optional[int] = None
) -> None:
    """Feed chunks ``[start, stop)`` of one stream (default: all)."""
    values = [int(v) for v in stream.trace.values]
    end = len(values) if stop is None else min(len(values), stop * chunk)
    for lo in range(start * chunk, end, chunk):
        stream.states.extend(await stream.client.feed(values[lo : lo + chunk]))


def _divergence(stream: _SoakStream) -> str:
    """Why a stream's wire states are wrong; "" when they encode AND
    decode bit-identically to the fault-free library path."""
    coder = parse_coder_spec(stream.spec, stream.trace.width)
    expected = coder.encode_trace(stream.trace)
    produced = np.asarray(stream.states, dtype=np.uint64)
    if not np.array_equal(produced, expected.values):
        return (
            f"{len(stream.states)} streamed cycles diverged from the "
            f"fault-free encode"
        )
    decoded = coder.decode_trace(
        BusTrace(produced, expected.width, f"soak{stream.index}")
    )
    if not np.array_equal(decoded.values, stream.trace.values):
        return "decoded values diverged from the original trace"
    return ""


def _check_streams(
    report: SoakReport, streams: List[_SoakStream], clients: int, aborted: str = ""
) -> None:
    problems = [aborted] if aborted else []
    verified = 0
    for stream in streams:
        problem = stream.error or _divergence(stream)
        if problem:
            problems.append(f"stream {stream.index} ({stream.spec}): {problem}")
        else:
            verified += 1
    report.stats["streams_verified"] = verified
    report.add(
        "streams encode and decode bit-identically",
        verified == clients and not problems,
        "; ".join(problems),
    )


# -- chaos soak --------------------------------------------------------


def _client_faults(seed: int) -> Any:
    """c2s fault factory: scheduled cuts + stalls + benign splits."""

    def factory(index: int) -> TransportFault:
        return ComposeTransport(
            ConnectionDrop(at_frames=(CUT_AT + (index % CUT_SPREAD),)),
            StallFrames(
                rate=STALL_RATE, delay_s=STALL_S, seed=seed * 7919 + index * 2 + 1
            ),
            PartialWrite(
                rate=PARTIAL_RATE, seed=seed * 6101 + index * 2 + 1, truncate=False
            ),
        )

    return factory


def _server_faults(seed: int) -> Any:
    """s2c fault factory: corruption + truncation + stalls + reorder.

    Corruption lives on the *response* path only: a corrupted response
    is detected immediately by the client's receive loop (undecodable
    frame → connection declared broken → resume), whereas a corrupted
    *request* would be answered with a null id the client cannot
    correlate — a hang, not a fault model.
    """

    def factory(index: int) -> TransportFault:
        return ComposeTransport(
            CorruptFrame(rate=CORRUPT_RATE, seed=seed * 7907 + index * 2, nbytes=2),
            PartialWrite(
                rate=TRUNCATE_RATE, seed=seed * 6311 + index * 2, truncate=True
            ),
            StallFrames(rate=STALL_RATE, delay_s=STALL_S, seed=seed * 7919 + index * 2),
            ReorderFrames(rate=REORDER_RATE, seed=seed * 5987 + index * 2),
        )

    return factory


async def _stream_through(stream: _SoakStream, chunk: int) -> None:
    try:
        await _feed(stream, chunk)
    finally:
        await stream.client.close()


async def _provoke_shed(server: TraceServer) -> int:
    """Deterministically overload the bounded queue; returns the sheds.

    The engine is paused first, so admission outruns service by
    construction — flooding ``2 * queue_limit + 4`` requests *must*
    shed at least ``queue_limit + 4`` of them, independent of timing.
    The flood talks to the server directly (not through the proxy):
    overload is a server property, not a network one.
    """
    engine = server.engine
    engine.pause()
    client = await TraceClient.connect(server.host, server.port)
    try:
        flood = [
            asyncio.ensure_future(client.request("hello"))
            for _ in range(2 * engine.queue_limit + 4)
        ]
        await asyncio.sleep(0.1)  # let rejections land
        engine.resume()
        responses = await asyncio.gather(*flood)
        return sum(
            1
            for r in responses
            if not r.get("ok") and r["error"]["code"] == protocol.ERR_BUSY
        )
    finally:
        await client.close()


async def run_chaos_soak(config: ChaosSoakConfig) -> SoakReport:
    """Run one chaos-soak scenario; returns its :class:`SoakReport`."""
    t0 = time.monotonic()
    report = SoakReport()
    traces = _soak_traces(config.clients, config.cycles, config.seed)
    server = TraceServer(
        port=0,
        queue_limit=CHAOS_QUEUE_LIMIT,
        batch_limit=CHAOS_BATCH_LIMIT,
        request_timeout_s=CHAOS_REQUEST_TIMEOUT_S,
        session_idle_timeout_s=CHAOS_SESSION_IDLE_TIMEOUT_S,
    )
    await server.start()
    proxy = ChaosProxy(
        server.host,
        server.port,
        client_faults=_client_faults(config.seed),
        server_faults=_server_faults(config.seed),
    )
    await proxy.start()
    streams: List[_SoakStream] = []
    sheds, shed_error = 0, ""
    try:
        # Phase 1: N concurrent resilient streams through the chaos.
        streams = _open_streams(
            traces, proxy.host, proxy.port, CHAOS_RETRY, CHAOS_CHECKPOINT_EVERY,
            config.seed,
        )
        outcomes = await asyncio.gather(
            *(_stream_through(s, config.chunk) for s in streams),
            return_exceptions=True,
        )
        for stream, outcome in zip(streams, outcomes):
            if isinstance(outcome, BaseException):
                stream.error = f"{type(outcome).__name__}: {outcome}"
        # Phase 2: deterministic overload against the server itself.
        try:
            sheds = await _provoke_shed(server)
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            shed_error = f"{type(exc).__name__}: {exc}"
    finally:
        await proxy.stop()
        # Phase 3: the server must drain cleanly under a bounded budget.
        drain = await server.stop(CHAOS_DRAIN_TIMEOUT_S)

    # -- the verdict ---------------------------------------------------
    _check_streams(report, streams, config.clients)
    resumes = sum(s.client.resumes for s in streams)
    report.add(
        "session resumed after a scheduled cut",
        resumes >= 1,
        f"resumes={resumes}",
    )
    report.add(
        "overload shed a request",
        sheds >= 1,
        shed_error or f"sheds={sheds}",
    )
    drained = bool(drain.get("drained")) and not drain.get("outstanding")
    report.add("server drained cleanly", drained, "" if drained else str(drain))
    report.stats.update(
        resumes=resumes,
        reconnects=sum(s.client.reconnects for s in streams),
        sheds=sheds,
        drain=drain,
        chaos=proxy.stats.as_dict(),
    )
    report.elapsed_s = time.monotonic() - t0
    obs.inc("soak.runs")
    obs.inc("soak.resumes_observed", resumes)
    obs.inc("soak.sheds_observed", sheds)
    log.info(
        "chaos soak finished",
        extra=obs.fields(
            ok=report.ok, resumes=resumes, sheds=sheds,
            elapsed_s=round(report.elapsed_s, 2),
        ),
    )
    return report


# -- cluster soak ------------------------------------------------------


async def _emit_live_artifacts(
    cluster: TraceCluster, obs_dir: str, report: SoakReport
) -> None:
    """``repro top --once --json`` against the live soak cluster.

    Runs while the (healed) cluster is still serving — the document
    proves the ``telemetry`` op fans out and merges under real load —
    and lands as ``<obs_dir>/top.json`` for the CI artifact upload.
    Best-effort: a probe failure is logged, never a soak failure.
    """
    from .telemetry import fetch_telemetry, summarize_telemetry

    try:
        response = await fetch_telemetry("127.0.0.1", cluster.port)
    except (ConnectionError, OSError, RuntimeError, asyncio.TimeoutError) as exc:
        log.warning(
            "live telemetry probe failed", extra=obs.fields(error=str(exc))
        )
        return
    summary = summarize_telemetry(response)
    os.makedirs(obs_dir, exist_ok=True)
    path = os.path.join(obs_dir, "top.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    report.artifacts["telemetry snapshot"] = path


def _emit_postmortem_artifacts(
    cluster: TraceCluster, obs_dir: str, report: SoakReport
) -> None:
    """Stitched cross-process trace + harvested flight journals.

    Runs after the drain: SIGTERMed workers have exported their
    ``spans.jsonl`` on the way out, and the SIGKILLed generations left
    their flight journals behind.  The router (this process) exports
    its own spans under ``<obs_dir>/router`` so the stitch covers both
    sides of every hop.
    """
    for worker_id in sorted(cluster.supervisor.handles):
        dump = cluster.supervisor.flight_dump(worker_id)
        if dump:
            report.artifacts[f"flight journal {worker_id}"] = dump
    try:
        obs.export_run(obs_dir=os.path.join(obs_dir, "router"))
    except OSError as exc:  # pragma: no cover - disk trouble
        log.warning("router span export failed", extra=obs.fields(error=str(exc)))
    from ..obs.stitch import stitch_run

    out = os.path.join(obs_dir, "trace-stitched.json")
    try:
        result = stitch_run([obs_dir], out)
    except FileNotFoundError:
        # REPRO_OBS=0: nobody exported spans; nothing to stitch.
        return
    report.artifacts["stitched trace"] = out
    log.info(
        "stitched trace written",
        extra=obs.fields(out=out, spans=result["spans"], flows=result["flows"]),
    )


async def run_cluster_soak(config: ClusterSoakConfig) -> SoakReport:
    """Run one cluster-soak scenario; returns its :class:`SoakReport`."""
    t0 = time.monotonic()
    # Resolve the traffic before any worker exists: a bad --corpus is an
    # input error, and must not leave a cluster behind.
    source = parse_workload_source(config.corpus) if config.corpus else None
    traces = _soak_traces(config.clients, config.cycles, config.seed, source)
    # Per-stream cycle counts may differ under --corpus; phase the soak
    # on the longest stream (shorter ones simply finish feeding early).
    longest = max(len(trace) for trace in traces)
    _check_sizes(config.clients, longest, config.chunk, "the longest stream")
    report = SoakReport(stats={"source": config.corpus or "synthetic (built-in)"})
    cluster = TraceCluster(
        workers=config.workers,
        port=0,
        spec=WorkerSpec(
            queue_limit=CLUSTER_QUEUE_LIMIT,
            batch_limit=CLUSTER_BATCH_LIMIT,
            request_timeout_s=CLUSTER_REQUEST_TIMEOUT_S,
            drain_timeout_s=CLUSTER_DRAIN_TIMEOUT_S,
            obs_dir=config.obs_dir or None,
        ),
        checkpoint_every=CLUSTER_CHECKPOINT_EVERY,
        rebalance_on_join=False,  # the soak rebalances at a known point
        heartbeat_interval_s=HEARTBEAT_INTERVAL_S,
        liveness_deadline_s=LIVENESS_DEADLINE_S,
        backoff_factory=lambda index: RestartBackoff(
            base_s=0.05, max_s=0.5, seed=config.seed * 8191 + index
        ),
        seed=config.seed,
    )
    total_chunks = (longest + config.chunk - 1) // config.chunk
    # Phase boundaries: kills happen at evenly spaced chunk indices,
    # each followed by a feeding phase over the wreckage, a heal wait
    # and a planned rebalance.
    segments = config.kills + 1
    boundaries = [(r + 1) * total_chunks // segments for r in range(config.kills)]
    streams: List[_SoakStream] = []
    kills = failovers = migrations = 0
    aborted = ""

    async def feed_all(start: int, stop: int) -> None:
        await asyncio.gather(*(_feed(s, config.chunk, start, stop) for s in streams))

    try:
        await cluster.start()
        streams = _open_streams(
            traces, "127.0.0.1", cluster.port, CLUSTER_RETRY,
            CLUSTER_CHECKPOINT_EVERY, config.seed,
        )
        position = 0
        for boundary in boundaries:
            await feed_all(position, boundary)
            position = boundary
            # Aim the kill where it hurts: the worker hosting stream
            # 0's session (fall back to any session's host).
            victim = None
            for stream in streams:
                session = stream.client.session_id
                if session is not None:
                    victim = cluster.worker_of(session)
                    if victim is not None:
                        break
            if victim is None:  # pragma: no cover - every stream idle
                victim = cluster.supervisor.live_workers()[0]
            pid = cluster.kill_worker(victim)
            kills += 1
            log.info(
                "worker killed",
                extra=obs.fields(worker=victim, pid=pid, at_chunk=boundary),
            )
            # Feed straight through the crash: the victim's sessions
            # fail over to ring neighbours on first touch.
            heal_boundary = min(
                total_chunks, boundary + max(1, total_chunks // (2 * segments))
            )
            await feed_all(position, heal_boundary)
            position = heal_boundary
            # Let the supervisor finish the restart, then bring the
            # failed-over sessions home — the planned path.
            await cluster.supervisor.wait_all_up(HEAL_TIMEOUT_S)
            migrations += await cluster.rebalance()
        await feed_all(position, total_chunks)
        if config.obs_dir:
            await _emit_live_artifacts(cluster, config.obs_dir, report)
        # Harvest per-session failover counters before close removes
        # them (migrations were already counted via rebalance()).
        for session in cluster.router.sessions.values():
            failovers += session.failovers
        for stream in streams:
            await stream.client.close()
    except BaseException as exc:
        aborted = f"soak aborted: {type(exc).__name__}: {exc}"
        for stream in streams:
            try:
                await stream.client.close()
            except Exception:  # noqa: BLE001 - already failing
                pass
        if not isinstance(exc, Exception):
            raise  # cancellation etc.; the finally still drains
    finally:
        restarts = cluster.supervisor.restarts()
        drain = await cluster.stop(CLUSTER_DRAIN_TIMEOUT_S)
    if config.obs_dir:
        _emit_postmortem_artifacts(cluster, config.obs_dir, report)

    # -- the verdict ---------------------------------------------------
    _check_streams(report, streams, config.clients, aborted)
    report.add(
        "crash failover after SIGKILL", failovers >= 1, f"failovers={failovers}"
    )
    report.add(
        "planned migration home", migrations >= 1, f"migrations={migrations}"
    )
    drained = bool(drain.get("clean"))
    report.add("cluster drained cleanly", drained, "" if drained else str(drain))
    report.stats.update(
        kills=kills,
        failovers=failovers,
        migrations=migrations,
        worker_restarts=restarts,
        resumes=sum(s.client.resumes for s in streams),
        reconnects=sum(s.client.reconnects for s in streams),
        drain=drain,
    )
    report.elapsed_s = time.monotonic() - t0
    obs.inc("cluster.soak_runs")
    log.info(
        "cluster soak finished",
        extra=obs.fields(
            ok=report.ok, kills=kills, failovers=failovers,
            migrations=migrations, restarts=restarts,
            elapsed_s=round(report.elapsed_s, 2),
        ),
    )
    return report
