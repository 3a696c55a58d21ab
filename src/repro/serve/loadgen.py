"""Load generator for a serving endpoint (``repro loadgen``).

Drives a ``repro serve`` or ``repro cluster`` front door with N
concurrent streaming sessions and measures per-chunk feed latency.
Two arrival disciplines, the classic pair:

* **closed-loop** — each stream feeds its next chunk the moment the
  previous one is acknowledged.  Offered load adapts to the server:
  this measures *capacity* (throughput at concurrency N) but hides
  queueing delay, because a slow server is offered less work.
* **open-loop** — chunk arrivals are a seeded Poisson process at
  ``rate`` chunks/s, assigned round-robin across the streams and
  queued per stream (a stream is a FIFO of its own chunks — session
  ops must stay ordered).  Offered load is *independent* of the
  server, so latency here includes the queueing that coordinated
  omission hides: this is the discipline that shows you saturation.

Latency lands twice: in a local reservoir (exact percentiles for the
run's own table) and in the ``cluster.loadgen_feed_s`` obs histogram,
so ``repro loadgen --obs-dir ... && repro report ...`` shows p50/p90/
p99 next to the router's ``cluster.*`` counters.

Feeds ride :class:`~repro.serve.recovery.ResilientTraceClient`, so the
generator keeps offering load straight through worker failovers — a
kill under load shows up as a latency tail, not a dead run.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .. import obs
from ..corpus.workload import WorkloadSource, parse_workload_source
from ..workloads import locality_trace
from .recovery import ResilientTraceClient
from ..retry import CircuitBreaker, RetryPolicy

__all__ = ["LoadgenConfig", "LoadgenReport", "run_loadgen"]

log = obs.get_logger("serve.loadgen")

#: Coder specs cycled across streams (same diversity as the soaks).
LOADGEN_SPECS = ("window8", "fcm", "stride4", "transition", "invert", "last")


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation scenario (deterministic given ``seed``)."""

    host: str = "127.0.0.1"
    port: int = 7453
    mode: str = "closed"  #: "closed" or "open"
    streams: int = 8  #: concurrent sessions
    chunks: int = 50  #: chunks fed per stream
    chunk: int = 64  #: cycles per chunk
    width: int = 16
    rate: float = 200.0  #: open-loop arrivals per second (all streams)
    seed: int = 0
    checkpoint_every: int = 8
    attempt_timeout_s: float = 5.0
    deadline_s: float = 60.0
    #: Consecutive streams sharing one coder spec.  ``1`` cycles the
    #: spec per stream (maximum diversity); ``streams`` makes every
    #: session identical — the shape that lets the engine's micro-batch
    #: coalesce a whole drain into one columnar kernel call.
    sessions_per_spec: int = 1
    #: Negotiate binary bulk frames on every stream's connection.
    binary: bool = False
    #: Workload-source spec (``corpus:DIR``, ``gen:...``, ``suite:...``;
    #: see :mod:`repro.corpus.workload`).  When set, stream traffic
    #: comes from the source — its bus width overrides ``width`` and
    #: each stream's chunk count follows its own cycle count instead of
    #: ``chunks`` — so the generator drives realistic, reproducible
    #: populations instead of ad-hoc synthetic traces.
    corpus: str = ""

    def __post_init__(self):
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', got {self.mode!r}")
        if self.streams < 1 or self.chunks < 1 or self.chunk < 1:
            raise ValueError("streams, chunks and chunk must all be >= 1")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.sessions_per_spec < 1:
            raise ValueError(
                f"sessions_per_spec must be >= 1, got {self.sessions_per_spec}"
            )


@dataclass
class LoadgenReport:
    """Throughput + latency summary of one run."""

    mode: str = "closed"
    streams: int = 0
    offered: int = 0  #: chunks the scenario set out to feed
    chunks_done: int = 0
    chunks_failed: int = 0
    cycles: int = 0
    elapsed_s: float = 0.0
    resumes: int = 0
    reconnects: int = 0
    latencies_s: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def throughput_cps(self) -> float:
        """Encoded cycles per second of wall time."""
        return self.cycles / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def quantile(self, q: float) -> float:
        """Exact sample quantile of feed latency (seconds)."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "streams": self.streams,
            "offered": self.offered,
            "chunks_done": self.chunks_done,
            "chunks_failed": self.chunks_failed,
            "cycles": self.cycles,
            "elapsed_s": round(self.elapsed_s, 3),
            "throughput_cps": round(self.throughput_cps, 1),
            "latency_p50_ms": round(self.quantile(0.50) * 1e3, 3),
            "latency_p90_ms": round(self.quantile(0.90) * 1e3, 3),
            "latency_p99_ms": round(self.quantile(0.99) * 1e3, 3),
            "resumes": self.resumes,
            "reconnects": self.reconnects,
            "errors": list(self.errors),
        }


def _make_client(
    config: LoadgenConfig, index: int, width: int
) -> ResilientTraceClient:
    return ResilientTraceClient(
        config.host,
        config.port,
        coder=LOADGEN_SPECS[
            (index // config.sessions_per_spec) % len(LOADGEN_SPECS)
        ],
        width=width,
        retry=RetryPolicy(
            attempts=16,
            base_backoff_s=0.02,
            max_backoff_s=0.5,
            attempt_timeout_s=config.attempt_timeout_s,
            deadline_s=config.deadline_s,
            seed=config.seed * 37 + index,
        ),
        breaker=CircuitBreaker(failure_threshold=12, reset_timeout_s=0.1),
        checkpoint_every=config.checkpoint_every,
        binary=config.binary,
    )


def _chunks_for(
    config: LoadgenConfig, index: int, source: Optional[WorkloadSource]
) -> List[List[int]]:
    if source is not None:
        # Corpus/generator traffic: bounded-memory chunked reads, one
        # stream of the population per session (index wraps).
        return [
            [int(v) for v in part.values]
            for part in source.for_stream(index).chunks(config.chunk)
        ]
    trace = locality_trace(
        config.chunks * config.chunk,
        width=config.width,
        seed=config.seed * 1000 + 13 * index + 7,
    )
    values = [int(v) for v in trace.values]
    return [
        values[start : start + config.chunk]
        for start in range(0, len(values), config.chunk)
    ]


async def _feed_timed(
    client: ResilientTraceClient, chunk: List[int], report: LoadgenReport
) -> None:
    t0 = time.monotonic()
    try:
        await client.feed(chunk)
    except (ConnectionError, OSError, asyncio.TimeoutError, ValueError) as exc:
        report.chunks_failed += 1
        if len(report.errors) < 10:
            report.errors.append(f"{type(exc).__name__}: {exc}")
        return
    latency = time.monotonic() - t0
    report.chunks_done += 1
    report.cycles += len(chunk)
    report.latencies_s.append(latency)
    obs.observe("cluster.loadgen_feed_s", latency)


async def _run_closed(
    config: LoadgenConfig,
    report: LoadgenReport,
    per_stream: List[List[List[int]]],
    width: int,
) -> None:
    async def one_stream(index: int) -> None:
        client = _make_client(config, index, width)
        try:
            for chunk in per_stream[index]:
                await _feed_timed(client, chunk, report)
        finally:
            await client.close()
            report.resumes += client.resumes
            report.reconnects += client.reconnects

    await asyncio.gather(*(one_stream(i) for i in range(config.streams)))


async def _run_open(
    config: LoadgenConfig,
    report: LoadgenReport,
    per_stream: List[List[List[int]]],
    width: int,
) -> None:
    """Poisson arrivals at ``rate``, round-robin over per-stream FIFOs."""
    rng = random.Random(config.seed * 0x9E3779B1 + 0xA5)
    queues: List["asyncio.Queue[Optional[List[int]]]"] = [
        asyncio.Queue() for _ in range(config.streams)
    ]

    async def one_stream(index: int) -> None:
        client = _make_client(config, index, width)
        try:
            while True:
                chunk = await queues[index].get()
                if chunk is None:
                    return
                await _feed_timed(client, chunk, report)
        finally:
            await client.close()
            report.resumes += client.resumes
            report.reconnects += client.reconnects

    workers = [
        asyncio.ensure_future(one_stream(i)) for i in range(config.streams)
    ]
    arrivals = [
        (turn, index)
        for turn in range(max(len(chunks) for chunks in per_stream))
        for index in range(config.streams)
        if turn < len(per_stream[index])
    ]
    for turn, index in arrivals:
        await asyncio.sleep(rng.expovariate(config.rate))
        await queues[index].put(per_stream[index][turn])
    for queue in queues:
        await queue.put(None)
    await asyncio.gather(*workers)


async def run_loadgen(config: LoadgenConfig) -> LoadgenReport:
    """Run one scenario; returns its :class:`LoadgenReport`."""
    source = parse_workload_source(config.corpus) if config.corpus else None
    width = source.width if source is not None else config.width
    per_stream = [
        _chunks_for(config, i, source) for i in range(config.streams)
    ]
    report = LoadgenReport(
        mode=config.mode,
        streams=config.streams,
        offered=sum(len(chunks) for chunks in per_stream),
    )
    t0 = time.monotonic()
    if config.mode == "closed":
        await _run_closed(config, report, per_stream, width)
    else:
        await _run_open(config, report, per_stream, width)
    report.elapsed_s = time.monotonic() - t0
    obs.inc("cluster.loadgen_chunks", report.chunks_done)
    obs.set_gauge("cluster.loadgen_throughput_cps", report.throughput_cps)
    if report.latencies_s:
        # Exact sample percentiles ride along as gauges so
        # `repro report` can show the bucketed `cluster.loadgen_feed_s`
        # estimates next to ground truth and flag drift.
        obs.set_gauge("cluster.loadgen_exact_p50_s", report.quantile(0.50))
        obs.set_gauge("cluster.loadgen_exact_p90_s", report.quantile(0.90))
        obs.set_gauge("cluster.loadgen_exact_p99_s", report.quantile(0.99))
    log.info(
        "loadgen finished",
        extra=obs.fields(
            mode=config.mode,
            chunks=report.chunks_done,
            failed=report.chunks_failed,
            throughput_cps=round(report.throughput_cps, 1),
            p99_ms=round(report.quantile(0.99) * 1e3, 2),
        ),
    )
    return report
