"""The serving engine: sessions, micro-batching, backpressure, drain.

This is the request-execution core behind :mod:`repro.serve.server`,
deliberately transport-free (the unit tests drive it without a socket).
Its shape is the classic inference-serving stack, instantiated for bus
transcoding:

* **per-connection sessions** — an ``open`` request creates a
  :class:`Session` holding *live* transcoder FSM state (independent
  encoder and decoder twins, exactly the two bus ends of the paper's
  Figure 1); subsequent ``encode``/``decode`` chunks advance those FSMs
  across requests, and server-side ``checkpoint``/``restore`` rewinds
  them.  Sessions die with their connection.
* **bounded queue + backpressure** — every request passes through one
  bounded queue; when it is full, the engine sheds
  *oldest-deadline-first*: the admitted-or-incoming request whose
  deadline expires soonest is answered ``busy`` (the HTTP-429
  analogue) and counted under ``serve.shed``, instead of queueing
  unboundedly.  Shedding the request least likely to be served in time
  is what keeps tail latency bounded under overload.
* **micro-batching** — the single consumer drains up to
  ``batch_limit`` already-queued requests per wake-up and groups the
  stateless ``encode_trace`` one-shots by coder spec, so concurrent
  requests share one transcoder instance and run back-to-back through
  the vectorized kernels; the ``serve.batch_size`` histogram shows the
  effective batch under load.
* **per-request deadlines** — each request carries
  ``enqueue time + request_timeout``; a request whose deadline passed
  while it sat in the queue is answered ``timeout`` without burning
  CPU on work nobody is waiting for.  Every op runs inline on the
  event loop: chunk encodes are microseconds-to-milliseconds through
  the vectorized kernels.
* **graceful drain** — :meth:`ServeEngine.stop` stops admitting, then
  *waits on a drain event* (no polling): the event fires when the last
  outstanding request finishes.  Whatever queued jobs the drain
  timeout leaves behind are answered with the ``shutdown`` error code
  (the client knows the server abandoned it, as opposed to ``timeout``
  which blames the deadline), and
  :meth:`stop` returns a drain report the soak harness asserts on.
* **overload-graceful sessions** — an idle reaper closes sessions
  untouched for ``session_idle_timeout_s`` (an abandoned client cannot
  pin FSM state forever), and a request that blows up inside the
  worker *quarantines its session*: the session is fenced (every
  subsequent op but ``close`` answers ``internal``) while the engine
  and every other session keep serving.
* **session resumption** — ``checkpoint`` with ``export: true``
  returns the session's FSM state as a digest-sealed, JSON-safe blob
  (:func:`repro.traces.streaming.checkpoint_to_wire`); the ``resume``
  op materialises a *new* session from such a blob after a connection
  loss destroyed the old one, restoring both FSM twins bit-exactly.
  A blob that fails its integrity digest (or speaks the wrong format)
  is ``stale_checkpoint``; a well-formed blob that disagrees with the
  requested coder identity is ``resume_mismatch``.

Resilient sessions (``open`` with a ``policy`` field) wrap the coder in
:class:`repro.faults.ResilientTranscoder`: every streamed wire state
carries the parity wire, a corrupted chunk is *detected* at the cycle
granularity, answered with the ``desyncs`` cycle list, and recovered
reset-both style — both FSM twins return to power-on so the next chunk
starts clean (the response's ``reset`` field tells the client its
encoder must do the same, which is exactly the NACK round of the fault
subsystem, lifted to the wire protocol).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..coding.base import Transcoder
from ..coding.errors import DesyncError
from ..coding.specs import CODER_FAMILIES, parse_coder_spec
from ..faults.policies import POLICIES
from ..traces.streaming import (
    StreamingDecoder,
    StreamingEncoder,
    checkpoint_from_wire,
    checkpoint_to_wire,
)
from ..traces.trace import BusTrace
from . import protocol
from .protocol import ProtocolError

__all__ = ["ServeEngine", "Session"]

log = obs.get_logger("serve.engine")

#: Default bound on the request queue; small enough that overload turns
#: into fast ``busy`` rejections rather than multi-second queueing.
DEFAULT_QUEUE_LIMIT = 64

#: Requests drained per worker wake-up (the micro-batch ceiling).
DEFAULT_BATCH_LIMIT = 16

#: Per-request deadline, queue wait included.
DEFAULT_REQUEST_TIMEOUT_S = 30.0

#: Ceiling on values/states per chunk request (memory bound per frame).
MAX_CHUNK_CYCLES = 1 << 16


@dataclass
class _Checkpoint:
    encoder: Any
    decoder: Any


@dataclass
class Session:
    """One live streaming session: encoder + decoder FSM twins.

    The twins are independent instances of the same coder (built twice
    from the spec), mirroring the two physical ends of the bus — a
    session can stream-encode and stream-decode concurrently without
    the directions contaminating each other's FSM state.
    """

    session_id: int
    spec: str
    width: int
    policy: Optional[str]
    encoder: StreamingEncoder
    decoder: StreamingDecoder
    checkpoints: Dict[int, _Checkpoint] = field(default_factory=dict)
    desyncs: int = 0
    #: Fenced after an internal error killed one of its requests: every
    #: subsequent op except ``close`` is answered ``internal`` (poison
    #: quarantine — the blast radius is the session, not the engine).
    poisoned: bool = False
    #: Monotonic timestamp of the last op that touched this session;
    #: the idle reaper closes sessions past ``session_idle_timeout_s``.
    last_used: float = field(default_factory=time.monotonic)
    _next_checkpoint: int = 1

    @property
    def resilient(self) -> bool:
        return self.policy is not None

    def touch(self) -> None:
        self.last_used = time.monotonic()

    def take_checkpoint(self) -> int:
        checkpoint_id = self._next_checkpoint
        self._next_checkpoint += 1
        self.checkpoints[checkpoint_id] = _Checkpoint(
            encoder=self.encoder.checkpoint(), decoder=self.decoder.checkpoint()
        )
        return checkpoint_id

    def restore_checkpoint(self, checkpoint_id: int) -> None:
        try:
            cp = self.checkpoints[checkpoint_id]
        except KeyError:
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST,
                f"unknown checkpoint {checkpoint_id} on session {self.session_id}",
            ) from None
        self.encoder.restore(cp.encoder)
        self.decoder.restore(cp.decoder)

    def decode_states(self, states: List[int]) -> Tuple[np.ndarray, List[int]]:
        """Decode one chunk; returns ``(values, desync cycle list)``.

        Plain sessions take the vectorized/chunked path (a corrupted
        state would fail loudly as an unrecoverable error — there is no
        parity wire to detect it with).  Resilient sessions decode per
        cycle so a :class:`DesyncError` is pinpointed to its cycle,
        answered best-effort with the raw data bits, and recovered by
        resetting both twins (reset-both over the wire).
        """
        if not self.resilient:
            return self.decoder.feed(states), []
        coder = self.decoder.coder  # the ResilientTranscoder twin
        in_mask = (1 << coder.input_width) - 1
        out_mask = (1 << coder.output_width) - 1
        out = np.empty(len(states), dtype=np.uint64)
        desyncs: List[int] = []
        base_cycle = self.decoder.cycles
        for i, state in enumerate(states):
            state = int(state) & out_mask
            try:
                value = coder.decode_state(state)
            except DesyncError:
                desyncs.append(base_cycle + i)
                value = state & in_mask  # best-effort: raw data bits
                # reset-both recovery, lifted to the wire: both twins
                # return to power-on; the response tells the client.
                self.encoder.coder.reset()
                coder.reset()
            out[i] = value
        self.decoder.cycles += len(states)
        if desyncs:
            self.desyncs += len(desyncs)
            obs.inc("serve.desyncs", len(desyncs), coder=self.spec)
        return out, desyncs


@dataclass
class _Job:
    """One admitted request, queued for the batch worker."""

    connection_id: int
    message: Dict[str, Any]
    op: str
    request_id: int
    future: "asyncio.Future[Dict[str, Any]]"
    enqueued: float
    deadline: Optional[float]
    finished: bool = False

    @property
    def shed_key(self) -> float:
        """Shedding order: earliest deadline first (no deadline means
        "as old as its enqueue time" — both are monotonic seconds)."""
        return self.deadline if self.deadline is not None else self.enqueued


class ServeEngine:
    """Transport-free request executor (see the module docstring)."""

    def __init__(
        self,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        batch_limit: int = DEFAULT_BATCH_LIMIT,
        request_timeout_s: Optional[float] = DEFAULT_REQUEST_TIMEOUT_S,
        session_idle_timeout_s: Optional[float] = None,
    ):
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if batch_limit < 1:
            raise ValueError(f"batch_limit must be >= 1, got {batch_limit}")
        if session_idle_timeout_s is not None and session_idle_timeout_s <= 0:
            raise ValueError(
                f"session_idle_timeout_s must be > 0, got {session_idle_timeout_s}"
            )
        self.queue_limit = queue_limit
        self.batch_limit = batch_limit
        self.request_timeout_s = request_timeout_s
        self.session_idle_timeout_s = session_idle_timeout_s
        self._queue: Deque[_Job] = deque()
        self._wakeup = asyncio.Event()  # set = the queue has work
        self._outstanding = 0  # admitted but not yet finished
        self._drained = asyncio.Event()  # set = outstanding == 0
        self._drained.set()
        self._connections: Dict[int, Dict[int, Session]] = {}
        self._next_session = 1
        self._worker: Optional["asyncio.Task[None]"] = None
        self._reaper: Optional["asyncio.Task[None]"] = None
        self._admitting = False
        self._running = asyncio.Event()  # cleared = worker paused
        self._running.set()
        self._started_at = time.monotonic()
        self._last_batch_size = 0  # micro-batch occupancy for health/telemetry

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Start the batch worker (and idle reaper); idempotent."""
        loop = asyncio.get_running_loop()
        if self._worker is None or self._worker.done():
            self._worker = loop.create_task(
                self._worker_loop(), name="repro-serve-worker"
            )
        if self.session_idle_timeout_s is not None and (
            self._reaper is None or self._reaper.done()
        ):
            self._reaper = loop.create_task(
                self._reaper_loop(), name="repro-serve-reaper"
            )
        self._admitting = True

    async def stop(self, drain_timeout_s: float = 5.0) -> Dict[str, Any]:
        """Graceful shutdown: stop admitting, drain, tear down.

        The drain is event-driven: :meth:`stop` waits (up to
        ``drain_timeout_s``) on an event the last outstanding request
        sets, instead of polling the queue.  Whatever queued jobs the
        drain leaves behind are answered with the ``shutdown`` error
        code: the request was abandoned by the server, which is a
        different promise to the client than ``timeout`` (the request
        overran its own deadline).

        Returns a drain report::

            {"drained": bool,        # everything finished in time
             "abandoned": int,       # queued jobs answered `shutdown`
             "outstanding": int}     # should be 0 on a clean drain

        The chaos soak asserts ``drained`` and ``outstanding == 0`` as
        its clean-shutdown criterion.
        """
        self._admitting = False
        obs.flight_record(
            "engine.drain_begin",
            outstanding=self._outstanding,
            queue_depth=len(self._queue),
        )
        report: Dict[str, Any] = {"drained": True, "abandoned": 0}
        if self._outstanding > 0:
            try:
                await asyncio.wait_for(self._drained.wait(), drain_timeout_s)
            except asyncio.TimeoutError:
                report["drained"] = False
        for attr in ("_reaper", "_worker"):
            task = getattr(self, attr)
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                setattr(self, attr, None)
        while self._queue:  # whatever the drain left behind
            job = self._queue.popleft()
            obs.inc("serve.shutdown_answered", op=job.op)
            self._finish(
                job,
                protocol.error_response(
                    job.request_id,
                    protocol.ERR_SHUTDOWN,
                    "server shutting down; request abandoned in drain",
                ),
            )
            report["abandoned"] += 1
        for connection_id in list(self._connections):
            self.drop_connection(connection_id)
        report["outstanding"] = self._outstanding
        obs.flight_record("engine.drain_end", **report)
        obs.flight_dump(reason="drain")
        return report

    def pause(self) -> None:
        """Suspend the batch worker (tests/operational load shedding)."""
        self._running.clear()

    def resume(self) -> None:
        """Resume a paused batch worker."""
        self._running.set()

    def drop_connection(self, connection_id: int) -> None:
        """Forget a connection's sessions (connection closed)."""
        sessions = self._connections.pop(connection_id, None)
        if sessions:
            log.debug(
                "dropped sessions with connection",
                extra=obs.fields(connection=connection_id, sessions=len(sessions)),
            )
        self._gauge_sessions()

    # -- admission ----------------------------------------------------

    async def handle(
        self, connection_id: int, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Admit one decoded request; returns the response message.

        This is the *only* entry point the transport calls.  Envelope
        violations and backpressure are answered here without touching
        the queue; everything else waits for the batch worker.
        """
        try:
            op, request_id = protocol.validate_request(message)
        except ProtocolError as exc:
            return protocol.error_response(message.get("id"), exc.code, exc.args[0])
        obs.inc("serve.requests", op=op)
        if not self._admitting:
            # `shutdown`, not `busy`: a draining server will never admit
            # again, so "retry elsewhere" is the honest signal (the
            # cluster router fails sessions over on it; `busy` would
            # invite clients to retry against a corpse).
            obs.inc("serve.rejected", reason="not-admitting")
            return protocol.error_response(
                request_id, protocol.ERR_SHUTDOWN, "server is not accepting requests"
            )
        now = time.monotonic()
        deadline = (
            now + self.request_timeout_s if self.request_timeout_s is not None else None
        )
        job = _Job(
            connection_id=connection_id,
            message=message,
            op=op,
            request_id=request_id,
            future=asyncio.get_running_loop().create_future(),
            enqueued=now,
            deadline=deadline,
        )
        if len(self._queue) >= self.queue_limit:
            # Overload: shed oldest-deadline-first.  The victim is the
            # queued-or-incoming request whose deadline expires soonest
            # (it is the least likely to be served in time); everyone
            # else keeps their place.
            victim = min([*self._queue, job], key=lambda j: j.shed_key)
            obs.inc("serve.rejected", reason="queue-full")
            obs.inc("serve.shed", op=victim.op)
            obs.flight_record(
                "engine.shed",
                op=victim.op,
                request=victim.request_id,
                queue_depth=len(self._queue),
            )
            shed_response = protocol.error_response(
                victim.request_id,
                protocol.ERR_BUSY,
                f"request queue full ({self.queue_limit}); shed "
                f"oldest-deadline-first — back off and retry",
            )
            if victim is job:
                return shed_response
            self._queue.remove(victim)
            self._finish(victim, shed_response)
        self._queue.append(job)
        self._outstanding += 1
        self._drained.clear()
        self._wakeup.set()
        obs.set_gauge("serve.queue_depth", len(self._queue))
        return await job.future

    # -- the batch worker ---------------------------------------------

    def _finish(self, job: _Job, response: Dict[str, Any]) -> None:
        if job.finished:
            return  # answered exactly once (shed vs. late worker, ...)
        job.finished = True
        if not job.future.done():
            job.future.set_result(response)
        if not response.get("ok", False):
            # One counter for every error path (shed, timeout, dispatch,
            # shutdown): the "E" of `repro top`'s RED view, per op+code.
            error = response.get("error") or {}
            obs.inc("serve.request_errors", op=job.op, code=error.get("code", "?"))
        obs.observe("serve.request_s", time.monotonic() - job.enqueued, op=job.op)
        self._outstanding -= 1
        if self._outstanding <= 0:
            self._drained.set()

    async def _worker_loop(self) -> None:
        while True:
            await self._running.wait()
            if not self._queue:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue  # re-check pause before draining the queue
            batch: List[_Job] = []
            while self._queue and len(batch) < self.batch_limit:
                batch.append(self._queue.popleft())
            self._last_batch_size = len(batch)
            obs.observe("serve.batch_size", len(batch))
            obs.set_gauge("serve.queue_depth", len(self._queue))
            try:
                self._execute_batch(batch)
            except Exception as exc:  # noqa: BLE001 - the engine survives
                # A batch-level failure (bookkeeping bug, not a per-job
                # error — those are handled inside _execute_batch) must
                # not kill the worker: answer what is unfinished,
                # quarantine the sessions involved, keep serving.
                log.error(
                    "batch execution failed; quarantining",
                    extra=obs.fields(
                        batch=len(batch), error=f"{type(exc).__name__}: {exc}"
                    ),
                )
                obs.inc("serve.poison_batches")
                obs.flight_record(
                    "engine.poison_batch",
                    batch=len(batch),
                    error=f"{type(exc).__name__}: {exc}",
                )
                obs.flight_dump(reason="poison-batch")
                for job in batch:
                    self._quarantine(job)
                    self._finish(
                        job,
                        protocol.error_response(
                            job.request_id,
                            protocol.ERR_INTERNAL,
                            f"batch failed: {type(exc).__name__}: {exc}",
                        ),
                    )
            # Yield so responses flush even under a saturated queue.
            await asyncio.sleep(0)

    async def _reaper_loop(self) -> None:
        """Close sessions idle past ``session_idle_timeout_s``."""
        assert self.session_idle_timeout_s is not None
        interval = max(0.05, self.session_idle_timeout_s / 4.0)
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            reaped = 0
            for sessions in self._connections.values():
                for session_id, session in list(sessions.items()):
                    idle = now - session.last_used
                    if idle >= self.session_idle_timeout_s:
                        sessions.pop(session_id, None)
                        reaped += 1
                        obs.inc("serve.sessions_reaped", coder=session.spec)
                        log.info(
                            "reaped idle session",
                            extra=obs.fields(
                                session=session_id, idle_s=round(idle, 3)
                            ),
                        )
            if reaped:
                self._gauge_sessions()

    def _quarantine(self, job: _Job) -> None:
        """Fence the session a failing request was addressing (if any)."""
        session_id = job.message.get("session")
        sessions = self._connections.get(job.connection_id, {})
        session = sessions.get(session_id) if isinstance(session_id, int) else None
        if session is not None and not session.poisoned:
            session.poisoned = True
            obs.inc("serve.sessions_quarantined", coder=session.spec)
            log.warning(
                "session quarantined after internal error",
                extra=obs.fields(session=session.session_id, op=job.op),
            )
            obs.flight_record(
                "engine.quarantine",
                session=session.session_id,
                coder=session.spec,
                op=job.op,
            )
            obs.flight_dump(reason="quarantine")

    def _execute_batch(self, batch: List[_Job]) -> None:
        """Run one micro-batch: shared coders for grouped one-shots."""
        now = time.monotonic()
        live: List[_Job] = []
        for job in batch:
            # Queue-wait attribution: time between admission and the
            # batch worker picking the job up, per op.  Together with
            # kernel and serialize segments this decomposes request_s.
            obs.observe("serve.queue_wait_s", now - job.enqueued, op=job.op)
            if job.deadline is not None and now > job.deadline:
                obs.inc("serve.timeouts", op=job.op)
                obs.flight_record("engine.timeout", op=job.op, request=job.request_id)
                self._finish(
                    job,
                    protocol.error_response(
                        job.request_id,
                        protocol.ERR_TIMEOUT,
                        f"deadline exceeded after {now - job.enqueued:.3f}s in queue",
                    ),
                )
            else:
                live.append(job)
        # Group the stateless one-shots by coder spec: one transcoder
        # instance per (spec, width) serves every request in the batch
        # back-to-back through its vectorized kernel.  Where the coder
        # family has columnar kernels, same-spec jobs in this drained
        # batch coalesce further — into a SINGLE 2-D kernel call — via
        # the pre-pass below; everything it leaves alone (errors,
        # resilient sessions, singleton groups, non-columnar families)
        # takes the sequential path, which stays the differential
        # oracle the coalesced results must match bit-for-bit.
        coders: Dict[Tuple[str, int], Transcoder] = {}
        coalesced = self._coalesce_columnar(live)
        for job in live:
            trace_id, trace_parent = protocol.trace_context(job.message)
            hop = obs.hop_span(
                "engine.request", trace_id=trace_id, parent=trace_parent, op=job.op
            )
            try:
                with hop:
                    if id(job) in coalesced:
                        hop.set(coalesced=True)
                        response = coalesced[id(job)]
                    else:
                        response = self._dispatch(job, coders)
            except ProtocolError as exc:
                response = protocol.error_response(job.request_id, exc.code, exc.args[0])
            except Exception as exc:  # noqa: BLE001 - protocol boundary
                log.error(
                    "request failed",
                    extra=obs.fields(op=job.op, error=f"{type(exc).__name__}: {exc}"),
                )
                obs.inc("serve.internal_errors", op=job.op)
                # Poison quarantine: the request dies with `internal`
                # and its session is fenced; the engine keeps serving.
                self._quarantine(job)
                response = protocol.error_response(
                    job.request_id,
                    protocol.ERR_INTERNAL,
                    f"{type(exc).__name__}: {exc}",
                )
            self._finish(job, response)

    def _coalesce_columnar(self, live: List[_Job]) -> Dict[int, Dict[str, Any]]:
        """Run same-spec bulk jobs of one batch through columnar kernels.

        Returns ``{id(job): response}`` for every job it fully served;
        jobs it declines stay on the sequential path.  Declined means:

        * any validation failure — the sequential path must raise the
          *identical* per-job error, so nothing is pre-judged here;
        * resilient sessions (their per-cycle desync detection cannot
          vectorize across streams);
        * a session's second chunk in the same batch (an FSM can only
          take one wave per kernel call; later chunks run sequentially
          *after* the wave, preserving stream order);
        * coder families without columnar kernels, and groups of one
          (a 2-D pass over one row is pure overhead).
        """
        responses: Dict[int, Dict[str, Any]] = {}
        if len(live) < 2:
            return responses
        chunk_groups: Dict[Tuple[str, str, int], List[Tuple[_Job, Session, Any]]] = {}
        trace_groups: Dict[Tuple[str, int], List[Tuple[_Job, Any]]] = {}
        waved: set = set()  # (op, session id) already claimed by a wave
        for job in live:
            if job.op in ("encode", "decode"):
                field_name = "values" if job.op == "encode" else "states"
                try:
                    session = self._session_for(job)
                    payload = self._chunk_field(job.message, field_name)
                except ProtocolError:
                    continue
                if session.resilient or (job.op, session.session_id) in waved:
                    continue
                stream = (
                    session.encoder if job.op == "encode" else session.decoder
                )
                if not type(stream.coder).columnar_batch:
                    continue
                waved.add((job.op, session.session_id))
                chunk_groups.setdefault(
                    (job.op, session.spec, session.width), []
                ).append((job, session, payload))
            elif job.op == "encode_trace":
                message = job.message
                spec = message.get("coder")
                width = message.get("width", 32)
                if (
                    not isinstance(spec, str)
                    or not isinstance(width, int)
                    or isinstance(width, bool)
                    or not 1 <= width <= 64
                ):
                    continue
                try:
                    payload = self._chunk_field(message, "values")
                except ProtocolError:
                    continue
                trace_groups.setdefault((spec, width), []).append((job, payload))
        for (op, spec, width), group in chunk_groups.items():
            if len(group) < 2:
                continue
            jobs = [job for job, _, _ in group]
            sessions = [session for _, session, _ in group]
            payloads = [payload for _, _, payload in group]
            try:
                if op == "encode":
                    with obs.timed("serve.kernel_s", op=op, coder=spec):
                        outs = StreamingEncoder.feed_many(
                            [session.encoder for session in sessions], payloads
                        )
                    for job, session, payload, out in zip(
                        jobs, sessions, payloads, outs
                    ):
                        obs.inc("serve.encoded_cycles", len(payload), coder=spec)
                        responses[id(job)] = protocol.ok_response(
                            job.request_id,
                            states=self._bulk_out(payload, out),
                            cycles=session.encoder.cycles,
                        )
                else:
                    with obs.timed("serve.kernel_s", op=op, coder=spec):
                        outs = StreamingDecoder.feed_many(
                            [session.decoder for session in sessions], payloads
                        )
                    for job, session, payload, out in zip(
                        jobs, sessions, payloads, outs
                    ):
                        obs.inc("serve.decoded_cycles", len(payload), coder=spec)
                        responses[id(job)] = protocol.ok_response(
                            job.request_id,
                            values=self._bulk_out(payload, out),
                            cycles=session.decoder.cycles,
                        )
            except Exception:  # noqa: BLE001 - fall back, never fail the wave
                for job in jobs:
                    responses.pop(id(job), None)
                continue
            obs.inc("serve.coalesced", len(group), op=op, coder=spec)
            obs.observe("serve.coalesce_batch", len(group), op=op)
        for (spec, width), group in trace_groups.items():
            if len(group) < 2:
                continue
            try:
                coder = parse_coder_spec(spec, width)
            except ValueError:
                continue
            if not type(coder).columnar_batch:
                continue
            try:
                traces = [
                    BusTrace(np.asarray(payload, dtype=np.uint64), width)
                    for _, payload in group
                ]
                with obs.timed("serve.kernel_s", op="encode_trace", coder=spec):
                    coded = coder.encode_traces_batch(traces)
            except Exception:  # noqa: BLE001 - fall back, never fail the wave
                continue
            for (job, payload), out in zip(group, coded):
                obs.inc("serve.encoded_cycles", len(payload), coder=spec)
                responses[id(job)] = protocol.ok_response(
                    job.request_id,
                    states=self._bulk_out(payload, out.values),
                    output_width=coder.output_width,
                )
            # The sequential path would have shared one coder instance
            # across these jobs; keep that counter's meaning intact.
            obs.inc("serve.batch_shared_coders", len(group) - 1)
            obs.inc("serve.coalesced", len(group), op="encode_trace", coder=spec)
            obs.observe("serve.coalesce_batch", len(group), op="encode_trace")
        return responses

    # -- op handlers ---------------------------------------------------

    def _dispatch(
        self, job: _Job, coders: Dict[Tuple[str, int], Transcoder]
    ) -> Dict[str, Any]:
        message, request_id = job.message, job.request_id
        if job.op == "hello":
            return protocol.ok_response(
                request_id,
                server="repro.serve",
                protocol=protocol.PROTOCOL_VERSION,
                ops=list(protocol.KNOWN_OPS),
                coders=list(CODER_FAMILIES),
                policies=sorted(POLICIES),
                queue_limit=self.queue_limit,
                batch_limit=self.batch_limit,
                max_chunk_cycles=MAX_CHUNK_CYCLES,
                session_idle_timeout_s=self.session_idle_timeout_s,
                # Capability flag of the binary bulk framing (the wire
                # format is versioned separately from `v`: a client
                # that never sees this stays on newline-JSON forever).
                binary_frames=True,
            )
        if job.op == "health":
            # The heartbeat op: a liveness + load snapshot.  It rides
            # the normal queue on purpose — a wedged batch worker fails
            # it (by timeout), which is exactly what the supervisor's
            # liveness deadline wants to detect.  Load gauges (queue
            # depth, live sessions, micro-batch occupancy) ride along so
            # heartbeats see load, not just liveness.
            return protocol.ok_response(request_id, **self._load_gauges())
        if job.op == "telemetry":
            return self._op_telemetry(job)
        if job.op == "open":
            return self._op_open(job)
        if job.op == "resume":
            return self._op_resume(job)
        if job.op == "encode_trace":
            return self._op_encode_trace(job, coders)
        # Remaining ops address an existing session.
        session = self._session_for(job)
        if job.op == "encode":
            values = self._chunk_field(message, "values")
            with obs.timed("serve.kernel_s", op="encode", coder=session.spec):
                states = session.encoder.feed(values)
            obs.inc("serve.encoded_cycles", len(values), coder=session.spec)
            return protocol.ok_response(
                request_id,
                states=self._bulk_out(values, states),
                cycles=session.encoder.cycles,
            )
        if job.op == "decode":
            states = self._chunk_field(message, "states")
            with obs.timed("serve.kernel_s", op="decode", coder=session.spec):
                values, desyncs = session.decode_states(states)
            obs.inc("serve.decoded_cycles", len(states), coder=session.spec)
            response = protocol.ok_response(
                request_id,
                values=self._bulk_out(states, values),
                cycles=session.decoder.cycles,
            )
            if desyncs:
                response["desyncs"] = desyncs
                response["recovered"] = True
                response["reset"] = True  # both twins back at power-on
            return response
        if job.op == "checkpoint":
            response = protocol.ok_response(
                request_id,
                checkpoint=session.take_checkpoint(),
                cycles=session.encoder.cycles,
            )
            if message.get("export"):
                # The portable, digest-sealed form: the client can hold
                # it across a dropped connection and `resume` from it.
                response["state"] = self._export_state(session)
            return response
        if job.op == "restore":
            checkpoint_id = message.get("checkpoint")
            if not isinstance(checkpoint_id, int) or isinstance(checkpoint_id, bool):
                raise ProtocolError(
                    protocol.ERR_BAD_REQUEST, "'checkpoint' must be an int id"
                )
            session.restore_checkpoint(checkpoint_id)
            return protocol.ok_response(
                request_id, checkpoint=checkpoint_id, cycles=session.encoder.cycles
            )
        if job.op == "close":
            sessions = self._connections.get(job.connection_id, {})
            sessions.pop(session.session_id, None)
            self._gauge_sessions()
            return protocol.ok_response(request_id, closed=session.session_id)
        raise ProtocolError(protocol.ERR_UNKNOWN_OP, f"unhandled op {job.op!r}")

    def _load_gauges(self) -> Dict[str, Any]:
        """Live load gauges from engine state (not the metrics registry).

        Shared by ``health`` and ``telemetry``: these come straight from
        the event loop's own fields, so they are exact, cost nothing to
        collect, and are available even under ``REPRO_OBS=0``.
        """
        return {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "sessions": sum(len(s) for s in self._connections.values()),
            "outstanding": self._outstanding,
            "queue_depth": len(self._queue),
            "queue_limit": self.queue_limit,
            "batch_limit": self.batch_limit,
            "last_batch_size": self._last_batch_size,
            "batch_occupancy": round(self._last_batch_size / self.batch_limit, 4),
            "admitting": self._admitting,
        }

    def _op_telemetry(self, job: _Job) -> Dict[str, Any]:
        """The live telemetry snapshot: metrics + span delta + gauges.

        Read-only and idempotent — nothing here mutates engine or
        registry state, so blind resends are safe (it is in
        :data:`~repro.serve.protocol.IDEMPOTENT_OPS`).  With
        ``REPRO_OBS=0`` the metrics/span sections are *empty, not
        errors*: a dark process answers honestly that it collected
        nothing, and the live load gauges still carry real numbers.
        """
        message = job.message
        span_limit = message.get("span_limit", 16)
        if not isinstance(span_limit, int) or isinstance(span_limit, bool):
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST, "'span_limit' must be an int"
            )
        span_limit = max(0, min(span_limit, 256))
        telemetry: Dict[str, Any] = {
            "enabled": obs.is_enabled(),
            "metrics": {"counters": {}, "gauges": {}, "hists": {}},
            "spans": {"total": 0, "dropped": 0, "recent": []},
            "gauges": self._load_gauges(),
        }
        if obs.is_enabled():
            tracer = obs.get_tracer()
            if tracer.dropped:
                obs.set_gauge("obs.spans_dropped", float(tracer.dropped))
            records = tracer.records()
            telemetry["metrics"] = obs.get_registry().snapshot()
            telemetry["spans"] = {
                "total": len(records),
                "dropped": tracer.dropped,
                "recent": obs.span_jsonl_records(records[-span_limit:])
                if span_limit
                else [],
            }
        return protocol.ok_response(job.request_id, **telemetry)

    def _op_open(self, job: _Job) -> Dict[str, Any]:
        message = job.message
        spec = message.get("coder")
        if not isinstance(spec, str):
            raise ProtocolError(protocol.ERR_BAD_REQUEST, "'coder' must be a spec string")
        width = message.get("width", 32)
        if not isinstance(width, int) or isinstance(width, bool) or not 1 <= width <= 64:
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST, f"'width' must be an int in 1..64, got {width!r}"
            )
        policy = message.get("policy")
        if policy is not None and policy not in POLICIES:
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST,
                f"unknown policy {policy!r}; choose from {', '.join(sorted(POLICIES))}",
            )
        try:
            encoder_coder = self._build(spec, width, policy)
            decoder_coder = self._build(spec, width, policy)
        except ValueError as exc:
            raise ProtocolError(protocol.ERR_BAD_REQUEST, str(exc)) from None
        session = Session(
            session_id=self._next_session,
            spec=spec,
            width=width,
            policy=policy,
            encoder=StreamingEncoder(encoder_coder),
            decoder=StreamingDecoder(decoder_coder),
        )
        self._next_session += 1
        self._connections.setdefault(job.connection_id, {})[session.session_id] = session
        self._gauge_sessions()
        obs.inc("serve.sessions_opened", coder=spec)
        obs.flight_record("engine.session_open", session=session.session_id, coder=spec)
        return protocol.ok_response(
            job.request_id,
            session=session.session_id,
            input_width=session.encoder.coder.input_width,
            output_width=session.encoder.coder.output_width,
            resilient=session.resilient,
        )

    @staticmethod
    def _build(spec: str, width: int, policy: Optional[str]) -> Transcoder:
        coder = parse_coder_spec(spec, width)
        if policy is not None:
            from ..faults.resilient import ResilientTranscoder

            coder = ResilientTranscoder(coder, policy)
        return coder

    # -- session resumption -------------------------------------------

    def _export_state(self, session: Session) -> Dict[str, Any]:
        """The session's FSMs as a portable, digest-sealed JSON blob."""
        state: Dict[str, Any] = {
            "protocol": protocol.PROTOCOL_VERSION,
            "spec": session.spec,
            "width": session.width,
            "policy": session.policy,
            "desyncs": session.desyncs,
            "encoder": checkpoint_to_wire(session.encoder.checkpoint()),
            "decoder": checkpoint_to_wire(session.decoder.checkpoint()),
        }
        state["digest"] = protocol.state_digest(state)
        obs.inc("serve.checkpoints_exported", coder=session.spec)
        return state

    def _op_resume(self, job: _Job) -> Dict[str, Any]:
        """Materialise a new session from an exported checkpoint blob.

        Error discipline (the closed codes of protocol v2):

        * ``stale_checkpoint`` — the blob is *unusable*: bad integrity
          digest, wrong wire format / protocol, undecodable payload;
        * ``resume_mismatch`` — the blob is well-formed but *disagrees*
          with the request (client asked for a different coder / width
          / policy) or with itself (payload restores into a different
          coder type than it claims).
        """
        message = job.message
        state = message.get("state")
        if not isinstance(state, dict):
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST,
                "'state' must be the exported checkpoint object",
            )
        digest = state.get("digest")
        if not isinstance(digest, str) or protocol.state_digest(state) != digest:
            obs.inc("serve.resume_rejected", reason="digest")
            raise ProtocolError(
                protocol.ERR_STALE_CHECKPOINT,
                "exported state failed its integrity digest "
                "(truncated or corrupted in flight)",
            )
        if state.get("protocol") != protocol.PROTOCOL_VERSION:
            obs.inc("serve.resume_rejected", reason="protocol")
            raise ProtocolError(
                protocol.ERR_STALE_CHECKPOINT,
                f"exported state speaks protocol {state.get('protocol')!r}; "
                f"this server speaks {protocol.PROTOCOL_VERSION}",
            )
        spec = state.get("spec")
        width = state.get("width")
        policy = state.get("policy")
        if not isinstance(spec, str) or not isinstance(width, int) or isinstance(
            width, bool
        ):
            obs.inc("serve.resume_rejected", reason="identity")
            raise ProtocolError(
                protocol.ERR_STALE_CHECKPOINT,
                "exported state is missing its coder identity",
            )
        # The client may pin what it *expects* to resume; a pinned field
        # that disagrees with the sealed state is a mismatch, caught
        # before any FSM is touched.
        for name, key, expected in (
            ("coder", "coder", spec),
            ("width", "width", width),
            ("policy", "policy", policy),
        ):
            if key in message and message[key] != expected:
                obs.inc("serve.resume_rejected", reason="pin")
                raise ProtocolError(
                    protocol.ERR_RESUME_MISMATCH,
                    f"checkpoint was taken with {name}={expected!r}, "
                    f"request pins {message[key]!r}",
                )
        if policy is not None and policy not in POLICIES:
            obs.inc("serve.resume_rejected", reason="policy")
            raise ProtocolError(
                protocol.ERR_STALE_CHECKPOINT,
                f"exported state names unknown policy {policy!r}",
            )
        try:
            encoder = StreamingEncoder(self._build(spec, width, policy))
            decoder = StreamingDecoder(self._build(spec, width, policy))
        except ValueError as exc:
            obs.inc("serve.resume_rejected", reason="spec")
            raise ProtocolError(protocol.ERR_STALE_CHECKPOINT, str(exc)) from None
        try:
            encoder_cp = checkpoint_from_wire(state.get("encoder"))
            decoder_cp = checkpoint_from_wire(state.get("decoder"))
        except ValueError as exc:
            obs.inc("serve.resume_rejected", reason="payload")
            raise ProtocolError(protocol.ERR_STALE_CHECKPOINT, str(exc)) from None
        try:
            encoder.restore(encoder_cp)
            decoder.restore(decoder_cp)
        except ValueError as exc:
            # Well-formed blob, but its payload belongs to a different
            # coder type than the identity it claims.
            obs.inc("serve.resume_rejected", reason="coder-type")
            raise ProtocolError(protocol.ERR_RESUME_MISMATCH, str(exc)) from None
        session = Session(
            session_id=self._next_session,
            spec=spec,
            width=width,
            policy=policy,
            encoder=encoder,
            decoder=decoder,
            desyncs=int(state.get("desyncs", 0) or 0),
        )
        self._next_session += 1
        self._connections.setdefault(job.connection_id, {})[session.session_id] = session
        self._gauge_sessions()
        obs.inc("serve.sessions_resumed", coder=spec)
        obs.flight_record(
            "engine.session_resume", session=session.session_id, coder=spec
        )
        log.info(
            "session resumed from exported checkpoint",
            extra=obs.fields(
                session=session.session_id, coder=spec, cycles=encoder.cycles
            ),
        )
        return protocol.ok_response(
            job.request_id,
            session=session.session_id,
            cycles=encoder.cycles,
            decoder_cycles=decoder.cycles,
            input_width=encoder.coder.input_width,
            output_width=encoder.coder.output_width,
            resilient=session.resilient,
            resumed=True,
        )

    def _op_encode_trace(
        self, job: _Job, coders: Dict[Tuple[str, int], Transcoder]
    ) -> Dict[str, Any]:
        message = job.message
        spec = message.get("coder")
        if not isinstance(spec, str):
            raise ProtocolError(protocol.ERR_BAD_REQUEST, "'coder' must be a spec string")
        width = message.get("width", 32)
        if not isinstance(width, int) or isinstance(width, bool) or not 1 <= width <= 64:
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST, f"'width' must be an int in 1..64, got {width!r}"
            )
        values = self._chunk_field(message, "values")
        key = (spec, width)
        if key not in coders:
            try:
                coders[key] = parse_coder_spec(spec, width)
            except ValueError as exc:
                raise ProtocolError(protocol.ERR_BAD_REQUEST, str(exc)) from None
        else:
            obs.inc("serve.batch_shared_coders")
        coder = coders[key]
        trace = BusTrace(np.asarray(values, dtype=np.uint64), width)
        with obs.timed("serve.kernel_s", op="encode_trace", coder=spec):
            coded = coder.encode_trace(trace)
        obs.inc("serve.encoded_cycles", len(values), coder=spec)
        return protocol.ok_response(
            job.request_id,
            states=self._bulk_out(values, coded.values),
            output_width=coder.output_width,
        )

    @staticmethod
    def _bulk_out(request_payload: Any, out: Any) -> Any:
        """Response bulk payload, mirroring the request's framing type.

        A binary request delivered its bulk field as an ndarray; answer
        in kind (the transport re-frames it binary, zero per-word
        work).  A JSON request gets plain ints, exactly as before —
        a non-negotiating client never sees a numpy-typed payload.
        """
        if isinstance(request_payload, np.ndarray):
            return np.ascontiguousarray(np.asarray(out, dtype=np.uint64))
        return [int(v) for v in out]

    def _session_for(self, job: _Job) -> Session:
        session_id = job.message.get("session")
        sessions = self._connections.get(job.connection_id, {})
        if not isinstance(session_id, int) or session_id not in sessions:
            raise ProtocolError(
                protocol.ERR_NO_SESSION,
                f"no session {session_id!r} on this connection (open one first)",
            )
        session = sessions[session_id]
        if session.poisoned and job.op != "close":
            raise ProtocolError(
                protocol.ERR_INTERNAL,
                f"session {session_id} is quarantined after an internal error; "
                f"close it and reopen (or resume from an exported checkpoint)",
            )
        session.touch()
        return session

    @staticmethod
    def _chunk_field(message: Dict[str, Any], key: str) -> Any:
        values = protocol.int_list_field(message, key)
        if len(values) > MAX_CHUNK_CYCLES:
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST,
                f"chunk of {len(values)} cycles exceeds the {MAX_CHUNK_CYCLES} ceiling; "
                f"split the stream",
            )
        return values

    def _gauge_sessions(self) -> None:
        obs.set_gauge(
            "serve.sessions", sum(len(s) for s in self._connections.values())
        )
