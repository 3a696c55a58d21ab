"""Sharded serving cluster: a protocol-v2 router over supervised workers.

:class:`ClusterRouter` is the front door of ``repro cluster``.  It
speaks the exact same newline-JSON protocol v2 as ``repro serve`` on
its listening socket — an existing :class:`~repro.serve.client.TraceClient`
or :class:`~repro.serve.recovery.ResilientTraceClient` needs **no
changes** to talk to a cluster — and shards streaming sessions across N
engine workers by consistent hashing on the *cluster* session id
(:class:`~repro.serve.ring.HashRing`).  On the back side it is itself a
protocol client: one pipelined connection per worker, gated by a
per-worker :class:`~repro.retry.CircuitBreaker`.

Session identity is virtualised: clients hold *cluster* session ids;
the router maps them to per-worker session ids and rewrites the
``session`` field in both directions.  That indirection is what makes
the two relocation paths invisible to clients:

* **crash failover** — every routed session carries a
  :class:`~repro.serve.recovery.ReplayBuffer` (last exported
  digest-sealed checkpoint + acknowledged op tail).  When a worker
  dies, wedges past its liveness deadline, or answers ``no-session``
  after a restart, the next op on each of its sessions rebuilds the
  session on the ring's next live owner: ``resume`` from the blob (or
  a fresh ``open`` when nothing was exported yet) + verified tail
  replay — bit-exact, because the FSMs are deterministic.  This is the
  same reconnect→resume→replay discipline the resilient *client* uses,
  applied on the router's back side.
* **planned migration** — :meth:`ClusterRouter.rebalance` moves a
  session whose ring home differs from its current host (after a
  worker rejoins): checkpoint-export on the source, ``resume`` on the
  target, close the source session.  Bit-exact by the same argument,
  and counted separately (``cluster.migrations`` vs
  ``cluster.failovers``).

What does **not** survive relocation: plain (non-exported) checkpoint
ids from ``checkpoint`` without ``export`` — those name FSM snapshots
held in one worker's memory.  A ``restore`` to one after a failover is
answered ``stale_checkpoint`` by the new worker.  Portable recovery is
what exported checkpoints are for; the router re-seals its own buffer
after every successful ``restore`` so *its* failover state tracks the
rewind.

:class:`TraceCluster` composes the router with a
:class:`~repro.serve.supervisor.WorkerSupervisor` (spawn, heartbeat,
SIGKILL-wedged, restart-with-backoff) into the deployable unit behind
``repro cluster`` and ``repro cluster-soak``.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .. import obs
from ..coding.specs import CODER_FAMILIES
from ..faults.policies import POLICIES
from . import protocol
from .client import EncodeStream, TraceClient
from .engine import MAX_CHUNK_CYCLES
from .protocol import ProtocolError
from .recovery import ReplayBuffer
from ..retry import CircuitBreaker, CircuitOpenError
from .ring import HashRing
from .supervisor import WorkerHandle, WorkerSpec, WorkerSupervisor

__all__ = ["RoutedSession", "ClusterRouter", "TraceCluster"]

log = obs.get_logger("serve.cluster")

#: Ops the router resolves through the session map (everything that
#: names a ``session``).
_SESSION_OPS = frozenset({"encode", "decode", "checkpoint", "restore", "close"})

#: How many placement rounds one op may trigger before the router gives
#: up and answers ``busy`` (retryable — the cluster may heal).
_MAX_PLACEMENTS_PER_OP = 3

#: The front request's trace context — ``(trace_id, router span ref)`` —
#: flowing from ``_handle_message`` down to every ``_worker_request``
#: its dispatch makes.  A ContextVar (not an attribute) because each
#: front request runs in its own task and their forwards interleave.
_TRACE_CTX: "contextvars.ContextVar[Tuple[str, str]]" = contextvars.ContextVar(
    "repro_cluster_trace", default=("", "")
)


def _word_list(value) -> list:
    """A payload field as a plain int list for the failover buffer.

    Under binary framing bulk fields arrive as numpy arrays, which (a)
    raise on the truthiness test a bare ``or []`` would apply and (b)
    would pin frame buffers alive if stored as-is; the replay/seal
    paths want durable plain ints either way.
    """
    if value is None:
        return []
    return [int(v) for v in value]


class _NoLiveWorker(Exception):
    """Every worker is dead or breaker-open; placement is impossible."""


@dataclass
class RoutedSession:
    """One client-visible streaming session and where it really lives."""

    cluster_id: int
    connection_id: int  #: front-side connection; the session dies with it
    coder: str
    width: int
    policy: Optional[str]
    worker_id: Optional[str] = None  #: current host, None = unplaced
    worker_session: Optional[int] = None  #: session id *on that worker*
    buffer: ReplayBuffer = field(default_factory=ReplayBuffer)
    #: Serialises ops per session: a failover rebuild must never
    #: interleave with another op's forward on the same session.
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    cycles: int = 0
    failovers: int = 0
    migrations: int = 0


@dataclass
class _WorkerLink:
    """The router's back-side view of one worker."""

    worker_id: str
    host: str
    port: int
    generation: int = 0
    alive: bool = False
    breaker: CircuitBreaker = field(
        default_factory=lambda: CircuitBreaker(failure_threshold=3, reset_timeout_s=0.25)
    )
    client: Optional[TraceClient] = None
    connect_lock: asyncio.Lock = field(default_factory=asyncio.Lock)


class ClusterRouter:
    """The sharding front door (see the module docstring).

    The router is transport-only on the front (same connection loop as
    :class:`~repro.serve.server.TraceServer`) and a protocol client on
    the back.  Worker membership is pushed in via :meth:`add_worker` /
    :meth:`worker_down` — by a :class:`TraceCluster`'s supervisor in
    production, directly by tests running in-process workers.

    Parameters
    ----------
    host, port:
        Front-side bind address; ``port=0`` picks an ephemeral port.
    checkpoint_every:
        Router-initiated checkpoint cadence: after this many
        acknowledged session ops since the last seal, the router
        exports a checkpoint on its own (failover replay stays short
        even for clients that never checkpoint).
    op_timeout_s:
        Back-side per-attempt deadline; an op this late is treated as
        a transport failure and triggers failover (the worker engine
        enforces its own request deadlines well below this).
    queue_limit, batch_limit:
        Advertised in ``hello`` (mirrors a single server's contract).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_every: int = 4,
        op_timeout_s: float = 15.0,
        queue_limit: int = 64,
        batch_limit: int = 16,
    ):
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.host = host
        self._requested_port = port
        self.checkpoint_every = int(checkpoint_every)
        self.op_timeout_s = float(op_timeout_s)
        self.queue_limit = int(queue_limit)
        self.batch_limit = int(batch_limit)
        self.ring = HashRing()
        self._links: Dict[str, _WorkerLink] = {}
        self._sessions: Dict[int, RoutedSession] = {}
        self._next_cluster_session = 1
        self._server: Optional[asyncio.AbstractServer] = None
        self._next_connection = 1
        self._open_connections = 0
        self._started_at = time.monotonic()
        self._round_robin = 0
        self._tasks: "set[asyncio.Task[None]]" = set()
        self._conn_tasks: "set[asyncio.Task[None]]" = set()
        # Optional hook (wired by TraceCluster to the supervisor's
        # flight-dump accessor): worker_id -> path of its flight
        # recorder journal, for failover logs and telemetry breakdowns.
        self.flight_lookup: Optional[Callable[[str], Optional[str]]] = None

    # -- membership (pushed by the supervisor / tests) -----------------

    def add_worker(self, worker_id: str, host: str, port: int, generation: int = 1) -> None:
        """A worker is up (first spawn or restart) at ``host:port``.

        The ring keeps *every* configured worker forever — placement
        excludes dead ones via ``lookup_excluding`` — so a worker's
        sessions come home when it rejoins, instead of reshuffling the
        whole cluster twice.
        """
        self.ring.add(worker_id)
        link = self._links.get(worker_id)
        if link is None:
            link = _WorkerLink(worker_id=worker_id, host=host, port=port)
            self._links[worker_id] = link
        if link.client is not None:
            # A stale connection to the previous incarnation: retire it
            # in the background (its receiver task must be awaited).
            self._spawn_task(link.client.close(), f"repro-retire-{worker_id}")
            link.client = None
        link.host, link.port, link.generation = host, port, generation
        link.alive = True
        link.breaker.record_success()
        obs.set_gauge("cluster.workers_live", self._live_count())

    def worker_down(self, worker_id: str) -> None:
        """A worker died; its sessions fail over lazily on next use."""
        link = self._links.get(worker_id)
        if link is None:
            return
        link.alive = False
        if link.client is not None:
            self._spawn_task(link.client.close(), f"repro-retire-{worker_id}")
            link.client = None
        obs.set_gauge("cluster.workers_live", self._live_count())

    def _live_count(self) -> int:
        return sum(1 for l in self._links.values() if l.alive)

    def _excluded(self) -> Set[str]:
        """Workers placement must avoid: dead, or breaker-open (alive
        but failing — routing a rebuild there would just bounce)."""
        return {
            worker_id
            for worker_id, link in self._links.items()
            if not link.alive or link.breaker.state == "open"
        }

    def _spawn_task(self, coro, name: str) -> None:
        task = asyncio.get_running_loop().create_task(coro, name=name)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound front-side port (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("router is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def sessions(self) -> Dict[int, RoutedSession]:
        """Live routed sessions by cluster id (read-only view for
        soaks/telemetry: *which worker hosts stream X right now?*)."""
        return dict(self._sessions)

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self._requested_port,
            limit=protocol.MAX_FRAME_BYTES,
        )
        self._started_at = time.monotonic()
        log.info(
            "cluster router up",
            extra=obs.fields(host=self.host, port=self.port, workers=len(self._links)),
        )

    async def stop(self) -> None:
        """Close the listener and every back-side connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._conn_tasks:
            # Let in-flight connection teardowns finish (EOF processing,
            # back-side closes); cancel stragglers past the grace window.
            done, stragglers = await asyncio.wait(
                set(self._conn_tasks), timeout=1.0
            )
            for task in stragglers:
                task.cancel()
            if stragglers:
                await asyncio.gather(*stragglers, return_exceptions=True)
            self._conn_tasks.clear()
        for link in self._links.values():
            if link.client is not None:
                client, link.client = link.client, None
                await client.close()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def __aenter__(self) -> "ClusterRouter":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- back-side plumbing --------------------------------------------

    async def _connected(self, link: _WorkerLink) -> TraceClient:
        async with link.connect_lock:
            if link.client is None:
                client = await TraceClient.connect(link.host, link.port)
                try:
                    # Bulk payloads forward worker-ward without per-word
                    # re-encoding when the worker speaks binary frames.
                    # Best-effort: a worker that cannot answer the hello
                    # right now (busy, old version) leaves the link on
                    # JSON — never a reason to fail the connection.
                    await asyncio.wait_for(client.negotiate_binary(), 5.0)
                except (asyncio.TimeoutError, ProtocolError):
                    pass
                except (ConnectionError, OSError):
                    await client.close()
                    raise
                link.client = client
            return link.client

    async def _disconnect(self, link: _WorkerLink) -> None:
        async with link.connect_lock:
            if link.client is not None:
                client, link.client = link.client, None
                await client.close()

    async def _worker_request(
        self, link: _WorkerLink, op: str, **fields: Any
    ) -> Dict[str, Any]:
        """One back-side request; transport failures raise
        ``ConnectionError`` (after breaker bookkeeping + disconnect)."""
        trace_id, parent = _TRACE_CTX.get()
        if trace_id:
            # Chain the hop: the worker's engine span parents onto the
            # router's span (any client-supplied trace field was already
            # consumed by the router's own hop span).
            fields["trace"] = {"id": trace_id, "parent": parent}
        link.breaker.before_attempt()  # CircuitOpenError: fail fast
        try:
            client = await self._connected(link)
            response = await asyncio.wait_for(
                client.request(op, **fields), self.op_timeout_s
            )
        except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
            link.breaker.record_failure()
            await self._disconnect(link)
            obs.inc("cluster.worker_transport_errors", worker=link.worker_id)
            raise ConnectionError(
                f"worker {link.worker_id} failed {op!r}: {exc!r}"
            ) from exc
        # A decoded `shutdown` means the worker is draining and will
        # never admit this generation again — and that the request was
        # NOT applied (rejected at the door or abandoned pre-apply).
        # Treat it exactly like a lost host so every recovery path
        # (session failover, placement retry, stateless retry) engages.
        if (response.get("error") or {}).get("code") == protocol.ERR_SHUTDOWN:
            self.worker_down(link.worker_id)
            obs.inc("cluster.worker_transport_errors", worker=link.worker_id)
            raise ConnectionError(
                f"worker {link.worker_id} is shutting down; {op!r} not applied"
            )
        # Any other decoded response — even an error — proves the worker
        # is alive and talking; only transport failures trip the breaker.
        link.breaker.record_success()
        obs.inc("cluster.ops_forwarded", worker=link.worker_id, op=op)
        return response

    # -- placement: the shared open/resume/replay primitive ------------

    async def _place(self, session: RoutedSession) -> Dict[str, Any]:
        """(Re)build ``session`` on its ring owner among live workers.

        Returns the worker's ``open``/``resume`` response.  Raises
        :class:`_NoLiveWorker` when nobody can take it,
        ``ConnectionError`` when the chosen worker failed mid-build
        (caller retries placement), or :class:`ProtocolError` for
        non-transport placement failures (``busy``, ``resume_mismatch``,
        ``stale_checkpoint`` — forwarded to the client).
        """
        target = self.ring.lookup_excluding(
            str(session.cluster_id), self._excluded()
        )
        if target is None:
            raise _NoLiveWorker()
        link = self._links[target]
        if session.buffer.checkpoint is not None:
            response = await self._worker_request(
                link,
                "resume",
                state=session.buffer.checkpoint,
                coder=session.coder,
                width=session.width,
            )
        else:
            fields: Dict[str, Any] = {"coder": session.coder, "width": session.width}
            if session.policy is not None:
                fields["policy"] = session.policy
            response = await self._worker_request(link, "open", **fields)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ProtocolError(
                error.get("code", protocol.ERR_INTERNAL),
                error.get("message", "placement rejected"),
            )
        # Verified tail replay: deterministic FSMs must reproduce the
        # acknowledged outputs bit-for-bit; ReplayBuffer raises
        # `resume_mismatch` on divergence rather than stream on from
        # state we cannot trust.
        stream = EncodeStream(await self._connected(link), response)
        await session.buffer.replay(stream)
        session.worker_id = target
        session.worker_session = int(response["session"])
        return response

    async def _failover(self, session: RoutedSession) -> Dict[str, Any]:
        """Crash failover: placement after the host was lost."""
        lost_worker = session.worker_id  # before _place reassigns it
        session.worker_session = None
        response = await self._place(session)
        session.failovers += 1
        obs.inc("cluster.failovers", worker=session.worker_id)
        # Post-mortem breadcrumb: if the supervisor kept a flight
        # recorder journal for the lost incarnation, name it here so
        # "why did stream X fail over?" starts from the dead worker's
        # own last events, not just the router's view.
        flight = (
            self.flight_lookup(lost_worker)
            if self.flight_lookup is not None and lost_worker
            else None
        )
        obs.flight_record(
            "router.failover",
            session=session.cluster_id,
            lost_worker=lost_worker,
            new_worker=session.worker_id,
        )
        log.warning(
            "session failed over",
            extra=obs.fields(
                session=session.cluster_id,
                worker=session.worker_id,
                lost_worker=lost_worker,
                flight_dump=flight,
                replayed_ops=session.buffer.tail_ops,
                resumed=bool(response.get("resumed")),
            ),
        )
        return response

    async def _seal_checkpoint(self, session: RoutedSession) -> bool:
        """Router-initiated checkpoint export on the current host.

        Best-effort: a failure leaves the previous checkpoint + a
        longer tail, which still recovers.  Returns True on success.
        """
        link = self._links.get(session.worker_id or "")
        if link is None or not link.alive or session.worker_session is None:
            return False
        try:
            response = await self._worker_request(
                link, "checkpoint", session=session.worker_session, export=True
            )
        except (ConnectionError, CircuitOpenError):
            return False
        if not response.get("ok"):
            return False
        session.buffer.seal(response["state"])
        obs.inc("cluster.checkpoints_sealed", worker=link.worker_id)
        return True

    # -- planned migration / rebalance ---------------------------------

    async def migrate(self, session: RoutedSession, target_id: str) -> bool:
        """Planned migration: move one session to ``target_id``.

        Export on the source seals the buffer (empty tail → nothing to
        replay), ``resume`` on the target rebuilds the FSMs bit-exactly,
        and only then is the source session closed.  If the source is
        already dead this degrades to a crash failover — same result,
        different counter.  Caller must hold ``session.lock``.
        """
        target = self._links.get(target_id)
        if target is None or not target.alive:
            return False
        source = self._links.get(session.worker_id or "")
        source_session = session.worker_session
        exported = await self._seal_checkpoint(session)
        try:
            response = await self._place(session)
        except (_NoLiveWorker, ConnectionError, CircuitOpenError, ProtocolError):
            # The session is unplaced but its buffer is intact; the
            # next op will retry placement as a failover.
            session.worker_session = None
            return False
        if exported and source is not None and source.alive and source_session is not None:
            # Release the source copy; best-effort (a dead source
            # already dropped it with its memory).
            try:
                await self._worker_request(source, "close", session=source_session)
            except (ConnectionError, CircuitOpenError):
                pass
        session.migrations += 1
        obs.inc("cluster.migrations", worker=session.worker_id)
        log.info(
            "session migrated",
            extra=obs.fields(
                session=session.cluster_id,
                worker=session.worker_id,
                resumed=bool(response.get("resumed")),
            ),
        )
        return True

    async def rebalance(self) -> int:
        """Move every session whose ring home differs from its host.

        Called after a worker rejoins (its arc's sessions are currently
        failed over to neighbours) or by an operator.  Returns the
        number of sessions moved.
        """
        moved = 0
        for session in list(self._sessions.values()):
            if session.cluster_id not in self._sessions:
                continue  # closed while we were iterating
            async with session.lock:
                excluded = self._excluded()
                home = self.ring.lookup_excluding(str(session.cluster_id), excluded)
                if home is None or home == session.worker_id:
                    continue
                if await self.migrate(session, home):
                    moved += 1
        if moved:
            obs.inc("cluster.rebalance_moves", moved)
            log.info("rebalance complete", extra=obs.fields(moved=moved))
        return moved

    # -- front-side connection loop ------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Track the handler task so stop() can wait for connection
        # teardown to finish — a handler still alive at loop shutdown
        # makes asyncio's stream callback log spurious CancelledErrors.
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        connection_id = self._next_connection
        self._next_connection += 1
        self._open_connections += 1
        obs.inc("cluster.connections")
        obs.set_gauge("cluster.open_connections", self._open_connections)
        write_lock = asyncio.Lock()
        pending: "set[asyncio.Task[None]]" = set()

        async def respond(response, bulk_field=None) -> None:
            # Mirror the request's framing (same rule as TraceServer):
            # a binary request with a bulk result field is answered
            # binary; everything else stays newline-JSON.
            if bulk_field is not None and bulk_field in response:
                frame = protocol.encode_binary_frame(
                    response, bulk_field, response[bulk_field]
                )
            else:
                frame = protocol.encode_frame(response)
            async with write_lock:
                writer.write(frame)
                await writer.drain()

        async def process(message, bulk_field) -> None:
            response = await self._handle_message(connection_id, message)
            await respond(response, bulk_field)

        try:
            while True:
                try:
                    raw = await protocol.read_frame(reader)
                except (
                    asyncio.LimitOverrunError,
                    asyncio.IncompleteReadError,
                    ValueError,
                ):
                    await respond(
                        protocol.error_response(
                            None, protocol.ERR_BAD_REQUEST, "oversized or truncated frame"
                        )
                    )
                    break
                if not raw:
                    break
                if not raw.strip():
                    continue
                try:
                    message = protocol.decode_any_frame(raw)
                except ProtocolError as exc:
                    await respond(protocol.error_response(None, exc.code, exc.args[0]))
                    continue
                bulk_field = (
                    protocol.response_bulk_field(message)
                    if protocol.is_binary_frame(raw)
                    else None
                )
                task = asyncio.ensure_future(process(message, bulk_field))
                pending.add(task)
                task.add_done_callback(pending.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            await self._drop_connection(connection_id)
            self._open_connections -= 1
            obs.set_gauge("cluster.open_connections", self._open_connections)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _drop_connection(self, connection_id: int) -> None:
        """Front connection gone: release its sessions (worker-side
        best-effort — a dead worker already dropped them)."""
        doomed = [
            s for s in self._sessions.values() if s.connection_id == connection_id
        ]
        for session in doomed:
            self._sessions.pop(session.cluster_id, None)
            link = self._links.get(session.worker_id or "")
            if link is None or not link.alive or session.worker_session is None:
                continue
            try:
                await asyncio.wait_for(
                    self._worker_request(
                        link, "close", session=session.worker_session
                    ),
                    2.0,
                )
            except (
                asyncio.TimeoutError,
                ConnectionError,
                CircuitOpenError,
                OSError,
            ):
                pass
        if doomed:
            obs.set_gauge("cluster.sessions", len(self._sessions))

    # -- op dispatch ----------------------------------------------------

    async def _handle_message(
        self, connection_id: int, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        try:
            op, request_id = protocol.validate_request(message)
        except ProtocolError as exc:
            request_id = message.get("id")
            if not isinstance(request_id, int) or isinstance(request_id, bool):
                request_id = None
            return protocol.error_response(request_id, exc.code, exc.args[0])
        # The router hop span: parented on the client's span (when the
        # request carried trace context), parent of every worker span
        # this dispatch fans out to.  A trace-less request from an
        # uninstrumented client still gets a fresh trace id here, so the
        # router→worker hop always stitches.
        trace_id, trace_parent = protocol.trace_context(message)
        if not trace_id and obs.is_enabled():
            trace_id = obs.new_trace_id()
        hop = obs.hop_span(
            "router.request", trace_id=trace_id, parent=trace_parent, op=op
        )
        token = _TRACE_CTX.set((hop.trace_id, hop.ref))
        try:
            with hop:
                if op == "hello":
                    return self._op_hello(request_id)
                if op == "health":
                    return self._op_health(request_id)
                if op == "telemetry":
                    # Fan-out, not round-robin: the cluster-wide snapshot
                    # is the merge of every live worker's answer.
                    return await self._op_telemetry(request_id, message)
                if op == "open":
                    return await self._op_open(connection_id, request_id, message)
                if op == "resume":
                    return await self._op_resume(connection_id, request_id, message)
                if op in _SESSION_OPS:
                    return await self._op_session(
                        connection_id, request_id, op, message
                    )
                # Stateless ops (encode_trace): any live worker.
                return await self._op_stateless(request_id, op, message)
        except ProtocolError as exc:
            return protocol.error_response(request_id, exc.code, exc.args[0])
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            log.exception("router internal error", extra=obs.fields(op=op))
            obs.inc("cluster.router_errors", op=op)
            return protocol.error_response(
                request_id, protocol.ERR_INTERNAL, f"router error: {exc}"
            )
        finally:
            _TRACE_CTX.reset(token)

    def _op_hello(self, request_id: int) -> Dict[str, Any]:
        return protocol.ok_response(
            request_id,
            server="repro.serve.cluster",
            protocol=protocol.PROTOCOL_VERSION,
            ops=list(protocol.KNOWN_OPS),
            coders=list(CODER_FAMILIES),
            policies=sorted(POLICIES),
            queue_limit=self.queue_limit,
            batch_limit=self.batch_limit,
            max_chunk_cycles=MAX_CHUNK_CYCLES,
            workers=self._live_count(),
            # The router speaks binary bulk frames on its front socket
            # and (best-effort) down its worker links; the two hops
            # negotiate independently.
            binary_frames=True,
        )

    def _op_health(self, request_id: int) -> Dict[str, Any]:
        return protocol.ok_response(
            request_id,
            uptime_s=round(time.monotonic() - self._started_at, 3),
            sessions=len(self._sessions),
            workers_live=self._live_count(),
            workers_total=len(self._links),
            admitting=self._server is not None,
        )

    def _router_gauges(self) -> Dict[str, Any]:
        """The router's own live gauges (available even with obs off)."""
        return {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "sessions": len(self._sessions),
            "open_connections": self._open_connections,
            "workers_live": self._live_count(),
            "workers_total": len(self._links),
            "admitting": self._server is not None,
        }

    async def _op_telemetry(
        self, request_id: int, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Cluster-wide telemetry: fan out to every live worker, merge.

        Read-only and idempotent.  Every live worker is probed
        concurrently; a worker that fails its probe (or is down) still
        appears in the per-worker breakdown — with its breaker state,
        generation and flight-recorder journal if any — just without a
        snapshot.  The cluster ``metrics`` section is the fold of every
        worker snapshot plus the router's own (counters add, gauges
        last-write-wins, histogram buckets add), so per-op latency
        histograms aggregate exactly.  With ``REPRO_OBS=0`` everywhere
        the merged snapshot is empty but the op still succeeds.
        """
        span_limit = message.get("span_limit", 16)
        if not isinstance(span_limit, int) or isinstance(span_limit, bool):
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST, "'span_limit' must be an int"
            )

        async def probe(link: _WorkerLink) -> Optional[Dict[str, Any]]:
            try:
                return await self._worker_request(
                    link, "telemetry", span_limit=span_limit
                )
            except (ConnectionError, CircuitOpenError):
                return None

        live = [link for link in self._links.values() if link.alive]
        answers = await asyncio.gather(*(probe(link) for link in live))
        responded = dict(zip((link.worker_id for link in live), answers))

        merged = obs.MetricsRegistry()
        enabled = obs.is_enabled()
        workers: Dict[str, Any] = {}
        for worker_id in sorted(self._links):
            link = self._links[worker_id]
            entry: Dict[str, Any] = {
                "alive": link.alive,
                "generation": link.generation,
                "breaker": link.breaker.state,
            }
            if self.flight_lookup is not None:
                entry["flight_dump"] = self.flight_lookup(worker_id)
            response = responded.get(worker_id)
            if response is not None and response.get("ok"):
                entry["telemetry"] = {
                    key: response[key]
                    for key in ("enabled", "metrics", "spans", "gauges")
                    if key in response
                }
                if response.get("enabled"):
                    enabled = True
                metrics = response.get("metrics")
                if isinstance(metrics, dict) and metrics:
                    merged.merge(metrics)
            workers[worker_id] = entry
        if obs.is_enabled():
            merged.merge(obs.get_registry().snapshot())
        return protocol.ok_response(
            request_id,
            enabled=enabled,
            metrics=merged.snapshot() if enabled else {},
            gauges=self._router_gauges(),
            workers=workers,
        )

    async def _op_open(
        self, connection_id: int, request_id: int, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        coder = message.get("coder")
        if not isinstance(coder, str):
            raise ProtocolError(protocol.ERR_BAD_REQUEST, "'coder' must be a spec string")
        width = message.get("width", 32)
        if not isinstance(width, int) or isinstance(width, bool):
            raise ProtocolError(protocol.ERR_BAD_REQUEST, "'width' must be an int")
        policy = message.get("policy")
        session = RoutedSession(
            cluster_id=self._next_cluster_session,
            connection_id=connection_id,
            coder=coder,
            width=width,
            policy=policy if isinstance(policy, str) else None,
        )
        self._next_cluster_session += 1
        return await self._establish(session, request_id)

    async def _op_resume(
        self, connection_id: int, request_id: int, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Client-initiated resume: a new cluster session seeded from
        the client's own exported blob (which also arms the router's
        failover buffer from cycle one)."""
        state = message.get("state")
        if not isinstance(state, dict):
            raise ProtocolError(
                protocol.ERR_BAD_REQUEST, "'state' must be the exported checkpoint object"
            )
        coder = message.get("coder", state.get("spec"))
        width = message.get("width", state.get("width"))
        if not isinstance(coder, str) or not isinstance(width, int) or isinstance(width, bool):
            raise ProtocolError(
                protocol.ERR_STALE_CHECKPOINT,
                "exported state is missing its coder identity",
            )
        policy = state.get("policy")
        session = RoutedSession(
            cluster_id=self._next_cluster_session,
            connection_id=connection_id,
            coder=coder,
            width=width,
            policy=policy if isinstance(policy, str) else None,
        )
        self._next_cluster_session += 1
        session.buffer.seal(state)
        # The worker (not the router) verifies the digest and the
        # coder-identity pins — _establish forwards its verdict.
        return await self._establish(session, request_id, forward=message)

    async def _establish(
        self,
        session: RoutedSession,
        request_id: int,
        forward: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Place a brand-new session and answer its open/resume."""
        async with session.lock:
            for _ in range(_MAX_PLACEMENTS_PER_OP):
                try:
                    response = await self._place(session)
                except _NoLiveWorker:
                    return protocol.error_response(
                        request_id,
                        protocol.ERR_BUSY,
                        "no live worker to place the session on; retry",
                    )
                except (ConnectionError, CircuitOpenError):
                    continue  # that worker just died; ring will re-route
                self._sessions[session.cluster_id] = session
                session.cycles = int(response.get("cycles", 0))
                obs.inc("cluster.sessions_opened")
                obs.set_gauge("cluster.sessions", len(self._sessions))
                out = dict(response)
                out.pop(protocol.BULK_KEY, None)
                out["id"] = request_id
                out["session"] = session.cluster_id
                if forward is not None:
                    out["resumed"] = True
                return out
        return protocol.error_response(
            request_id,
            protocol.ERR_BUSY,
            "cluster could not place the session; retry",
        )

    async def _op_session(
        self, connection_id: int, request_id: int, op: str, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        cluster_id = message.get("session")
        session = self._sessions.get(cluster_id) if isinstance(cluster_id, int) else None
        if session is None or session.connection_id != connection_id:
            raise ProtocolError(
                protocol.ERR_NO_SESSION,
                f"no session {cluster_id!r} on this connection",
            )
        fields = {
            k: v
            for k, v in message.items()
            if k not in ("v", "id", "op", "session", protocol.BULK_KEY)
        }
        async with session.lock:
            if session.cluster_id not in self._sessions:
                raise ProtocolError(
                    protocol.ERR_NO_SESSION, f"session {cluster_id} already closed"
                )
            placements = 0
            while True:
                link = self._links.get(session.worker_id or "")
                if (
                    link is None
                    or not link.alive
                    or session.worker_session is None
                ):
                    placements += 1
                    if placements > _MAX_PLACEMENTS_PER_OP:
                        return protocol.error_response(
                            request_id,
                            protocol.ERR_BUSY,
                            "session failover could not find a healthy worker; retry",
                        )
                    try:
                        await self._failover(session)
                    except _NoLiveWorker:
                        return protocol.error_response(
                            request_id,
                            protocol.ERR_BUSY,
                            "no live worker to fail the session over to; retry",
                        )
                    except (ConnectionError, CircuitOpenError):
                        continue
                    link = self._links[session.worker_id]
                try:
                    response = await self._worker_request(
                        link, op, session=session.worker_session, **fields
                    )
                except (ConnectionError, CircuitOpenError):
                    # Host lost mid-op.  The buffer holds state up to
                    # the last *acknowledged* op, so the rebuilt session
                    # is exactly pre-op; retrying applies it once.
                    session.worker_session = None
                    continue
                error_code = (response.get("error") or {}).get("code")
                if not response.get("ok") and error_code == protocol.ERR_NO_SESSION:
                    # The worker restarted (new generation, same id) or
                    # reaped the session: same recovery as a crash.
                    session.worker_session = None
                    continue
                break
            await self._after_session_op(session, op, message, response)
            # The worker link's framing marker is hop-local; the front
            # side re-frames per its own negotiation.
            out = dict(response)
            out.pop(protocol.BULK_KEY, None)
            out["id"] = request_id
            if "session" in out:
                out["session"] = session.cluster_id
            if "closed" in out:
                out["closed"] = session.cluster_id
            return out

    async def _after_session_op(
        self,
        session: RoutedSession,
        op: str,
        message: Dict[str, Any],
        response: Dict[str, Any],
    ) -> None:
        """Post-op bookkeeping (caller holds the session lock)."""
        if not response.get("ok"):
            return
        if op == "encode":
            session.buffer.record(
                "encode",
                _word_list(message.get("values")),
                _word_list(response.get("states")),
            )
            session.cycles = int(response.get("cycles", session.cycles))
        elif op == "decode":
            session.buffer.record(
                "decode",
                _word_list(message.get("states")),
                _word_list(response.get("values")),
            )
        elif op == "checkpoint":
            if message.get("export") and isinstance(response.get("state"), dict):
                session.buffer.seal(response["state"])
        elif op == "restore":
            # The worker FSMs rewound under our feet: everything the
            # buffer knows is now *ahead* of the live state.  Re-seal
            # immediately; until that succeeds the session would fail
            # over as a fresh stream, which is wrong — so it matters
            # that _seal_checkpoint is tried right here, first.
            session.buffer.clear()
            if not await self._seal_checkpoint(session):
                obs.inc("cluster.unprotected_restores")
        elif op == "close":
            self._sessions.pop(session.cluster_id, None)
            obs.set_gauge("cluster.sessions", len(self._sessions))
            return
        if session.buffer.tail_ops >= self.checkpoint_every:
            await self._seal_checkpoint(session)

    async def _op_stateless(
        self, request_id: int, op: str, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Round-robin the stateless ops over live workers; they are
        idempotent, so a transport failure just tries the next one."""
        fields = {
            k: v
            for k, v in message.items()
            if k not in ("v", "id", "op", protocol.BULK_KEY)
        }
        live = [l for l in self._links.values() if l.alive]
        if not live:
            return protocol.error_response(
                request_id, protocol.ERR_BUSY, "no live worker; retry"
            )
        self._round_robin += 1
        ordered = sorted(live, key=lambda l: l.worker_id)
        start = self._round_robin % len(ordered)
        for step in range(len(ordered)):
            link = ordered[(start + step) % len(ordered)]
            try:
                response = await self._worker_request(link, op, **fields)
            except (ConnectionError, CircuitOpenError):
                continue
            out = dict(response)
            out.pop(protocol.BULK_KEY, None)
            out["id"] = request_id
            return out
        return protocol.error_response(
            request_id, protocol.ERR_BUSY, "every live worker failed the op; retry"
        )


class TraceCluster:
    """Supervisor + router, wired: the deployable ``repro cluster``.

    Parameters
    ----------
    workers:
        Number of supervised engine worker processes.
    host, port:
        The router's front-side bind address.
    spec:
        Per-worker engine configuration (:class:`WorkerSpec`).
    rebalance_on_join:
        After a worker (re)joins, automatically migrate its ring arc's
        sessions back to it.  Soaks leave this off and call
        :meth:`rebalance` at a deterministic point instead.
    supervisor_kwargs:
        Passed through to :class:`WorkerSupervisor` (heartbeat cadence,
        liveness deadline, backoff factory, seed...).
    """

    def __init__(
        self,
        workers: int = 4,
        host: str = "127.0.0.1",
        port: int = 0,
        spec: Optional[WorkerSpec] = None,
        checkpoint_every: int = 4,
        rebalance_on_join: bool = False,
        **supervisor_kwargs: Any,
    ):
        spec = spec if spec is not None else WorkerSpec()
        self.router = ClusterRouter(
            host=host,
            port=port,
            checkpoint_every=checkpoint_every,
            queue_limit=spec.queue_limit,
            batch_limit=spec.batch_limit,
        )
        self.rebalance_on_join = rebalance_on_join
        self._started = False
        self.supervisor = WorkerSupervisor(
            count=workers,
            spec=spec,
            host=host,
            on_worker_up=self._on_worker_up,
            on_worker_down=self._on_worker_down,
            **supervisor_kwargs,
        )
        # Failover logs and telemetry breakdowns name the dead worker's
        # flight-recorder journal via the supervisor's accessor.
        self.router.flight_lookup = self.supervisor.flight_dump

    # -- supervisor → router bridges -----------------------------------

    def _on_worker_up(self, handle: WorkerHandle) -> None:
        self.router.add_worker(
            handle.worker_id, handle.host, handle.port, handle.generation
        )
        if self.rebalance_on_join and self._started:
            # A rejoin: bring the worker's arc home.  Scheduled, not
            # awaited — the supervisor's monitor must not block on a
            # cluster-wide migration pass.
            self.router._spawn_task(self.router.rebalance(), "repro-rebalance")

    def _on_worker_down(self, handle: WorkerHandle) -> None:
        self.router.worker_down(handle.worker_id)

    # -- lifecycle ------------------------------------------------------

    @property
    def host(self) -> str:
        return self.router.host

    @property
    def port(self) -> int:
        return self.router.port

    async def start(self) -> None:
        await self.supervisor.start()
        await self.router.start()
        self._started = True

    async def stop(self, drain_timeout_s: float = 10.0) -> Dict[str, Any]:
        """Graceful cluster drain; returns the combined report.

        The router's listener closes first (no new work), then every
        worker is SIGTERMed and drains its engine.  ``clean`` is True
        only when every worker exited 0 within the timeout.
        """
        await self.router.stop()
        report = await self.supervisor.stop(drain_timeout_s)
        self._started = False
        return report

    async def serve_forever(self) -> None:
        await self.router.serve_forever()

    async def __aenter__(self) -> "TraceCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- soak hooks ------------------------------------------------------

    def kill_worker(self, worker_id: str) -> int:
        """SIGKILL one worker (the soak's chaos op); returns its pid."""
        return self.supervisor.kill(worker_id)

    async def rebalance(self) -> int:
        return await self.router.rebalance()

    def worker_of(self, cluster_session: int) -> Optional[str]:
        """Which worker hosts a cluster session right now (soaks use
        this to aim the SIGKILL at a worker that actually hurts)."""
        session = self.router.sessions.get(cluster_session)
        return session.worker_id if session is not None else None
