"""Asyncio client for the trace-serving protocol (``repro client``).

:class:`TraceClient` is a thin, fully-typed wrapper over the wire
protocol (newline-JSON, plus the negotiated binary bulk framing — see
:meth:`TraceClient.negotiate_binary`): one TCP connection,
monotonically increasing request ids, responses matched back to their
requests by id (so requests may be pipelined), and protocol errors
surfaced as
:class:`~repro.serve.protocol.ProtocolError` — a ``ValueError``
subclass, which the CLI's error funnel renders as the one-line
``repro: error:`` contract.

:class:`EncodeStream` is the client-side view of one streaming session:
``feed`` chunks, take/restore server-side checkpoints, and close.  The
session's FSM lives on the *server*; the stream object only remembers
ids and cycle counts.

Retry discipline: :meth:`TraceClient.call` raises immediately, while
:meth:`TraceClient.call_with_retry` applies a
:class:`~repro.retry.RetryPolicy` — jittered exponential
backoff, a per-attempt timeout, and an *overall deadline budget* that
backoff sleeps can never overshoot.  Which failures are retryable is
the protocol's idempotency contract (see the table in
:mod:`repro.serve.protocol`): ``busy`` rejections are retryable for
every op (the server never admitted the request), but ambiguous
failures — transport errors, attempt timeouts — are only retried for
the idempotent ops.  Session ops recover by reconnect → ``resume`` →
replay instead (:class:`~repro.serve.recovery.ResilientTraceClient`).

A server frame that cannot be decoded is a *connection-fatal* event:
the client cannot know which pending request the frame answered, so
every pending future fails with :class:`FrameCorruptionError` and the
connection is marked broken, rather than silently leaving callers to
hang on futures nobody will ever complete.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from . import protocol
from .protocol import ProtocolError
from ..retry import RetryPolicy

__all__ = ["EncodeStream", "FrameCorruptionError", "TraceClient"]

log = obs.get_logger("serve.client")


class FrameCorruptionError(ConnectionError):
    """The server sent an undecodable frame; the connection is dead.

    Subclasses :class:`ConnectionError`, so retry/resume machinery
    treats it exactly like a dropped connection — which is what the
    client must do, because response/request correlation is lost.
    """


class TraceClient:
    """One protocol connection to a :class:`~repro.serve.server.TraceServer`."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._next_id = 1
        self._pending: Dict[int, "asyncio.Future[Dict[str, Any]]"] = {}
        self._receiver = asyncio.get_running_loop().create_task(self._receive_loop())
        self._closed = False
        self._broken = False  # set when the server stream is unusable
        #: True after :meth:`negotiate_binary` confirmed the server
        #: speaks binary bulk frames; bulk requests then go binary.
        self.binary = False

    # -- lifecycle ----------------------------------------------------

    @classmethod
    async def connect(cls, host: str, port: int) -> "TraceClient":
        """Open a connection; raises ``OSError`` when nothing listens."""
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_FRAME_BYTES
        )
        return cls(reader, writer)

    async def close(self) -> None:
        """Close the connection (server drops this connection's sessions)."""
        if self._closed:
            return
        self._closed = True
        self._receiver.cancel()
        try:
            await self._receiver
        except asyncio.CancelledError:
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        self._fail_pending(ConnectionResetError("connection closed"))

    async def __aenter__(self) -> "TraceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- request plumbing ---------------------------------------------

    def _fail_pending(self, exc: BaseException) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    async def _receive_loop(self) -> None:
        try:
            while True:
                try:
                    raw = await protocol.read_frame(self._reader)
                except (
                    asyncio.LimitOverrunError,
                    asyncio.IncompleteReadError,
                    ProtocolError,
                ) as exc:
                    # Framing lost mid-stream (truncated binary body,
                    # oversize declaration, overlong line): same
                    # severity as an undecodable frame below.
                    obs.inc("serve.client_corrupt_frames")
                    self._broken = True
                    self._fail_pending(
                        FrameCorruptionError(f"unreadable frame from server: {exc}")
                    )
                    return
                if not raw:
                    self._fail_pending(
                        ConnectionResetError("server closed the connection")
                    )
                    return
                try:
                    message = protocol.decode_any_frame(raw)
                except ProtocolError as exc:
                    # An undecodable frame severs request/response
                    # correlation: *some* pending request was probably
                    # answered by it, and skipping the frame would
                    # leave that caller hanging forever.  Fail fast:
                    # every pending future dies with a ConnectionError
                    # subclass and the connection is declared broken.
                    log.warning(
                        "undecodable frame from server; failing connection",
                        extra=obs.fields(error=str(exc)),
                    )
                    obs.inc("serve.client_corrupt_frames")
                    self._broken = True
                    self._fail_pending(
                        FrameCorruptionError(
                            f"undecodable frame from server: {exc}"
                        )
                    )
                    return
                # The framing marker is transport metadata, not part of
                # the response the caller asked for.
                message.pop(protocol.BULK_KEY, None)
                request_id = message.get("id")
                future = self._pending.pop(request_id, None)
                if future is not None and not future.done():
                    future.set_result(message)
                elif request_id is None:
                    # Unsolicited server error (e.g. undecodable frame).
                    log.warning(
                        "server error", extra=obs.fields(error=str(message.get("error")))
                    )
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            self._fail_pending(exc)

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request; returns the raw response message."""
        if self._closed:
            raise ConnectionResetError("client is closed")
        if self._broken:
            raise FrameCorruptionError(
                "connection failed on an undecodable server frame"
            )
        request_id = self._next_id
        self._next_id += 1
        future: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[request_id] = future
        message = protocol.request(op, request_id, **fields)
        # Distributed trace context: unless the caller supplied its own
        # ``trace`` (the cluster router does, to chain hops), this client
        # is the trace root — open the hop span and put its ref on the
        # wire so downstream hops link to it.  Disabled obs leaves the
        # message untouched (NO_SPAN has an empty ref, and old peers
        # ignore the field anyway).
        hop: Any = obs.NO_SPAN
        if "trace" not in message and obs.is_enabled():
            hop = obs.hop_span("client.request", trace_id=obs.new_trace_id(), op=op)
            message["trace"] = {"id": hop.trace_id, "parent": hop.ref}
        bulk_field = protocol.BULK_REQUEST_FIELDS.get(op) if self.binary else None
        if bulk_field is not None and isinstance(
            message.get(bulk_field), (list, tuple, np.ndarray)
        ):
            frame = protocol.encode_binary_frame(
                message, bulk_field, message[bulk_field]
            )
        else:
            frame = protocol.encode_frame(message)
        try:
            with hop:  # the client hop spans the full round trip
                self._writer.write(frame)
                await self._writer.drain()
                return await future
        finally:
            # A caller-side cancellation (e.g. wait_for timing the
            # attempt out) must not leak the pending entry: a late
            # response to a forgotten id is dropped, not delivered.
            self._pending.pop(request_id, None)

    async def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request; raises :class:`ProtocolError` on ``ok: false``."""
        response = await self.request(op, **fields)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ProtocolError(
                error.get("code", protocol.ERR_INTERNAL),
                error.get("message", "unspecified server error"),
            )
        return response

    async def call_with_retry(
        self,
        op: str,
        retries: int = 5,
        backoff_s: float = 0.05,
        retry: Optional[RetryPolicy] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        """:meth:`call` under the unified retry discipline.

        What is retried follows the protocol's idempotency table
        (:data:`~repro.serve.protocol.IDEMPOTENT_OPS`):

        * ``busy`` rejections — retried for **every** op: the server
          rejected the request *before admitting it*, so a resend can
          never double-apply;
        * ambiguous failures (transport errors, attempt timeouts) —
          retried only for the idempotent ops; a *session* chunk that
          died mid-flight may have advanced the FSM, so those are
          re-raised for the caller to recover via reconnect/``resume``
          (see :class:`~repro.serve.recovery.ResilientTraceClient`).

        Pass ``retry`` for full control (attempt timeouts, an overall
        ``deadline_s`` budget that backoff sleeps never overshoot,
        jitter); the legacy ``retries``/``backoff_s`` pair builds an
        equivalent jitter-free policy and stays supported.
        """
        if retry is None:
            retry = RetryPolicy(
                attempts=max(1, retries + 1),
                base_backoff_s=backoff_s,
                multiplier=2.0,
                max_backoff_s=max(backoff_s * 64, backoff_s),
                jitter=0.0,
            )
        state = retry.start(key=self._next_id)
        idempotent = op in protocol.IDEMPOTENT_OPS
        while True:
            state.begin_attempt()
            # RetryBudgetExceeded propagates from here: the overall
            # deadline budget is spent, no further attempt is made.
            timeout = state.attempt_timeout()
            try:
                if timeout is None:
                    return await self.call(op, **fields)
                return await asyncio.wait_for(self.call(op, **fields), timeout)
            except ProtocolError as exc:
                if exc.code != protocol.ERR_BUSY:
                    raise
                obs.inc("serve.client_backoffs")
                last_error: BaseException = exc
            except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
                if not idempotent:
                    raise
                obs.inc("serve.client_retries", op=op)
                last_error = exc
            if not state.more_attempts():
                raise last_error
            # The sleep is clipped to the remaining deadline budget —
            # backoff can never overshoot the caller's deadline.
            await asyncio.sleep(state.next_backoff())

    # -- typed convenience wrappers ------------------------------------

    async def hello(self) -> Dict[str, Any]:
        """Server identification, capabilities and limits."""
        return await self.call("hello")

    async def negotiate_binary(self) -> bool:
        """Switch bulk ops to binary frames if the server supports them.

        Sends a ``hello`` (JSON, as always) and enables binary bulk
        framing iff the response advertises ``binary_frames``.  Returns
        the negotiated state.  Without this call — or against an older
        server — every request stays newline-JSON: the fallback needs
        no negotiation.
        """
        response = await self.hello()
        self.binary = bool(response.get("binary_frames"))
        return self.binary

    async def open_stream(
        self, coder: str, width: int = 32, policy: Optional[str] = None
    ) -> "EncodeStream":
        """Open a streaming session (optionally resilient, see ``policy``)."""
        fields: Dict[str, Any] = {"coder": coder, "width": width}
        if policy is not None:
            fields["policy"] = policy
        response = await self.call("open", **fields)
        return EncodeStream(self, response)

    async def resume_stream(
        self, state: Dict[str, Any], **pins: Any
    ) -> "EncodeStream":
        """Materialise a new session from an exported checkpoint blob.

        ``pins`` may carry ``coder``/``width``/``policy`` the caller
        *expects* the blob to hold; a disagreement is answered
        ``resume_mismatch`` before any FSM state is touched.
        """
        response = await self.call("resume", state=state, **pins)
        return EncodeStream(self, response)

    async def encode_trace(
        self, coder: str, values: Sequence[int], width: int = 32
    ) -> Sequence[int]:
        """One-shot stateless encode (micro-batched server-side).

        Returns the wire states: a plain int list over JSON framing, a
        ``uint64`` ndarray (bit-identical values) when binary frames
        were negotiated.
        """
        response = await self.call(
            "encode_trace", coder=coder, width=width, values=self._bulk_payload(values)
        )
        return response["states"]

    def _bulk_payload(self, values: Sequence[int]) -> Any:
        """A bulk request payload in the connection's negotiated form."""
        if self.binary:
            return np.ascontiguousarray(np.asarray(values, dtype=np.uint64))
        return [int(v) for v in values]


class EncodeStream:
    """Client-side handle on one server-held streaming session."""

    def __init__(self, client: TraceClient, opened: Dict[str, Any]):
        self._client = client
        self.session_id: int = opened["session"]
        self.input_width: int = opened["input_width"]
        self.output_width: int = opened["output_width"]
        self.resilient: bool = bool(opened.get("resilient"))
        #: Encode cycles acknowledged by the server (non-zero straight
        #: away when the stream was materialised by ``resume``).
        self.cycles: int = int(opened.get("cycles", 0))
        self.resumed: bool = bool(opened.get("resumed"))
        self.desyncs: List[int] = []  #: decode cycles where desync was detected

    async def feed(self, values: Sequence[int]) -> Sequence[int]:
        """Stream-encode one chunk; returns its wire states.

        States come back as an int list over JSON framing, as a
        ``uint64`` ndarray (bit-identical) when the connection
        negotiated binary frames.
        """
        response = await self._client.call(
            "encode",
            session=self.session_id,
            values=self._client._bulk_payload(values),
        )
        self.cycles = response["cycles"]
        return response["states"]

    async def decode(self, states: Sequence[int]) -> Sequence[int]:
        """Stream-decode one chunk; desync detections land in :attr:`desyncs`."""
        response = await self._client.call(
            "decode",
            session=self.session_id,
            states=self._client._bulk_payload(states),
        )
        self.desyncs.extend(response.get("desyncs", ()))
        return response["values"]

    async def checkpoint(self, export: bool = False) -> Any:
        """Snapshot the server-side FSM state.

        Plain form returns the server-side checkpoint id (an int).
        With ``export=True`` returns ``(checkpoint_id, state)`` where
        ``state`` is the portable, digest-sealed blob a later
        ``resume`` (on *any* connection) restores bit-exactly.
        """
        response = await self._client.call(
            "checkpoint", session=self.session_id, export=bool(export)
        )
        if export:
            return response["checkpoint"], response["state"]
        return response["checkpoint"]

    async def restore(self, checkpoint_id: int) -> None:
        """Rewind the server-side FSM to a checkpoint."""
        response = await self._client.call(
            "restore", session=self.session_id, checkpoint=checkpoint_id
        )
        self.cycles = response["cycles"]

    async def close(self) -> None:
        """Release the session server-side."""
        await self._client.call("close", session=self.session_id)
