"""Asyncio TCP frontend over the :class:`~repro.serve.engine.ServeEngine`.

One :class:`TraceServer` owns one engine and one listening socket.  The
transport layer is deliberately thin: read a frame (newline-JSON or
length-prefixed binary — :func:`repro.serve.protocol.read_frame` tells
them apart by the first byte), decode it, hand it to the engine, write
the response framed the same way the request arrived.  Everything
interesting — sessions, batching, backpressure, deadlines — lives in
the engine, which is what makes the serving behaviour unit-testable
without sockets.

Connection model: each accepted connection gets a process-unique id;
sessions opened over it are keyed under that id and die with it
(:meth:`ServeEngine.drop_connection`), so an abandoned client can never
leak FSM state server-side.  Responses to one connection are written
in completion order; request ids (chosen by the client) are what
correlates them — a client may pipeline requests freely.

Shutdown: :meth:`TraceServer.stop` closes the listener (no new
connections), then drains the engine.  In-flight requests get
``drain_timeout_s`` to complete; stragglers are answered ``shutdown``
(the server abandoned them — a different promise than ``timeout``)
and connections observe EOF.  :meth:`stop` returns the engine's drain
report.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from .. import obs
from . import protocol
from .engine import ServeEngine
from .protocol import ProtocolError

__all__ = ["TraceServer"]

log = obs.get_logger("serve.server")

DEFAULT_HOST = "127.0.0.1"


class TraceServer:
    """The asyncio trace-serving frontend (``repro serve``).

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` picks an ephemeral port (tests);
        read it back from :attr:`port` after :meth:`start`.
    engine:
        A pre-configured :class:`ServeEngine`, or None to build one
        from ``engine_kwargs`` (``queue_limit``, ``batch_limit``,
        ``request_timeout_s``, ``session_idle_timeout_s``).
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = 0,
        engine: Optional[ServeEngine] = None,
        **engine_kwargs,
    ):
        self.host = host
        self._requested_port = port
        self.engine = engine if engine is not None else ServeEngine(**engine_kwargs)
        self._server: Optional[asyncio.AbstractServer] = None
        self._next_connection = 1
        self._open_connections = 0

    # -- lifecycle ----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the socket and start the engine."""
        await self.engine.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self._requested_port,
            limit=protocol.MAX_FRAME_BYTES,
        )
        log.info(
            "serving",
            extra=obs.fields(host=self.host, port=self.port),
        )

    async def stop(self, drain_timeout_s: float = 5.0) -> dict:
        """Stop accepting, drain the engine, release the socket.

        Returns the engine's drain report (see
        :meth:`ServeEngine.stop`); the chaos soak asserts ``drained``
        and ``outstanding == 0`` as its clean-shutdown criterion.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        return await self.engine.stop(drain_timeout_s)

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI's foreground mode)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def __aenter__(self) -> "TraceServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- per-connection loop ------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection_id = self._next_connection
        self._next_connection += 1
        self._open_connections += 1
        obs.inc("serve.connections")
        obs.set_gauge("serve.open_connections", self._open_connections)
        write_lock = asyncio.Lock()  # responses interleave task-safely
        pending: "set[asyncio.Task[None]]" = set()

        async def respond(response, bulk_field=None, op="?") -> None:
            # Responses mirror the request's framing: only a request
            # that itself arrived binary gets a binary bulk response
            # (and only when the op produced its bulk field — error
            # responses stay JSON).  Serialization is timed per op and
            # framing kind — the "how much of request_s is framing"
            # segment of the latency-attribution histograms.
            if bulk_field is not None and bulk_field in response:
                with obs.timed("serve.serialize_s", framing="binary", op=op):
                    frame = protocol.encode_binary_frame(
                        response, bulk_field, response[bulk_field]
                    )
            else:
                with obs.timed("serve.serialize_s", framing="json", op=op):
                    frame = protocol.encode_frame(response)
            async with write_lock:
                writer.write(frame)
                await writer.drain()

        async def process(message, bulk_field) -> None:
            response = await self.engine.handle(connection_id, message)
            op = message.get("op")
            await respond(
                response, bulk_field, op=op if isinstance(op, str) else "?"
            )

        try:
            while True:
                try:
                    raw = await protocol.read_frame(reader)
                except (
                    asyncio.LimitOverrunError,
                    asyncio.IncompleteReadError,
                    ValueError,
                ):
                    # Framing is lost (overlong line, or a binary frame
                    # truncated / declaring an oversize body): answer
                    # once and drop the connection.
                    await respond(
                        protocol.error_response(
                            None, protocol.ERR_BAD_REQUEST, "oversized or truncated frame"
                        )
                    )
                    break
                if not raw:
                    break  # EOF: client is done
                if not raw.strip():
                    continue  # tolerate keep-alive blank lines
                try:
                    message = protocol.decode_any_frame(raw)
                except ProtocolError as exc:
                    # Frame boundaries are intact (a corrupted binary
                    # frame fails its CRC *after* being read whole), so
                    # this is per-request: report and keep serving.
                    await respond(protocol.error_response(None, exc.code, exc.args[0]))
                    continue
                bulk_field = (
                    protocol.response_bulk_field(message)
                    if protocol.is_binary_frame(raw)
                    else None
                )
                # Pipelining: admit the request now, let the response
                # land whenever the engine finishes it.
                task = asyncio.ensure_future(process(message, bulk_field))
                pending.add(task)
                task.add_done_callback(pending.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-write; sessions are dropped below
        except asyncio.CancelledError:
            pass  # server shutting down mid-read; fall through to cleanup
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            self.engine.drop_connection(connection_id)
            self._open_connections -= 1
            obs.set_gauge("serve.open_connections", self._open_connections)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
