"""The auto-resuming client: session streams that survive the network.

A plain :class:`~repro.serve.client.TraceClient` treats a dropped
connection as fatal for its sessions — correctly, because blindly
resending a session chunk could double-advance the server-side FSM
(see the idempotency table in :mod:`repro.serve.protocol`).  The
:class:`ResilientTraceClient` turns that contract into transparent
recovery:

* every ``checkpoint_every`` chunks it asks the server for an
  *exported* checkpoint (``checkpoint`` with ``export: true``) and
  keeps the digest-sealed blob client-side;
* it buffers the ``(values, states)`` tail fed since that checkpoint;
* when the connection dies (drop, corruption, stall past its attempt
  timeout), it reconnects, ``resume``\\ s a fresh session from the blob,
  **replays the tail** and verifies the replayed states are
  byte-identical to what the original stream produced — deterministic
  FSMs make the replay exact, which is what turns a non-idempotent
  stream into an idempotent one;
* only then is the in-flight chunk retried, against FSM state
  bit-identical to the moment before the failure.

Attempts are paced by a shared :class:`~repro.retry.RetryPolicy`
(jittered backoff under an overall deadline budget) and gated by a
:class:`~repro.retry.CircuitBreaker` so a dead server fails fast
instead of eating the whole budget per call.

This is the paper's resync-style recovery lifted one layer up: PR 1's
resilient transcoders re-establish *FSM twin agreement* after a wire
fault; this module re-establishes *client/server session agreement*
after a transport fault, from the same kind of checkpoint state.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import obs
from . import protocol
from .client import EncodeStream, TraceClient
from .protocol import ProtocolError
from ..retry import CircuitBreaker, RetryPolicy

__all__ = ["ReplayBuffer", "ResilientTraceClient"]

log = obs.get_logger("serve.recovery")

#: Default checkpoint cadence: export every N successfully fed chunks.
DEFAULT_CHECKPOINT_EVERY = 3

#: Error codes recoverable by reconnect → resume → replay (the session
#: is gone or fenced, but the exported checkpoint is still good).
_RESUMABLE_CODES = frozenset({protocol.ERR_NO_SESSION, protocol.ERR_INTERNAL})


@dataclass
class ReplayBuffer:
    """Checkpoint blob + acknowledged-op tail = a rebuildable session.

    The migrate-by-checkpoint primitive, shared by the client side
    (:class:`ResilientTraceClient`) and the cluster router's back side
    (:class:`repro.serve.cluster.ClusterRouter` failing a session over
    to another worker): hold the last *exported* digest-sealed
    checkpoint, log every acknowledged ``encode``/``decode`` op since,
    and rebuild the session anywhere by ``resume`` (or a fresh ``open``
    when nothing was ever exported) followed by :meth:`replay`.

    The replay **verifies**: deterministic FSMs must reproduce the
    original outputs bit-for-bit, so a divergence means the restored
    state is not the state we think it is — that is surfaced as
    ``resume_mismatch``, never papered over.
    """

    checkpoint: Optional[Dict[str, Any]] = None
    #: Acknowledged ops since the checkpoint: ``(op, inputs, outputs)``.
    tail: List[Tuple[str, List[int], List[int]]] = field(default_factory=list)

    @property
    def tail_ops(self) -> int:
        return len(self.tail)

    @property
    def tail_cycles(self) -> int:
        return sum(len(inputs) for _, inputs, _ in self.tail)

    def record(self, op: str, inputs: Sequence[int], outputs: Sequence[int]) -> None:
        """Log one acknowledged session op (``encode`` or ``decode``)."""
        assert op in ("encode", "decode"), f"unreplayable op {op!r}"
        self.tail.append((op, [int(v) for v in inputs], [int(v) for v in outputs]))

    def seal(self, exported: Dict[str, Any]) -> None:
        """Adopt a fresh exported checkpoint; the tail is now redundant."""
        self.checkpoint = exported
        self.tail.clear()

    def clear(self) -> None:
        """Forget everything (the session's history was invalidated)."""
        self.checkpoint = None
        self.tail.clear()

    async def replay(self, stream: EncodeStream) -> int:
        """Re-apply the tail to a freshly resumed/opened stream.

        Returns the number of cycles replayed.  Raises
        :class:`ProtocolError` (``resume_mismatch``) if any replayed
        op's outputs differ from the originally acknowledged ones.
        """
        replayed = 0
        for op, inputs, outputs in self.tail:
            if op == "encode":
                produced = await stream.feed(inputs)
            else:
                produced = await stream.decode(inputs)
            if [int(v) for v in produced] != outputs:
                raise ProtocolError(
                    protocol.ERR_RESUME_MISMATCH,
                    f"replayed {op} tail diverged from the original stream "
                    f"({replayed + len(inputs)} cycles after resume)",
                )
            replayed += len(inputs)
        if replayed:
            obs.inc("serve.client_replayed_cycles", replayed)
        return replayed


class ResilientTraceClient:
    """One logical encode stream that survives connection loss.

    Parameters
    ----------
    host, port:
        The server (or chaos proxy) to connect to.
    coder, width, policy:
        The stream's coder spec, bus width, and optional resilience
        policy — identical to :meth:`TraceClient.open_stream`.
    retry:
        The :class:`RetryPolicy` pacing recovery attempts per
        :meth:`feed` / :meth:`close` call.  Defaults to 8 attempts of
        jittered backoff with no overall deadline.
    breaker:
        Shared :class:`CircuitBreaker`; pass one instance to several
        clients to trip collectively against a dead server.
    checkpoint_every:
        Export a checkpoint every N fed chunks.  Smaller = shorter
        replays after a failure, more checkpoint traffic.
    binary:
        Negotiate binary bulk frames on every (re)connection.  The
        chunks go down the wire as raw word arrays; results are still
        returned as plain int lists, and a server that does not
        advertise ``binary_frames`` silently leaves the connection on
        JSON — resilience semantics are framing-independent.
    """

    def __init__(
        self,
        host: str,
        port: int,
        coder: str,
        width: int = 32,
        policy: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        binary: bool = False,
    ):
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.host = host
        self.port = port
        self.coder = coder
        self.width = width
        self.policy = policy
        self.retry = retry if retry is not None else RetryPolicy(
            attempts=8, base_backoff_s=0.02, max_backoff_s=0.5
        )
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            failure_threshold=8, reset_timeout_s=0.2
        )
        self.checkpoint_every = int(checkpoint_every)
        self.binary = bool(binary)
        self._client: Optional[TraceClient] = None
        self._stream: Optional[EncodeStream] = None
        self._buffer = ReplayBuffer()
        self._since_ckpt = 0
        #: Recovery telemetry (also mirrored to ``serve.client_*`` obs).
        self.resumes = 0
        self.reconnects = 0
        self.cycles = 0

    @property
    def session_id(self) -> Optional[int]:
        """The live server-side session id, or None between connections.

        Against a cluster router this is the *cluster* session id — the
        stable identity the soak uses to find which worker currently
        hosts the stream (and SIGKILL it).
        """
        return self._stream.session_id if self._stream is not None else None

    # -- lifecycle ----------------------------------------------------

    async def _teardown(self) -> None:
        client, self._client, self._stream = self._client, None, None
        if client is not None:
            try:
                await client.close()
            except (ConnectionError, OSError):  # pragma: no cover - defensive
                pass

    async def close(self) -> None:
        """Close the stream (best-effort) and the connection."""
        stream, client = self._stream, self._client
        if stream is not None and client is not None:
            try:
                # Bounded: a hostile network must never hang shutdown —
                # the server reaps the session with the connection.
                await asyncio.wait_for(stream.close(), timeout=2.0)
            except (ProtocolError, ConnectionError, OSError, asyncio.TimeoutError):
                pass
        await self._teardown()

    async def __aenter__(self) -> "ResilientTraceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- session establishment ----------------------------------------

    async def _ensure_session(self) -> EncodeStream:
        """Connect + open/resume + replay, transactionally.

        Any failure tears the connection down entirely, so a half-
        established session can never be fed: the server drops session
        state with the connection, and the next attempt starts clean.
        """
        if self._stream is not None:
            return self._stream
        client = await TraceClient.connect(self.host, self.port)
        try:
            if self.binary:
                # Re-negotiated on every reconnection: the replacement
                # server (post-failover) may or may not speak binary,
                # and either answer is fine.
                await client.negotiate_binary()
            if self._buffer.checkpoint is not None:
                stream = await client.resume_stream(
                    self._buffer.checkpoint, coder=self.coder, width=self.width
                )
                self.resumes += 1
                obs.inc("serve.client_resumes", coder=self.coder)
                log.info(
                    "session resumed",
                    extra=obs.fields(
                        coder=self.coder, cycles=stream.cycles, session=stream.session_id
                    ),
                )
            else:
                stream = await client.open_stream(
                    self.coder, self.width, policy=self.policy
                )
            # Replay what was fed after the checkpoint.  The FSMs are
            # deterministic, so the replay must reproduce the original
            # states bit-for-bit (ReplayBuffer verifies; a divergence
            # raises `resume_mismatch` rather than streaming on from
            # state we cannot trust).
            await self._buffer.replay(stream)
        except BaseException:
            await client.close()
            raise
        self._client, self._stream = client, stream
        return stream

    # -- the one public verb ------------------------------------------

    async def feed(self, values: Sequence[int]) -> List[int]:
        """Stream-encode one chunk, surviving transport faults.

        Returns the chunk's wire states — bit-identical to what an
        uninterrupted session would have produced, regardless of how
        many reconnect/resume/replay rounds happened underneath.
        """
        chunk = [int(v) for v in values]
        state = self.retry.start(key=self.cycles)
        while True:
            self.breaker.before_attempt()  # CircuitOpenError: fail fast
            state.begin_attempt()
            timeout = state.attempt_timeout()  # RetryBudgetExceeded: give up
            try:
                if timeout is None:
                    states = await self._feed_once(chunk)
                else:
                    states = await asyncio.wait_for(self._feed_once(chunk), timeout)
            except ProtocolError as exc:
                if exc.code == protocol.ERR_BUSY:
                    # Backpressure: the server is alive and never
                    # admitted the request; back off, don't trip the
                    # breaker, retry the same attempt loop.
                    self.breaker.record_success()
                    obs.inc("serve.client_backoffs")
                    last_error: BaseException = exc
                elif exc.code in _RESUMABLE_CODES:
                    # Session gone (reaped / server restart) or fenced
                    # (quarantine): the connection may be fine but the
                    # session is not — re-establish from checkpoint.
                    await self._teardown()
                    obs.inc("serve.client_session_lost", code=exc.code)
                    last_error = exc
                else:
                    raise  # contract violations are not retryable
            except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
                self.breaker.record_failure()
                self.reconnects += 1
                obs.inc("serve.client_reconnects", coder=self.coder)
                await self._teardown()
                last_error = exc
            else:
                self.breaker.record_success()
                self._buffer.record("encode", chunk, states)
                self.cycles += len(chunk)
                self._since_ckpt += 1
                if self._since_ckpt >= self.checkpoint_every:
                    await self._maybe_checkpoint()
                return [int(s) for s in states]
            if not state.more_attempts():
                raise last_error
            await asyncio.sleep(state.next_backoff())

    async def _feed_once(self, chunk: List[int]) -> List[int]:
        stream = await self._ensure_session()
        return await stream.feed(chunk)

    async def _maybe_checkpoint(self) -> None:
        """Export a checkpoint, best-effort.

        A failure here never fails the stream: the data chunks are
        already acknowledged, the old checkpoint + a longer tail still
        recover.  A transport failure does tear the connection down so
        the next :meth:`feed` re-establishes it.
        """
        stream = self._stream
        if stream is None:  # pragma: no cover - defensive
            return
        try:
            _, exported = await stream.checkpoint(export=True)
        except ProtocolError as exc:
            if exc.code == protocol.ERR_BUSY:
                return  # overloaded; try again after the next chunk
            await self._teardown()
            return
        except (asyncio.TimeoutError, ConnectionError, OSError):
            self.breaker.record_failure()
            await self._teardown()
            return
        self._buffer.seal(exported)
        self._since_ckpt = 0
        obs.inc("serve.client_checkpoints", coder=self.coder)
