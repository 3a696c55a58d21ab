"""The wire protocol of the trace-serving frontend.

Two frame types share one connection; the first byte disambiguates.

**Newline-delimited JSON** (the universal fallback, and the only
framing for control ops):

* every **request** is one JSON object on one line:
  ``{"v": 1, "id": 7, "op": "encode", ...op fields...}``;
* every **response** echoes the request id:
  ``{"v": 1, "id": 7, "ok": true, ...result fields...}`` or
  ``{"v": 1, "id": 7, "ok": false,
  "error": {"code": "busy", "message": "..."}}``.

**Length-prefixed binary bulk frames** (negotiated, optional): the hot
ops move integer vectors — tens of thousands of bus words per chunk —
and ``json.dumps`` on every word is the measured single-core throughput
ceiling.  A binary bulk frame is the *same* message with its one bulk
field (``values`` or ``states``) lifted out of the JSON and carried as
a raw little-endian ``uint64`` word array:

====================  ==============================================
bytes                 meaning
====================  ==============================================
``[0]``               magic ``0xB5`` (a JSON frame always starts with
                      ``{`` or whitespace, so the first byte is
                      unambiguous)
``[1:5]``             ``H``: header length, ``<u32``
``[5:9]``             ``W``: payload word count, ``<u32``
``[9:13]``            CRC-32 of header+payload (``zlib.crc32``)
``[13:13+H]``         compact-JSON header: the message minus its bulk
                      field, plus ``"_bulk": "<field name>"``
``[13+H:13+H+8*W]``   the bulk field: ``W`` little-endian ``uint64``
                      words, ``np.frombuffer``-able with zero copies
====================  ==============================================

Rationale for JSON staying the default and the fallback: JSON carries
the integer payloads exactly at any width up to the library's 64-bit
ceiling, keeps the protocol inspectable with ``nc``/``socat`` and
trivially implementable from any language, and needs no negotiation.
The binary frame exists purely as a bulk fast path, under strict
fallback rules:

* **negotiated per connection**: a client sends binary frames only
  after a ``hello`` response advertising ``"binary_frames": true``
  (the capability rides the existing version handshake; ``v`` stays
  2 — a v2 peer that never negotiates never sees a binary frame);
* **bulk ops only**: exactly the ops in :data:`BULK_REQUEST_FIELDS`
  (``encode``/``decode``/``encode_trace``) may use it, and only for
  their designated bulk field; every control op (``open``, ``hello``,
  ``checkpoint``, ``resume``, ...) is always newline-JSON;
* **responses mirror the request**: a binary request gets its bulk
  response field (:data:`BULK_RESPONSE_FIELDS`) as a binary frame,
  a JSON request is always answered in JSON — so a non-negotiating
  client can never receive a frame it cannot parse;
* **corruption is loud**: the CRC-32 makes any in-flight corruption a
  deterministic ``bad-request`` decode error (raw word arrays have no
  syntax to trip over, so without the checksum a flipped payload bit
  would be *silent* data corruption — the one failure mode the chaos
  harness must never allow);
* **framing stays robust**: readers trust the length prefix only up to
  :data:`MAX_FRAME_BYTES`; an oversized or truncated binary frame is a
  connection-fatal framing error, exactly like an overlong line.

The protocol is versioned from day one: a request whose ``v`` is
missing or unknown is rejected with ``unsupported-version`` *before*
the op is interpreted, so the frame format can evolve without silent
misdecoding.

Requests may carry an optional ``trace`` field — ``{"id": <trace id>,
"parent": "<pid>:<span id>"}`` — propagating distributed trace context
across hops (client → router → worker).  It is *advisory* telemetry:
:func:`validate_request` never inspects it, peers that predate it (or
run with ``REPRO_OBS=0``) ignore it, and it never changes a response
byte.  Each receiving hop opens a span whose ``parent`` is the sender's
span ref, which ``repro trace-stitch`` merges into one cross-process
Chrome trace.

Error codes (the ``error.code`` field) are a closed, stable set — see
:data:`ERROR_CODES`.  ``busy`` is the backpressure signal (the HTTP-429
analogue): the server's bounded request queue was full (or the request
was shed under overload), the client should back off and retry.
``desync`` reports a detected encoder/decoder divergence on a resilient
session; whether the session recovered is carried in the response's
``recovered`` field.  ``shutdown`` answers requests the server had
admitted but abandoned while draining; ``stale_checkpoint`` and
``resume_mismatch`` are the session-resumption failure modes (see the
idempotency table below).

Idempotency and delivery semantics (the retry contract)
-------------------------------------------------------

A client that loses a connection (or times out an attempt) cannot know
whether the server executed the request.  Whether *resending* is safe
depends on the op — the table below is the contract
:meth:`repro.serve.client.TraceClient.call_with_retry` enforces and the
README's "Failure semantics" section documents:

===============  ===========  ==============================================
op               idempotent   why / what a blind resend does
===============  ===========  ==============================================
``hello``        yes          pure read of server capabilities
``health``       yes          pure read of liveness/load (the heartbeat op)
``telemetry``    yes          pure read of metrics/span state (live snapshot)
``encode_trace`` yes          stateless pure function of the request body
``open``         no           each call creates a fresh session (leaks state)
``encode``       no           advances the session encoder FSM (double-apply)
``decode``       no           advances the session decoder FSM (double-apply)
``checkpoint``   no           allocates a new checkpoint id per call
``restore``      no           rewinds the live FSM (racing resends reorder)
``resume``       no           each call materialises a new session
``close``        no           a resend can close a successor session's id
===============  ===========  ==============================================

Two consequences:

* **at-least-once** delivery is only offered for the idempotent ops —
  retrying them on transport errors or attempt timeouts is always safe;
* every other op is **at-most-once** per connection.  The recovery path
  for session ops is *not* resending: it is reconnect → ``resume`` from
  the last exported checkpoint → replay the tail, which turns the whole
  non-idempotent stream into an idempotent replay (the FSMs are
  deterministic, so the replayed states are bit-identical).  A ``busy``
  answer is special: the server rejected the request *before admitting
  it*, so resending after ``busy`` can never double-apply — ``busy`` is
  retryable for every op.

This module is pure data-plane: framing, validation and typed errors.
It owns no sockets and no sessions, which keeps it unit-testable and
shared verbatim by server and client.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import struct
import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "BINARY_MAGIC",
    "BINARY_PREFIX_BYTES",
    "BULK_KEY",
    "BULK_REQUEST_FIELDS",
    "BULK_RESPONSE_FIELDS",
    "ERROR_CODES",
    "ERR_BAD_REQUEST",
    "ERR_BUSY",
    "ERR_DESYNC",
    "ERR_INTERNAL",
    "ERR_NO_SESSION",
    "ERR_RESUME_MISMATCH",
    "ERR_SHUTDOWN",
    "ERR_STALE_CHECKPOINT",
    "ERR_TIMEOUT",
    "ERR_UNKNOWN_OP",
    "ERR_UNSUPPORTED_VERSION",
    "IDEMPOTENT_OPS",
    "KNOWN_OPS",
    "ProtocolError",
    "decode_any_frame",
    "decode_binary_frame",
    "decode_frame",
    "encode_binary_frame",
    "encode_frame",
    "error_response",
    "int_list_field",
    "is_binary_frame",
    "ok_response",
    "read_frame",
    "request",
    "response_bulk_field",
    "state_digest",
    "trace_context",
    "validate_request",
]

#: Bump on any incompatible change to the frame format or op semantics.
#: v2 added session resumption (the ``resume`` op, ``checkpoint`` with
#: ``export``) and the ``stale_checkpoint`` / ``resume_mismatch`` /
#: ``shutdown`` error codes.
PROTOCOL_VERSION = 2

#: Hard per-frame ceiling (also the server's StreamReader limit): a
#: 64 Ki-cycle chunk of 20-digit words is ~1.4 MB, so 8 MB leaves
#: comfortable headroom while bounding a malicious/buggy client.
#: Binary frames obey the same ceiling — ``readexactly`` bypasses the
#: StreamReader limit, so :func:`read_frame` enforces it on the
#: declared length *before* reading the body.
MAX_FRAME_BYTES = 8 * 1024 * 1024

# -- binary bulk framing (see the module docstring's wire table) ------

#: First byte of a binary bulk frame.  A JSON frame's first byte is
#: ``{`` (0x7B) or ASCII whitespace, never 0xB5.
BINARY_MAGIC = 0xB5

#: ``<BIII``: magic, header length, payload word count, CRC-32.
_BINARY_PREFIX = struct.Struct("<BIII")

#: Size of the fixed binary prefix (13 bytes).  Fault injectors must
#: never mutate these bytes: corrupting the length fields desyncs the
#: *framing* (the analogue of eating a newline), which is a different
#: failure class from corrupting the *content* (caught by the CRC).
BINARY_PREFIX_BYTES = _BINARY_PREFIX.size

#: Header key naming which message field rides as the raw payload.
BULK_KEY = "_bulk"

#: The only (op → request field) pairs allowed in binary frames.
BULK_REQUEST_FIELDS = {
    "encode": "values",
    "decode": "states",
    "encode_trace": "values",
}

#: The response bulk field mirrored back for each bulk op.
BULK_RESPONSE_FIELDS = {
    "encode": "states",
    "decode": "values",
    "encode_trace": "states",
}

# -- error codes (closed set; part of the protocol contract) ----------

ERR_BAD_REQUEST = "bad-request"  #: malformed frame or op fields
ERR_UNSUPPORTED_VERSION = "unsupported-version"  #: bad/missing ``v``
ERR_UNKNOWN_OP = "unknown-op"  #: ``op`` not in :data:`KNOWN_OPS`
ERR_NO_SESSION = "no-session"  #: session id unknown to this connection
ERR_BUSY = "busy"  #: bounded queue full — back off and retry (HTTP 429)
ERR_TIMEOUT = "timeout"  #: request exceeded the server's deadline
ERR_DESYNC = "desync"  #: resilient session detected FSM divergence
ERR_INTERNAL = "internal"  #: unexpected server-side failure
ERR_SHUTDOWN = "shutdown"  #: server is draining — the request was NOT
#: applied (rejected at the door or abandoned pre-apply); retry elsewhere
ERR_STALE_CHECKPOINT = "stale_checkpoint"  #: exported state unusable
#: (wrong format/protocol, or the integrity digest does not verify)
ERR_RESUME_MISMATCH = "resume_mismatch"  #: well-formed state disagrees
#: with the requested coder spec / width / policy (or the FSM refuses it)

ERROR_CODES = (
    ERR_BAD_REQUEST,
    ERR_UNSUPPORTED_VERSION,
    ERR_UNKNOWN_OP,
    ERR_NO_SESSION,
    ERR_BUSY,
    ERR_TIMEOUT,
    ERR_DESYNC,
    ERR_INTERNAL,
    ERR_SHUTDOWN,
    ERR_STALE_CHECKPOINT,
    ERR_RESUME_MISMATCH,
)

#: The operations of protocol version 2.
KNOWN_OPS = (
    "hello",  # server identification + capabilities
    "health",  # liveness + load snapshot (the supervisor's heartbeat op;
    #            deliberately cheap so a wedged engine fails it loudly)
    "open",  # create a per-connection streaming session
    "encode",  # advance a session's encoder FSM by one chunk
    "decode",  # advance a session's decoder FSM by one chunk
    "checkpoint",  # snapshot a session's FSM state server-side
    #                (``export: true`` additionally returns the state
    #                 as a portable, digest-sealed wire blob)
    "restore",  # rewind a session to a named checkpoint
    "resume",  # materialise a NEW session from an exported checkpoint
    #            blob (the reconnect path: connection loss killed the
    #            old session; resume restores its FSMs bit-exactly)
    "close",  # drop a session (and its checkpoints)
    "encode_trace",  # one-shot stateless encode (micro-batched)
    "telemetry",  # live metrics snapshot + span delta + load gauges
    #               (read-only; the cluster router fans it out to every
    #                worker and merges the snapshots — `repro top` rides it)
)

#: Ops that are safe to blindly resend after an *ambiguous* failure
#: (transport error or attempt timeout) — see the idempotency table in
#: the module docstring.  ``busy`` rejections are retryable for every
#: op regardless, because the server never admitted the request.
IDEMPOTENT_OPS = frozenset({"hello", "health", "telemetry", "encode_trace"})


def trace_context(message: Dict[str, Any]) -> Tuple[str, str]:
    """Extract ``(trace_id, parent_ref)`` from a request's ``trace`` field.

    Tolerant by design — the field is advisory telemetry, so anything
    missing or malformed degrades to ``("", "")`` rather than an error
    (a broken trace header must never fail a request).
    """
    trace = message.get("trace")
    if not isinstance(trace, dict):
        return "", ""
    trace_id = trace.get("id")
    parent = trace.get("parent")
    return (
        trace_id if isinstance(trace_id, str) else "",
        parent if isinstance(parent, str) else "",
    )


class ProtocolError(ValueError):
    """A typed protocol violation; carries the wire ``error.code``.

    Subclasses ``ValueError`` so the CLI's existing error funnel turns
    client-side protocol failures into the one-line ``repro: error:``
    contract without new plumbing.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.code}] {self.args[0]}"


# -- framing ----------------------------------------------------------


def _jsonable(value: Any) -> Any:
    """JSON fallback for numpy payloads reaching a JSON frame.

    A message built for the binary path may fall back to JSON (peer did
    not negotiate, or the op errored before the bulk field was used);
    word arrays then serialise as plain integer lists, bit-identically.
    """
    if isinstance(value, np.ndarray):
        return [int(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"{type(value).__name__} is not JSON-serialisable")


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Serialise one message as a compact JSON line (trailing ``\\n``)."""
    return (
        json.dumps(
            message, separators=(",", ":"), ensure_ascii=True, default=_jsonable
        )
        + "\n"
    ).encode("ascii")


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a message dict.

    Raises :class:`ProtocolError` (``bad-request``) on anything that is
    not a single JSON object.
    """
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            ERR_BAD_REQUEST, f"frame of {len(line)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(ERR_BAD_REQUEST, f"undecodable frame: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            ERR_BAD_REQUEST, f"frame must be a JSON object, got {type(message).__name__}"
        )
    return message


def is_binary_frame(raw: bytes) -> bool:
    """True iff ``raw`` starts with the binary bulk frame magic byte."""
    return len(raw) > 0 and raw[0] == BINARY_MAGIC


def encode_binary_frame(
    message: Dict[str, Any],
    bulk_field: str,
    words: Union[Sequence[int], np.ndarray],
) -> bytes:
    """Serialise one message as a binary bulk frame.

    ``words`` becomes the raw little-endian ``uint64`` payload; the rest
    of ``message`` (any existing ``bulk_field`` entry excluded) becomes
    the JSON header, tagged with ``BULK_KEY`` so the decoder knows which
    field to rehydrate.
    """
    arr = np.ascontiguousarray(np.asarray(words, dtype=np.uint64))
    if arr.ndim != 1:
        raise ProtocolError(
            ERR_BAD_REQUEST, f"bulk payload must be 1-D, got shape {arr.shape}"
        )
    payload = arr.astype("<u8", copy=False).tobytes()
    header = {k: v for k, v in message.items() if k != bulk_field}
    header[BULK_KEY] = bulk_field
    header_bytes = json.dumps(
        header, separators=(",", ":"), ensure_ascii=True, default=_jsonable
    ).encode("ascii")
    total = BINARY_PREFIX_BYTES + len(header_bytes) + len(payload)
    if total > MAX_FRAME_BYTES:
        raise ProtocolError(
            ERR_BAD_REQUEST, f"frame of {total} bytes exceeds {MAX_FRAME_BYTES}"
        )
    crc = zlib.crc32(payload, zlib.crc32(header_bytes))
    prefix = _BINARY_PREFIX.pack(BINARY_MAGIC, len(header_bytes), len(arr), crc)
    return prefix + header_bytes + payload


def decode_binary_frame(raw: bytes) -> Dict[str, Any]:
    """Parse a binary bulk frame into a message dict.

    The bulk field comes back as a read-only 1-D ``uint64`` ndarray
    viewing the frame's payload bytes directly (``np.frombuffer`` —
    zero copies).  The ``BULK_KEY`` marker is kept in the message so
    transport layers can tell the request arrived binary.

    Raises :class:`ProtocolError` (``bad-request``) on bad magic, bad
    lengths, CRC mismatch, or an undecodable header.
    """
    if len(raw) > MAX_FRAME_BYTES:
        raise ProtocolError(
            ERR_BAD_REQUEST, f"frame of {len(raw)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    if len(raw) < BINARY_PREFIX_BYTES:
        raise ProtocolError(
            ERR_BAD_REQUEST, f"binary frame truncated at {len(raw)} bytes"
        )
    magic, header_len, word_count, crc = _BINARY_PREFIX.unpack_from(raw)
    if magic != BINARY_MAGIC:
        raise ProtocolError(ERR_BAD_REQUEST, f"bad binary frame magic {magic:#x}")
    expected = BINARY_PREFIX_BYTES + header_len + 8 * word_count
    if len(raw) != expected:
        raise ProtocolError(
            ERR_BAD_REQUEST,
            f"binary frame is {len(raw)} bytes but declares {expected}",
        )
    if zlib.crc32(raw[BINARY_PREFIX_BYTES:]) != crc:
        raise ProtocolError(
            ERR_BAD_REQUEST, "binary frame failed its CRC-32 (corrupted in flight)"
        )
    header_end = BINARY_PREFIX_BYTES + header_len
    try:
        message = json.loads(raw[BINARY_PREFIX_BYTES:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(
            ERR_BAD_REQUEST, f"undecodable binary frame header: {exc}"
        ) from None
    if not isinstance(message, dict):
        raise ProtocolError(
            ERR_BAD_REQUEST,
            f"binary frame header must be a JSON object, got {type(message).__name__}",
        )
    bulk_field = message.get(BULK_KEY)
    if not isinstance(bulk_field, str) or not bulk_field:
        raise ProtocolError(
            ERR_BAD_REQUEST, f"binary frame header lacks a {BULK_KEY!r} field name"
        )
    message[bulk_field] = np.frombuffer(raw, dtype="<u8", count=word_count, offset=header_end)
    return message


def decode_any_frame(raw: bytes) -> Dict[str, Any]:
    """Parse a received frame of either framing (dispatch on byte 0)."""
    if is_binary_frame(raw):
        return decode_binary_frame(raw)
    return decode_frame(raw)


def response_bulk_field(message: Dict[str, Any]) -> Optional[str]:
    """The response field that may ride binary, given a *request* dict."""
    return BULK_RESPONSE_FIELDS.get(message.get("op"))  # type: ignore[arg-type]


async def read_frame(reader: asyncio.StreamReader) -> bytes:
    """Read one frame of either framing from a stream.

    Returns the raw frame bytes (newline included for JSON frames), or
    ``b""`` at EOF on a frame boundary.  Binary frames are reassembled
    with ``readexactly`` — the payload may legally contain ``0x0A``
    bytes, so ``readline`` alone would mis-split them.  Raises
    :class:`ProtocolError` on an oversized or mid-frame-truncated
    binary frame (framing is lost; callers must drop the connection),
    and lets ``readline``'s ``LimitOverrunError`` propagate for
    overlong JSON lines, as before.
    """
    try:
        first = await reader.readexactly(1)
    except asyncio.IncompleteReadError:
        return b""
    if first[0] != BINARY_MAGIC:
        if first == b"\n":  # blank keep-alive line
            return first
        return first + await reader.readline()
    rest = await reader.readexactly(BINARY_PREFIX_BYTES - 1)
    _, header_len, word_count, _ = _BINARY_PREFIX.unpack(first + rest)
    body_len = header_len + 8 * word_count
    if BINARY_PREFIX_BYTES + body_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            ERR_BAD_REQUEST,
            f"binary frame declares {BINARY_PREFIX_BYTES + body_len} bytes, "
            f"exceeding {MAX_FRAME_BYTES}",
        )
    try:
        body = await reader.readexactly(body_len)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            ERR_BAD_REQUEST,
            f"binary frame truncated mid-body ({len(exc.partial)}/{body_len} bytes)",
        ) from None
    return first + rest + body


# -- message constructors ---------------------------------------------


def request(op: str, request_id: int, **fields: Any) -> Dict[str, Any]:
    """Build a version-tagged request message."""
    message = {"v": PROTOCOL_VERSION, "id": request_id, "op": op}
    message.update(fields)
    return message


def ok_response(request_id: Optional[int], **fields: Any) -> Dict[str, Any]:
    """Build a success response echoing ``request_id``."""
    message: Dict[str, Any] = {"v": PROTOCOL_VERSION, "id": request_id, "ok": True}
    message.update(fields)
    return message


def error_response(
    request_id: Optional[int], code: str, message: str, **fields: Any
) -> Dict[str, Any]:
    """Build an error response; ``code`` must be one of :data:`ERROR_CODES`."""
    assert code in ERROR_CODES, f"unregistered error code {code!r}"
    body: Dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }
    body.update(fields)
    return body


# -- validation -------------------------------------------------------


def validate_request(message: Dict[str, Any]) -> Tuple[str, int]:
    """Check version/id/op envelope; returns ``(op, request_id)``.

    Raises :class:`ProtocolError` with the precise error code, version
    first (an incompatible peer must learn that before anything else).
    """
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            ERR_UNSUPPORTED_VERSION,
            f"protocol version {version!r} not supported; this end speaks "
            f"{PROTOCOL_VERSION}",
        )
    request_id = message.get("id")
    if not isinstance(request_id, int) or isinstance(request_id, bool):
        raise ProtocolError(ERR_BAD_REQUEST, f"request id must be an int, got {request_id!r}")
    op = message.get("op")
    if not isinstance(op, str):
        raise ProtocolError(ERR_BAD_REQUEST, "request has no 'op' field")
    if op not in KNOWN_OPS:
        raise ProtocolError(
            ERR_UNKNOWN_OP, f"unknown op {op!r}; this server speaks {', '.join(KNOWN_OPS)}"
        )
    return op, request_id


def state_digest(state: Dict[str, Any]) -> str:
    """Integrity digest over an exported-checkpoint body.

    SHA-256 over the canonical (sorted-key, compact) JSON of ``state``
    with any existing ``digest`` field removed.  Both ends compute it
    the same way: the server seals exported checkpoints with it, and a
    ``resume`` whose blob does not verify is answered
    ``stale_checkpoint`` — a truncated or bit-flipped checkpoint must
    never be restored into live FSMs.
    """
    body = {k: v for k, v in state.items() if k != "digest"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def int_list_field(
    message: Dict[str, Any], key: str
) -> Union[List[int], np.ndarray]:
    """Extract a required bulk field (bus words / wire states).

    JSON frames deliver a list of ints, validated element-wise; binary
    frames deliver a ready 1-D ``uint64`` ndarray, which is passed
    through untouched (the dtype already guarantees non-negative
    64-bit integers, so per-element checks would only burn the cycles
    the binary path exists to save).
    """
    values = message.get(key)
    if isinstance(values, np.ndarray):
        if values.ndim != 1 or values.dtype != np.uint64:
            raise ProtocolError(
                ERR_BAD_REQUEST, f"{key!r} must be a 1-D uint64 array"
            )
        return values
    if not isinstance(values, list):
        raise ProtocolError(ERR_BAD_REQUEST, f"{key!r} must be a list of integers")
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ProtocolError(
                ERR_BAD_REQUEST, f"{key!r} must contain non-negative integers, got {v!r}"
            )
    return values
