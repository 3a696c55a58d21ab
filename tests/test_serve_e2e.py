"""End-to-end acceptance test for the trace-serving subsystem.

One in-process asyncio server, dozens of concurrent client sessions
over real TCP connections, mixing stateful multi-chunk streaming
encodes with stateless ``encode_trace`` one-shots; every served result
must be byte-identical to the one-shot library call, backpressure must be
observable when the bounded queue overflows, and the server's exported
telemetry must render through ``repro report``.
"""

import asyncio

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.coding import parse_coder_spec
from repro.serve import ProtocolError, TraceClient, TraceServer, protocol
from repro.workloads import locality_trace

#: The acceptance bar: at least 32 concurrent client sessions.
SESSIONS = 36

#: Coder specs cycled across the streaming sessions (stateful families
#: included, so FSM state genuinely crosses the chunk boundaries).
SPECS = ["window8", "fcm", "stride4", "transition", "invert", "last"]

CHUNK = 150  # 600-cycle traces → 4 chunks per session
CYCLES = 600


async def stream_session(host, port, index):
    """One streaming client: open, feed chunks, compare with one-shot.

    Uses the documented ``busy`` retry discipline (`call_with_retry`):
    a ``busy`` rejection means the request was never admitted, so
    resending a session chunk cannot double-advance the FSM.
    """
    spec = SPECS[index % len(SPECS)]
    trace = locality_trace(CYCLES, seed=100 + index)
    client = await TraceClient.connect(host, port)
    try:
        opened = await client.call_with_retry(
            "open", retries=9, backoff_s=0.02, coder=spec, width=32
        )
        session = opened["session"]
        states = []
        cycles = 0
        values = [int(v) for v in trace.values]
        for start in range(0, len(values), CHUNK):
            response = await client.call_with_retry(
                "encode",
                retries=9,
                backoff_s=0.02,
                session=session,
                values=values[start : start + CHUNK],
            )
            states.extend(response["states"])
            cycles = response["cycles"]
        assert cycles == len(values)
        await client.call_with_retry("close", retries=9, backoff_s=0.02, session=session)
    finally:
        await client.close()
    oneshot = parse_coder_spec(spec, 32).encode_trace(trace)
    assert np.array_equal(np.array(states, dtype=np.uint64), oneshot.values), (
        f"session {index} ({spec}): streamed states diverged from one-shot"
    )
    return "stream"


async def oneshot_session(host, port, index):
    """One stateless client: a whole trace as one ``encode_trace``."""
    spec = SPECS[index % len(SPECS)]
    trace = locality_trace(CYCLES, seed=100 + index)
    client = await TraceClient.connect(host, port)
    try:
        response = await client.call_with_retry(
            "encode_trace",
            retries=9,
            backoff_s=0.02,
            coder=spec,
            width=32,
            values=[int(v) for v in trace.values],
        )
    finally:
        await client.close()
    oneshot = parse_coder_spec(spec, 32).encode_trace(trace)
    assert np.array_equal(np.array(response["states"], dtype=np.uint64), oneshot.values), (
        f"one-shot {index} ({spec}): served states diverged from the library"
    )
    return "oneshot"


async def provoke_backpressure(host, port, engine):
    """Flood a paused engine past its queue bound; count ``busy``."""
    engine.pause()
    client = await TraceClient.connect(host, port)
    try:
        # One request may still be swallowed by the worker blocked in
        # queue.get(); everything beyond queue_limit past that must be
        # rejected immediately with the busy (HTTP-429 analogue) code.
        flood = [client.request("hello", ) for _ in range(engine.queue_limit * 3 + 4)]
        tasks = [asyncio.ensure_future(f) for f in flood]
        await asyncio.sleep(0.2)
        rejected = sum(
            1
            for t in tasks
            if t.done()
            and not t.result().get("ok")
            and t.result()["error"]["code"] == protocol.ERR_BUSY
        )
        engine.resume()
        responses = await asyncio.gather(*tasks)
        admitted_ok = sum(1 for r in responses if r.get("ok"))
        return rejected, admitted_ok
    finally:
        await client.close()


async def run_acceptance():
    async with TraceServer(
        port=0, queue_limit=16, batch_limit=8, request_timeout_s=60.0
    ) as server:
        host, port = server.host, server.port

        # Phase 1: >= 32 concurrent clients, streaming + one-shots mixed.
        tasks = []
        for i in range(SESSIONS):
            if i % 9 == 8:  # every ninth client is a stateless one-shot
                tasks.append(oneshot_session(host, port, i))
            else:
                tasks.append(stream_session(host, port, i))
        kinds = await asyncio.gather(*tasks)
        assert len(kinds) >= 32
        assert kinds.count("oneshot") >= 3 and kinds.count("stream") >= 29

        # Phase 2: overload the bounded queue, observe busy rejections.
        rejected, admitted_ok = await provoke_backpressure(host, port, server.engine)
        assert rejected >= 1, "queue overflow produced no busy rejections"
        assert admitted_ok >= 1  # admitted requests still completed

        # Phase 3: a client-level protocol error surfaces as ProtocolError.
        client = await TraceClient.connect(host, port)
        try:
            with pytest.raises(ProtocolError) as excinfo:
                await client.call("open", coder="no-such-coder")
            assert excinfo.value.code == protocol.ERR_BAD_REQUEST
        finally:
            await client.close()

    return rejected


class TestServeEndToEnd:
    def test_concurrent_sessions_backpressure_and_report(self, tmp_path, capsys):
        obs.reset()
        rejected = asyncio.run(run_acceptance())
        assert rejected >= 1

        # The server's telemetry renders through `repro report`:
        # request counters and the latency histogram must be visible.
        obs_dir = tmp_path / "serve-obs"
        obs.export_run(obs_dir=str(obs_dir))
        assert main(["report", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "serve.requests" in out
        assert "serve.request_s" in out
        assert "serve.rejected" in out
        assert "serve.batch_size" in out
