"""Unit tests for the transport-free serving engine.

Everything here drives :class:`ServeEngine.handle` directly — no
sockets — which is the point of the engine/transport split: sessions,
micro-batching, backpressure, deadlines and desync recovery are all
testable as plain asyncio code.
"""

import asyncio

import numpy as np
import pytest

from repro.coding import WindowTranscoder, parse_coder_spec
from repro.serve import ServeEngine, protocol
from repro.serve.engine import MAX_CHUNK_CYCLES
from repro.traces import BusTrace
from repro.workloads import locality_trace


def req(op, request_id=1, **fields):
    return protocol.request(op, request_id, **fields)


def run(coro):
    return asyncio.run(coro)


async def started_engine(**kwargs):
    engine = ServeEngine(**kwargs)
    await engine.start()
    return engine


def admitting_engine(**kwargs):
    """An engine that admits requests but has no worker running yet.

    Queued jobs sit untouched until :meth:`ServeEngine.start` is
    called, which makes queue-full backpressure and deadline expiry
    deterministic to provoke (no racing against the batch worker).
    """
    engine = ServeEngine(**kwargs)
    engine._admitting = True
    return engine


class TestConstruction:
    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            ServeEngine(queue_limit=0)
        with pytest.raises(ValueError):
            ServeEngine(batch_limit=0)


class TestEnvelope:
    def test_version_and_op_errors_bypass_the_queue(self):
        async def scenario():
            engine = await started_engine()
            try:
                bad_version = await engine.handle(1, {"op": "hello", "id": 1})
                unknown_op = await engine.handle(1, req("hello") | {"op": "nope"})
                bad_id = await engine.handle(1, {"v": 2, "id": "x", "op": "hello"})
                return bad_version, unknown_op, bad_id
            finally:
                await engine.stop(0.1)

        bad_version, unknown_op, bad_id = run(scenario())
        assert bad_version["error"]["code"] == protocol.ERR_UNSUPPORTED_VERSION
        assert unknown_op["error"]["code"] == protocol.ERR_UNKNOWN_OP
        assert bad_id["error"]["code"] == protocol.ERR_BAD_REQUEST

    def test_hello_reports_capabilities(self):
        async def scenario():
            engine = await started_engine(queue_limit=5, batch_limit=3)
            try:
                return await engine.handle(1, req("hello"))
            finally:
                await engine.stop(0.1)

        response = run(scenario())
        assert response["ok"]
        assert response["protocol"] == protocol.PROTOCOL_VERSION
        assert "window" in response["coders"]
        assert response["queue_limit"] == 5
        assert response["batch_limit"] == 3


class TestSessions:
    def test_streamed_encode_matches_one_shot(self):
        trace = locality_trace(900, seed=5)

        async def scenario():
            engine = await started_engine()
            try:
                opened = await engine.handle(1, req("open", 1, coder="window8", width=32))
                session = opened["session"]
                states = []
                values = [int(v) for v in trace.values]
                for start in range(0, len(values), 137):
                    chunk = values[start : start + 137]
                    response = await engine.handle(
                        1, req("encode", 2, session=session, values=chunk)
                    )
                    assert response["ok"]
                    states.extend(response["states"])
                return opened, states
            finally:
                await engine.stop(0.1)

        opened, states = run(scenario())
        oneshot = WindowTranscoder(8, 32).encode_trace(trace)
        assert opened["input_width"] == 32
        assert opened["output_width"] == oneshot.width
        assert np.array_equal(np.array(states, dtype=np.uint64), oneshot.values)

    def test_decode_round_trips(self):
        trace = locality_trace(400, seed=9)
        wire = parse_coder_spec("fcm", trace.width).encode_trace(trace)

        async def scenario():
            engine = await started_engine()
            try:
                opened = await engine.handle(1, req("open", 1, coder="fcm", width=32))
                session = opened["session"]
                out = []
                states = [int(s) for s in wire.values]
                for start in range(0, len(states), 101):
                    response = await engine.handle(
                        1, req("decode", 2, session=session, states=states[start : start + 101])
                    )
                    assert response["ok"]
                    out.extend(response["values"])
                return out
            finally:
                await engine.stop(0.1)

        decoded = run(scenario())
        assert np.array_equal(np.array(decoded, dtype=np.uint64), trace.values)

    def test_checkpoint_restore_replays(self):
        values = [int(v) for v in locality_trace(300, seed=2).values]

        async def scenario():
            engine = await started_engine()
            try:
                opened = await engine.handle(1, req("open", 1, coder="stride4"))
                session = opened["session"]
                await engine.handle(1, req("encode", 2, session=session, values=values[:100]))
                ck = await engine.handle(1, req("checkpoint", 3, session=session))
                first = await engine.handle(
                    1, req("encode", 4, session=session, values=values[100:200])
                )
                restored = await engine.handle(
                    1, req("restore", 5, session=session, checkpoint=ck["checkpoint"])
                )
                again = await engine.handle(
                    1, req("encode", 6, session=session, values=values[100:200])
                )
                return ck, first, restored, again
            finally:
                await engine.stop(0.1)

        ck, first, restored, again = run(scenario())
        assert ck["ok"] and ck["cycles"] == 100
        assert restored["cycles"] == 100
        assert first["states"] == again["states"]
        assert first["cycles"] == again["cycles"] == 200

    def test_restore_unknown_checkpoint_is_bad_request(self):
        async def scenario():
            engine = await started_engine()
            try:
                opened = await engine.handle(1, req("open", 1, coder="window8"))
                return await engine.handle(
                    1, req("restore", 2, session=opened["session"], checkpoint=42)
                )
            finally:
                await engine.stop(0.1)

        response = run(scenario())
        assert response["error"]["code"] == protocol.ERR_BAD_REQUEST

    def test_sessions_are_connection_scoped(self):
        async def scenario():
            engine = await started_engine()
            try:
                opened = await engine.handle(1, req("open", 1, coder="window8"))
                stolen = await engine.handle(
                    2, req("encode", 2, session=opened["session"], values=[1])
                )
                mine = await engine.handle(
                    1, req("encode", 3, session=opened["session"], values=[1])
                )
                engine.drop_connection(1)
                gone = await engine.handle(
                    1, req("encode", 4, session=opened["session"], values=[1])
                )
                return stolen, mine, gone
            finally:
                await engine.stop(0.1)

        stolen, mine, gone = run(scenario())
        assert stolen["error"]["code"] == protocol.ERR_NO_SESSION
        assert mine["ok"]
        assert gone["error"]["code"] == protocol.ERR_NO_SESSION

    def test_close_releases_the_session(self):
        async def scenario():
            engine = await started_engine()
            try:
                opened = await engine.handle(1, req("open", 1, coder="last"))
                closed = await engine.handle(1, req("close", 2, session=opened["session"]))
                after = await engine.handle(
                    1, req("encode", 3, session=opened["session"], values=[1])
                )
                return closed, after
            finally:
                await engine.stop(0.1)

        closed, after = run(scenario())
        assert closed["ok"]
        assert after["error"]["code"] == protocol.ERR_NO_SESSION

    def test_open_validation_errors(self):
        async def scenario():
            engine = await started_engine()
            try:
                return (
                    await engine.handle(1, req("open", 1, coder="magic8")),
                    await engine.handle(1, req("open", 2, coder="window8", width=0)),
                    await engine.handle(
                        1, req("open", 3, coder="window8", policy="pray")
                    ),
                )
            finally:
                await engine.stop(0.1)

        unknown_coder, bad_width, bad_policy = run(scenario())
        for response in (unknown_coder, bad_width, bad_policy):
            assert response["error"]["code"] == protocol.ERR_BAD_REQUEST

    def test_oversized_chunk_is_rejected(self):
        async def scenario():
            engine = await started_engine()
            try:
                opened = await engine.handle(1, req("open", 1, coder="transition"))
                return await engine.handle(
                    1,
                    req(
                        "encode",
                        2,
                        session=opened["session"],
                        values=[0] * (MAX_CHUNK_CYCLES + 1),
                    ),
                )
            finally:
                await engine.stop(0.1)

        response = run(scenario())
        assert response["error"]["code"] == protocol.ERR_BAD_REQUEST


class TestDesyncRecovery:
    def test_flipped_wire_is_detected_and_recovered(self):
        trace = locality_trace(200, seed=4)

        async def scenario():
            engine = await started_engine()
            try:
                opened = await engine.handle(
                    1, req("open", 1, coder="window8", width=32, policy="reset-both")
                )
                session = opened["session"]
                assert opened["resilient"]
                values = [int(v) for v in trace.values]
                encoded = await engine.handle(
                    1, req("encode", 2, session=session, values=values[:51])
                )
                states = list(encoded["states"])
                states[50] ^= 1  # single-bit upset breaks the parity wire
                ok1 = await engine.handle(
                    1, req("decode", 3, session=session, states=states[:50])
                )
                hit = await engine.handle(
                    1, req("decode", 4, session=session, states=states[50:])
                )
                # reset-both recovery put BOTH server twins at power-on;
                # the stream resumes by re-encoding from the reset state
                # (the client-side NACK round, over the wire).
                resumed = await engine.handle(
                    1, req("encode", 5, session=session, values=values[51:])
                )
                tail = await engine.handle(
                    1, req("decode", 6, session=session, states=resumed["states"])
                )
                return ok1, hit, tail
            finally:
                await engine.stop(0.1)

        ok1, hit, tail = run(scenario())
        assert ok1["ok"] and "desyncs" not in ok1
        assert hit["ok"]
        assert hit["desyncs"] == [50]
        assert hit["recovered"] is True
        assert hit["reset"] is True
        # The clean prefix decoded exactly.
        assert np.array_equal(
            np.array(ok1["values"], dtype=np.uint64), trace.values[:50]
        )
        # And the re-synchronised stream decodes cleanly after recovery.
        assert "desyncs" not in tail
        assert np.array_equal(
            np.array(tail["values"], dtype=np.uint64), trace.values[51:]
        )


class TestBackpressure:
    def test_queue_full_sheds_oldest_deadline_first(self):
        async def scenario():
            engine = admitting_engine(queue_limit=4)
            try:
                # Fill the bounded queue; these futures stay pending
                # (no worker is consuming yet).
                waiters = [
                    asyncio.ensure_future(engine.handle(1, req("hello", i)))
                    for i in range(4)
                ]
                await asyncio.sleep(0)
                # Overflow: under shed-oldest-deadline-first the
                # *stalest* queued request is answered busy and the
                # fresh one is admitted in its place — new work keeps
                # flowing during overload, the about-to-expire request
                # pays for it.
                overflow = asyncio.ensure_future(engine.handle(1, req("hello", 100)))
                shed = await waiters[0]
                await engine.start()
                served = await asyncio.gather(*waiters[1:], overflow)
                return shed, served
            finally:
                await engine.stop(0.1)

        shed, served = run(scenario())
        assert shed["ok"] is False
        assert shed["error"]["code"] == protocol.ERR_BUSY
        assert all(r["ok"] for r in served)  # admitted work still completes

    def test_overflow_without_deadlines_sheds_stalest_enqueue(self):
        async def scenario():
            engine = admitting_engine(queue_limit=2, request_timeout_s=None)
            try:
                first = asyncio.ensure_future(engine.handle(1, req("hello", 1)))
                second = asyncio.ensure_future(engine.handle(1, req("hello", 2)))
                await asyncio.sleep(0)
                third = asyncio.ensure_future(engine.handle(1, req("hello", 3)))
                shed = await first
                await engine.start()
                served = await asyncio.gather(second, third)
                return shed, served
            finally:
                await engine.stop(0.1)

        shed, served = run(scenario())
        assert shed["error"]["code"] == protocol.ERR_BUSY
        assert all(r["ok"] for r in served)

    def test_not_admitting_after_stop_answers_shutdown(self):
        """A stopped engine will never admit again, so the rejection is
        `shutdown` (retry elsewhere), not `busy` (retry here later) —
        the cluster router keys crash/drain failover off this."""

        async def scenario():
            engine = await started_engine()
            await engine.stop(0.1)
            return await engine.handle(1, req("hello"))

        response = run(scenario())
        assert response["error"]["code"] == protocol.ERR_SHUTDOWN


class TestDeadlines:
    def test_expired_requests_are_answered_timeout(self):
        async def scenario():
            engine = admitting_engine(request_timeout_s=0.05)
            try:
                waiters = [
                    asyncio.ensure_future(engine.handle(1, req("hello", i)))
                    for i in range(3)
                ]
                await asyncio.sleep(0.12)  # let every deadline lapse
                await engine.start()
                return await asyncio.gather(*waiters)
            finally:
                await engine.stop(0.1)

        responses = run(scenario())
        assert all(r["ok"] is False for r in responses)
        assert all(r["error"]["code"] == protocol.ERR_TIMEOUT for r in responses)

    def test_no_timeout_when_disabled(self):
        async def scenario():
            engine = admitting_engine(request_timeout_s=None)
            try:
                waiter = asyncio.ensure_future(engine.handle(1, req("hello", 1)))
                await asyncio.sleep(0.05)
                await engine.start()
                return await waiter
            finally:
                await engine.stop(0.1)

        assert run(scenario())["ok"]


class TestOneShotBatching:
    def test_concurrent_encode_trace_requests_agree_with_library(self):
        trace = locality_trace(300, seed=6)
        values = [int(v) for v in trace.values]

        async def scenario():
            # Queue everything before the worker starts, so the five
            # requests land in one micro-batch sharing one coder.
            engine = admitting_engine(batch_limit=8)
            try:
                waiters = [
                    asyncio.ensure_future(
                        engine.handle(
                            1, req("encode_trace", i, coder="invert", width=32, values=values)
                        )
                    )
                    for i in range(5)
                ]
                await asyncio.sleep(0)
                await engine.start()
                return await asyncio.gather(*waiters)
            finally:
                await engine.stop(0.1)

        responses = run(scenario())
        oneshot = parse_coder_spec("invert", 32).encode_trace(
            BusTrace(np.array(values, dtype=np.uint64), 32)
        )
        expected = [int(s) for s in oneshot.values]
        for response in responses:
            assert response["ok"]
            assert response["states"] == expected


class TestSweeps:
    def test_sweep_is_an_unknown_op(self):
        """Savings cells are `repro run savings`, not a served op."""

        async def scenario():
            engine = await started_engine()
            try:
                return await engine.handle(
                    1, req("sweep", 1, workload="gcc", coder="window8", cycles=2500)
                )
            finally:
                await engine.stop(0.5)

        error = run(scenario())["error"]
        assert error["code"] == protocol.ERR_UNKNOWN_OP
        assert "encode_trace" in error["message"]  # lists the ops it speaks


class TestHealthOp:
    def test_health_reports_liveness_and_load(self):
        async def scenario():
            engine = await started_engine(queue_limit=5, batch_limit=2)
            try:
                return await engine.handle(1, req("health"))
            finally:
                await engine.stop(0.1)

        response = run(scenario())
        assert response["ok"] is True
        assert response["uptime_s"] >= 0.0
        assert response["sessions"] == 0
        assert response["admitting"] is True

    def test_health_rides_the_queue_so_a_wedged_worker_fails_it(self):
        """The supervisor's liveness probe must NOT bypass the batch
        worker: a paused (wedged) engine answers health only by its
        deadline lapsing, which is the wedge signal."""

        async def scenario():
            engine = await started_engine(request_timeout_s=0.05)
            try:
                engine.pause()
                probe = asyncio.ensure_future(engine.handle(1, req("health")))
                await asyncio.sleep(0.12)
                engine.resume()
                return await probe
            finally:
                await engine.stop(0.1)

        response = run(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.ERR_TIMEOUT


class TestShedTieBreaking:
    def test_equal_deadlines_shed_the_stalest_enqueue_first(self):
        """Deadlines tie when requests arrive inside one clock tick; the
        tie-break must be deterministic: the earliest-enqueued of the
        tied group is shed, never the fresh arrival."""

        async def scenario():
            engine = admitting_engine(queue_limit=3, request_timeout_s=None)
            try:
                # No per-request deadline: shed_key falls back to the
                # enqueue stamp, so ordering is purely arrival order.
                waiters = [
                    asyncio.ensure_future(engine.handle(1, req("hello", i)))
                    for i in range(3)
                ]
                await asyncio.sleep(0)
                overflow = [
                    asyncio.ensure_future(engine.handle(1, req("hello", 100 + i)))
                    for i in range(2)
                ]
                # Two overflows -> the two stalest queued requests are
                # shed, in arrival order.
                shed_first = await waiters[0]
                shed_second = await waiters[1]
                await engine.start()
                served = await asyncio.gather(waiters[2], *overflow)
                return shed_first, shed_second, served
            finally:
                await engine.stop(0.1)

        shed_first, shed_second, served = run(scenario())
        assert shed_first["error"]["code"] == protocol.ERR_BUSY
        assert shed_first["id"] == 0
        assert shed_second["error"]["code"] == protocol.ERR_BUSY
        assert shed_second["id"] == 1
        assert [r["id"] for r in served] == [2, 100, 101]
        assert all(r["ok"] for r in served)

    def test_incoming_request_loses_tie_only_if_strictly_older_exists(self):
        """When the incoming request itself has the soonest deadline it
        is the shed victim — admission is not a free pass."""

        async def scenario():
            engine = admitting_engine(queue_limit=2, request_timeout_s=None)
            try:
                first = asyncio.ensure_future(engine.handle(1, req("hello", 1)))
                second = asyncio.ensure_future(engine.handle(1, req("hello", 2)))
                await asyncio.sleep(0)
                # Artificially make the queued requests look fresher
                # than the incoming one, so the incoming loses.
                for job in engine._queue:
                    job.enqueued += 60.0
                    if job.deadline is not None:
                        job.deadline += 60.0
                shed = await engine.handle(1, req("hello", 3))
                await engine.start()
                served = await asyncio.gather(first, second)
                return shed, served
            finally:
                await engine.stop(0.1)

        shed, served = run(scenario())
        assert shed["error"]["code"] == protocol.ERR_BUSY
        assert shed["id"] == 3
        assert all(r["ok"] for r in served)
