"""The cluster telemetry plane: tracing, telemetry op, top, flight.

Covers the four observability contracts the serving stack now makes:

* **trace-context propagation** — hop spans carry ``trace_id`` and the
  ``"pid:span_id"`` parent ref across client → router → engine, survive
  fork-merge, and stitch into one cross-process Chrome trace with flow
  arrows (``repro trace-stitch``);
* **live ``telemetry`` op** — read-only, idempotent, fans out across a
  cluster and merges; with ``REPRO_OBS=0`` it answers an *empty*
  snapshot (never an error) and serving stays byte-identical;
* **``repro top``** — the summary document behind ``--once --json``
  (schema pinned here, asserted by CI against the live soak cluster);
* **flight recorder** — an eager crash-durable journal plus a bounded
  ring, dumped on drain/quarantine and left behind by SIGKILL
  (chaos-marked end-to-end check).
"""

import asyncio
import json
import os
import queue
import signal
import threading

import numpy as np
import pytest

from repro import cli, obs
from repro.coding import parse_coder_spec
from repro.obs.export import read_jsonl
from repro.obs.flight import FLIGHT_FILENAME, FlightRecorder
from repro.obs.stitch import collect_span_files, stitch_run, stitched_chrome_trace
from repro.serve import ServeEngine, protocol
from repro.serve.cluster import TraceCluster
from repro.serve.client import TraceClient
from repro.serve.server import TraceServer
from repro.serve.telemetry import render_top, summarize_telemetry
from repro.workloads import locality_trace


def run(coro):
    return asyncio.run(coro)


def req(op, request_id=1, **fields):
    return protocol.request(op, request_id, **fields)


@pytest.fixture()
def obs_on():
    previous = obs.set_enabled(True)
    obs.reset()
    yield
    obs.reset()
    obs.set_enabled(previous)


@pytest.fixture()
def obs_off():
    previous = obs.set_enabled(False)
    obs.reset()
    yield
    obs.reset()
    obs.set_enabled(previous)


# -- trace-context primitives --------------------------------------------


class TestTraceContext:
    def test_extractor_tolerates_everything(self):
        assert protocol.trace_context({}) == ("", "")
        assert protocol.trace_context({"trace": None}) == ("", "")
        assert protocol.trace_context({"trace": "junk"}) == ("", "")
        assert protocol.trace_context({"trace": {"id": 7}}) == ("", "")
        message = {"trace": {"id": "abc123", "parent": "42:9"}}
        assert protocol.trace_context(message) == ("abc123", "42:9")

    def test_trace_field_is_wire_compatible(self):
        message = req("hello")
        message["trace"] = {"id": "deadbeef", "parent": "1:2"}
        op, request_id = protocol.validate_request(message)
        assert (op, request_id) == ("hello", 1)

    def test_hop_span_is_detached_and_carries_context(self, obs_on):
        tid = obs.new_trace_id()
        with obs.span("outer"):
            with obs.hop_span("router.request", trace_id=tid, parent="9:9", op="encode") as hop:
                ref = hop.ref
        records = {r.name: r for r in obs.get_tracer().records()}
        hop_record = records["router.request"]
        assert hop_record.trace_id == tid
        assert hop_record.parent == "9:9"
        # Detached: no stack linkage to `outer`, despite lexical nesting.
        assert hop_record.parent_id == 0 and hop_record.depth == 0
        assert ref == f"{os.getpid()}:{hop_record.span_id}"

    def test_disabled_hop_span_leaks_nothing(self, obs_off):
        hop = obs.hop_span("client.request", trace_id="x", parent="1:1")
        assert hop is obs.NO_SPAN
        assert hop.ref == "" and hop.trace_id == ""

    def test_fork_merge_preserves_trace_ids(self, obs_on):
        baseline = obs.fork_snapshot()
        tid = obs.new_trace_id()
        with obs.hop_span("engine.request", trace_id=tid, parent="123:45", op="encode"):
            pass
        delta = obs.fork_delta(baseline)
        obs.reset()
        obs.merge_child(delta)
        records = obs.get_tracer().records()
        assert [r.trace_id for r in records] == [tid]
        assert records[0].parent == "123:45"
        exported = obs.span_jsonl_records(records)[0]
        assert exported["trace_id"] == tid and exported["parent"] == "123:45"


# -- stitching -----------------------------------------------------------


def _write_spans(directory, records):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "spans.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return path


def _span(name, pid, span_id, ts, trace_id="", parent=""):
    return {
        "type": "span",
        "name": name,
        "ts": ts,
        "dur": 0.001,
        "pid": pid,
        "tid": 1,
        "span_id": span_id,
        "parent_id": 0,
        "depth": 0,
        "attrs": {},
        "trace_id": trace_id,
        "parent": parent,
    }


class TestStitch:
    def test_flow_arrows_cross_processes(self, tmp_path):
        tid = "aa" * 8
        router = _write_spans(
            tmp_path / "router",
            [_span("router.request", pid=100, span_id=1, ts=1.0, trace_id=tid)],
        )
        _write_spans(
            tmp_path / "worker-w0-gen1",
            [
                _span(
                    "engine.request",
                    pid=200,
                    span_id=5,
                    ts=1.0005,
                    trace_id=tid,
                    parent="100:1",
                )
            ],
        )
        files = collect_span_files([str(tmp_path)])
        assert len(files) == 2 and router in files
        out = str(tmp_path / "stitched.json")
        result = stitch_run([str(tmp_path)], out)
        assert result["spans"] == 2 and result["flows"] == 1
        document = json.load(open(out))
        events = document["traceEvents"]
        # One s/f flow pair, named by the trace id, crossing pids.
        start = next(e for e in events if e.get("ph") == "s")
        finish = next(e for e in events if e.get("ph") == "f")
        assert start["name"] == finish["name"] == tid
        assert start["pid"] == 100 and finish["pid"] == 200
        assert finish["bp"] == "e"
        # Process rows are labelled by their export directory.
        labels = {
            e["pid"]: e["args"]["name"] for e in events if e.get("ph") == "M"
        }
        assert labels == {100: "router", 200: "worker-w0-gen1"}

    def test_unresolvable_parent_is_tolerated(self, tmp_path):
        # The parent process was SIGKILLed before exporting: no flow,
        # no crash.
        _write_spans(
            tmp_path / "worker",
            [_span("engine.request", 300, 1, 2.0, "bb" * 8, parent="999:1")],
        )
        document = stitched_chrome_trace(
            __import__("repro.obs.stitch", fromlist=["load_span_sources"]).load_span_sources(
                collect_span_files([str(tmp_path)])
            )
        )
        assert document["otherData"] == {"flows": 0, "spans": 1}

    def test_missing_input_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_span_files([str(tmp_path / "nope")])
        with pytest.raises(FileNotFoundError):
            stitch_run([str(tmp_path)], str(tmp_path / "out.json"))


# -- the telemetry op ----------------------------------------------------


class TestTelemetryOp:
    def test_is_known_and_idempotent(self):
        assert "telemetry" in protocol.KNOWN_OPS
        assert "telemetry" in protocol.IDEMPOTENT_OPS

    def test_engine_snapshot_and_gauges(self, obs_on):
        async def scenario():
            engine = ServeEngine()
            await engine.start()
            try:
                opened = await engine.handle(1, req("open", 1, coder="window8", width=16))
                await engine.handle(
                    1,
                    req("encode", 2, session=opened["session"], values=[1, 2, 3]),
                )
                return await engine.handle(1, req("telemetry", 3))
            finally:
                await engine.stop(0.5)

        response = run(scenario())
        assert response["ok"] and response["enabled"]
        counters = response["metrics"]["counters"]
        assert counters.get("serve.requests{op=encode}") == 1
        gauges = response["gauges"]
        assert gauges["sessions"] == 1
        assert gauges["queue_limit"] == 64 and gauges["admitting"]
        assert response["spans"]["dropped"] == 0

    def test_bad_span_limit_is_rejected(self, obs_on):
        async def scenario():
            engine = ServeEngine()
            await engine.start()
            try:
                return await engine.handle(1, req("telemetry", 1, span_limit="all"))
            finally:
                await engine.stop(0.5)

        response = run(scenario())
        assert response["error"]["code"] == protocol.ERR_BAD_REQUEST

    def test_disabled_obs_answers_empty_not_error(self, obs_off):
        async def scenario():
            engine = ServeEngine()
            await engine.start()
            try:
                return await engine.handle(1, req("telemetry", 1))
            finally:
                await engine.stop(0.5)

        response = run(scenario())
        assert response["ok"] and not response["enabled"]
        assert response["metrics"] == {"counters": {}, "gauges": {}, "hists": {}}
        assert response["spans"] == {"total": 0, "dropped": 0, "recent": []}
        # The load gauges are engine fields, live either way.
        assert response["gauges"]["queue_depth"] == 0

    def test_health_reports_load_gauges(self, obs_on):
        async def scenario():
            engine = ServeEngine(queue_limit=9, batch_limit=3)
            await engine.start()
            try:
                return await engine.handle(1, req("health", 1))
            finally:
                await engine.stop(0.5)

        response = run(scenario())
        assert response["ok"]
        for key in (
            "queue_depth",
            "sessions",
            "outstanding",
            "batch_occupancy",
            "last_batch_size",
            "admitting",
        ):
            assert key in response
        assert response["queue_limit"] == 9 and response["batch_limit"] == 3


class TestClusterTelemetry:
    def test_fans_out_and_merges(self, obs_on):
        async def scenario():
            async with TraceCluster(workers=2, port=0) as cluster:
                client = await TraceClient.connect("127.0.0.1", cluster.port)
                try:
                    stream = await client.open_stream("window8", width=16)
                    await stream.feed([1, 2, 3, 4])
                    return await client.request("telemetry")
                finally:
                    await client.close()

        response = run(scenario())
        assert response["ok"] and response["enabled"]
        workers = response["workers"]
        assert sorted(workers) == ["w0", "w1"]
        for entry in workers.values():
            assert entry["alive"] and entry["breaker"] == "closed"
            assert entry["telemetry"]["enabled"]
            assert "queue_depth" in entry["telemetry"]["gauges"]
        merged = response["metrics"]["counters"]
        # Worker-side serving counters and router-side counters land in
        # the one merged snapshot.
        assert merged.get("serve.requests{op=encode}", 0) >= 1
        assert any(key.startswith("cluster.ops_forwarded") for key in merged)
        assert response["gauges"]["workers_live"] == 2

    def test_trace_spans_cross_all_three_hops(self, obs_on):
        async def scenario():
            async with TraceCluster(workers=2, port=0) as cluster:
                client = await TraceClient.connect("127.0.0.1", cluster.port)
                try:
                    stream = await client.open_stream("window8", width=16)
                    await stream.feed([1, 2, 3, 4])
                    return await client.request("telemetry", span_limit=64)
                finally:
                    await client.close()

        response = run(scenario())
        # The router's own spans: client.request was opened by *our*
        # TraceClient (this process), router.request by the router (also
        # this process); engine.request lives in the workers' tracers.
        own = {r.name for r in obs.get_tracer().records()}
        assert "client.request" in own and "router.request" in own
        router_records = [
            r
            for r in obs.get_tracer().records()
            if r.name == "router.request" and r.trace_id
        ]
        assert router_records, "router spans must carry a trace id"
        worker_spans = [
            span
            for entry in response["workers"].values()
            for span in entry["telemetry"]["spans"]["recent"]
            if span["name"] == "engine.request"
        ]
        assert worker_spans, "workers must record engine.request hop spans"
        # Every engine span parents onto a router span ref (same trace).
        router_refs = {
            f"{r.pid}:{r.span_id}": r.trace_id for r in router_records
        }
        linked = [s for s in worker_spans if s["parent"] in router_refs]
        assert linked, "engine spans must parent onto router span refs"
        assert all(
            s["trace_id"] == router_refs[s["parent"]] for s in linked
        )

    def test_disabled_obs_serving_is_byte_identical(self, obs_off, monkeypatch):
        # The router runs in this process (obs_off fixture); the worker
        # subprocesses inherit the environment, so dark them too.
        monkeypatch.setenv("REPRO_OBS", "0")
        trace = locality_trace(64, width=16, seed=3)
        values = [int(v) for v in trace.values]

        async def scenario():
            async with TraceCluster(workers=2, port=0) as cluster:
                client = await TraceClient.connect("127.0.0.1", cluster.port)
                try:
                    stream = await client.open_stream("window8", width=16)
                    states = []
                    for lo in range(0, len(values), 16):
                        states.extend(await stream.feed(values[lo : lo + 16]))
                        # Interleave telemetry probes with the stream:
                        # read-only means they must not perturb serving.
                        telemetry = await client.request("telemetry")
                        assert telemetry["ok"] and not telemetry["enabled"]
                        assert telemetry["metrics"] == {}
                    return states
                finally:
                    await client.close()

        states = run(scenario())
        coder = parse_coder_spec("window8", 16)
        expected = coder.encode_trace(trace)
        assert np.array_equal(
            np.asarray(states, dtype=np.uint64), expected.values
        )


# -- repro top -----------------------------------------------------------


class TestTop:
    def test_summary_schema_from_cli_json(self, obs_on, capsys):
        started: "queue.Queue[int]" = queue.Queue()
        stop = threading.Event()

        def serve():
            async def main():
                server = TraceServer(port=0)
                await server.start()
                started.put(server.port)
                while not stop.is_set():
                    await asyncio.sleep(0.02)
                await server.stop(1.0)

            asyncio.run(main())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        port = started.get(timeout=10)
        try:
            code = cli.main(
                ["top", "--once", "--json", "--port", str(port), "-q"]
            )
        finally:
            stop.set()
            thread.join(timeout=10)
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {
            "enabled",
            "gauges",
            "ops",
            "workers",
            "spans_dropped",
        }
        assert isinstance(document["ops"], list)
        assert isinstance(document["workers"], list)
        for key in ("uptime_s", "queue_depth", "sessions", "admitting"):
            assert key in document["gauges"]

    def test_summarize_red_rows(self):
        hist = {
            "count": 2,
            "sum": 0.3,
            "min": 0.1,
            "max": 0.2,
            "buckets": [0] * 32,
        }
        hist["buckets"][17] = 2  # ~0.1-0.25s bucket of the log2 ladder
        response = {
            "ok": True,
            "enabled": True,
            "metrics": {
                "counters": {
                    "serve.requests{op=encode}": 10,
                    "serve.request_errors{code=busy, op=encode}": 1,
                },
                "gauges": {},
                "hists": {"serve.request_s{op=encode}": hist},
            },
            "gauges": {"uptime_s": 5.0},
            "workers": {
                "w0": {
                    "alive": True,
                    "generation": 2,
                    "breaker": "closed",
                    "flight_dump": "/tmp/f.jsonl",
                    "telemetry": {
                        "enabled": True,
                        "gauges": {"queue_depth": 3, "sessions": 1},
                        "spans": {"total": 5, "dropped": 4, "recent": []},
                    },
                }
            },
        }
        summary = summarize_telemetry(response)
        (row,) = summary["ops"]
        assert row["op"] == "encode"
        assert row["requests"] == 10 and row["errors"] == 1
        assert row["error_pct"] == 10.0
        assert row["rate_rps"] == 2.0  # lifetime mean: 10 / 5s
        assert 100.0 <= row["p50_ms"] <= 200.0
        (worker,) = summary["workers"]
        assert worker["queue_depth"] == 3 and worker["spans_dropped"] == 4
        assert summary["spans_dropped"] == 4
        rendered = render_top(summary)
        assert "encode" in rendered and "spans dropped" in rendered

    def test_rate_from_consecutive_samples(self):
        previous = {"ops": [{"op": "encode", "requests": 10}]}
        response = {
            "ok": True,
            "enabled": True,
            "metrics": {
                "counters": {"serve.requests{op=encode}": 30},
                "gauges": {},
                "hists": {},
            },
            "gauges": {},
            "workers": {},
        }
        summary = summarize_telemetry(response, previous=previous, interval_s=2.0)
        assert summary["ops"][0]["rate_rps"] == 10.0


# -- flight recorder -----------------------------------------------------


class TestFlightRecorder:
    def test_ring_bounds_and_journal_is_eager(self, tmp_path):
        path = str(tmp_path / FLIGHT_FILENAME)
        recorder = FlightRecorder(capacity=4, path=path)
        for index in range(10):
            recorder.record("engine.tick", index=index)
        # Ring keeps the tail; the journal keeps everything, already on
        # disk without close() (eager line-buffered writes).
        assert len(recorder) == 4
        journal = read_jsonl(path, torn_tail=True)
        assert [r["event"] for r in journal[:1]] == ["flight.start"]
        assert sum(1 for r in journal if r["event"] == "engine.tick") == 10
        dump_path = recorder.dump(reason="test")
        recorder.close()
        document = json.load(open(dump_path))
        assert document["reason"] == "test"
        assert document["recorded"] == 11 and document["retained"] == 4
        assert [e["index"] for e in document["events"]] == [6, 7, 8, 9]

    def test_configure_gated_on_enabled(self, tmp_path, obs_off):
        path = str(tmp_path / FLIGHT_FILENAME)
        assert obs.configure_flight(path) is None
        obs.flight_record("engine.shed")  # silently dropped
        assert not os.path.exists(path)

    def test_facade_round_trip(self, tmp_path, obs_on):
        path = str(tmp_path / FLIGHT_FILENAME)
        try:
            recorder = obs.configure_flight(path, capacity=8)
            assert recorder is not None and obs.flight() is recorder
            obs.flight_record("engine.drain_begin", outstanding=2)
            dump = obs.flight_dump(reason="drain")
            assert dump and os.path.exists(dump)
            events = [r["event"] for r in read_jsonl(path, torn_tail=True)]
            assert events == ["flight.start", "engine.drain_begin"]
        finally:
            obs.configure_flight()  # clear the process-global recorder

    def test_engine_drain_journals_lifecycle(self, tmp_path, obs_on):
        path = str(tmp_path / FLIGHT_FILENAME)

        async def scenario():
            try:
                obs.configure_flight(path)
                engine = ServeEngine()
                await engine.start()
                await engine.handle(1, req("open", 1, coder="window8", width=16))
                await engine.stop(0.5)
            finally:
                obs.configure_flight()

        run(scenario())
        events = [r["event"] for r in read_jsonl(path, torn_tail=True)]
        assert "engine.session_open" in events
        assert "engine.drain_begin" in events and "engine.drain_end" in events
        # stop() also dumped the ring for the post-mortem.
        assert os.path.exists(str(tmp_path / "flight-dump.json"))


# -- the SIGKILL post-mortem (real subprocesses) -------------------------


@pytest.mark.chaos
class TestFlightPostMortem:
    def test_sigkilled_worker_leaves_a_readable_journal(self, tmp_path):
        from repro.retry import RestartBackoff
        from repro.serve.supervisor import WorkerSpec, WorkerSupervisor

        async def scenario():
            supervisor = WorkerSupervisor(
                1,
                spec=WorkerSpec(
                    drain_timeout_s=2.0, obs_dir=str(tmp_path / "workers")
                ),
                heartbeat_interval_s=0.1,
                liveness_deadline_s=0.5,
                backoff_factory=lambda index: RestartBackoff(
                    base_s=0.05, max_s=0.2, seed=index, flap_threshold=50
                ),
            )
            await supervisor.start()
            try:
                handle = supervisor.handle("w0")
                gen1_dir = handle.obs_dir
                # Drive one request so the journal has serving context.
                client = await TraceClient.connect("127.0.0.1", handle.port)
                stream = await client.open_stream("window8", width=16)
                await stream.feed([1, 2, 3])
                await client.close()
                supervisor.kill("w0", sig=signal.SIGKILL)
                deadline = asyncio.get_running_loop().time() + 20.0
                while asyncio.get_running_loop().time() < deadline:
                    if handle.generation >= 2 and handle.state == "up":
                        break
                    await asyncio.sleep(0.02)
                journal = os.path.join(gen1_dir, FLIGHT_FILENAME)
                dump = supervisor.flight_dump("w0")
                return journal, dump
            finally:
                await supervisor.stop(2.0)

        journal, dump = run(scenario())
        # The SIGKILLed generation never ran its drain path, but the
        # eager journal survived; the supervisor's accessor found one.
        assert os.path.isfile(journal)
        events = [r["event"] for r in read_jsonl(journal, torn_tail=True)]
        assert events and events[0] == "flight.start"
        assert "engine.session_open" in events
        assert "engine.drain_begin" not in events  # kill -9: no goodbye
        assert dump is not None
