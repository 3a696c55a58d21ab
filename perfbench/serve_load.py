"""The ``serve`` workload: a closed loop against a real ``repro cluster``.

Each round starts ``repro cluster --workers 1`` (router + one supervised
``repro serve`` worker; with this driver that is three processes on two
cores), opens a fixed population of sessions over two binary-framed
connections and drives them for its share of ``--seconds``:

* ``PAIRS`` encode sessions, each with a paired decode session fed the
  encoder's states; the specs are the vectorized ``transition`` and
  ``last`` families in same-spec groups, so the engine's coalescer has
  same-spec chunks to merge;
* closed loop: a pair sends its next chunk only after the previous one
  is acknowledged; every ``CHECKPOINT_EVERY`` chunks it also exports a
  checkpoint of its encode session;
* payloads are parametric ``mixed`` streams drawn from ``--seed``.

After the timed section the round reads the processes' peak RSS, stops
the cluster, counts any ``repro serve`` worker that outlives it as a
failure, and checks every acknowledged chunk against the in-process
``parse_coder_spec(spec).encode_chunk`` oracle (states) and the input
(decoded values).  Requests that error, time out or are shed count as
failed too.

With ``--trace 1`` the middle round is traced: ``telemetry`` snapshots
through the router bracket its timed section, then a short sequential
loop measures the router hop (through the router minus straight to the
worker).  In-process ``ServeEngine.handle`` and binary frame timings run
once at the end.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import metrics

ROUNDS = 3
PAIRS = 8
SPECS = ("transition", "last")
CHUNK = 256
WIDTH = 32
#: Distinct chunks generated per pair; a long round cycles through them.
POOL_CHUNKS = 64
CHECKPOINT_EVERY = 8
REQUEST_TIMEOUT_S = 10.0
ANNOUNCE_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 30.0
#: Lines of the cluster's log a failing round reports.
LOG_TAIL_LINES = 20
#: Measurement window: a run reports medians over windows of this length.
WINDOW_S = 5.0
HOP_ITERATIONS = 150
MICRO_REPS = 400

#: Per-layer metrics this workload measures (zero on the matrix workloads).
LAYER_NAMES = (
    "serve.protocol.frame_encode_us",
    "serve.protocol.frame_decode_us",
    "serve.engine.encode_ms",
    "serve.engine.decode_ms",
    "serve.engine.checkpoint_ms",
    "serve.queue_wait_s",
    "serve.kernel_s",
    "serve.serialize_s",
    "serve.coalesce_batch",
    "serve.coalesced_ratio",
    "serve.shed",
    "serve.router.hop_ms",
)


@dataclass
class Pair:
    """One encode session, its paired decode session and what they saw."""

    spec: str
    chunks: List[np.ndarray]
    encoder: Any = None
    decoder: Any = None
    sent: List[int] = field(default_factory=list)  # pool index per chunk
    states: List[np.ndarray] = field(default_factory=list)
    decoded: List[np.ndarray] = field(default_factory=list)


@dataclass
class Round:
    setup_s: float = 0.0
    started: float = 0.0
    timed_s: float = 0.0
    cycles: int = 0
    #: (completion time, latency, cycles acknowledged) per successful request
    samples: List[Tuple[float, float, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rss_mb: float = 0.0
    errors: List[str] = field(default_factory=list)
    log_path: str = ""
    telemetry: Optional[Tuple[Dict, Dict]] = None
    hop_ms: float = 0.0

    @property
    def latencies(self) -> List[float]:
        return [latency for _done, latency, _cycles in self.samples]


def make_pairs(seed: int, round_index: int, count: int = PAIRS) -> List[Pair]:
    from repro.corpus.generator import ParametricGenerator

    generator = ParametricGenerator(
        "mixed", seed=seed, cycles=CHUNK * POOL_CHUNKS, width=WIDTH
    )
    pairs = []
    for index in range(count):
        values = generator.stream(round_index * PAIRS + index).values
        words = np.asarray(values, dtype=np.uint64)
        chunks = [words[i * CHUNK:(i + 1) * CHUNK] for i in range(POOL_CHUNKS)]
        # Same-spec groups: the first half transition, the second last.
        pairs.append(Pair(SPECS[index * len(SPECS) // PAIRS], chunks))
    return pairs


# -- processes ----------------------------------------------------------


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (Linux ``/proc``)."""
    found: List[int] = []
    task_dir = f"/proc/{pid}/task"
    try:
        tasks = os.listdir(task_dir)
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"{task_dir}/{task}/children", "r") as handle:
                found.extend(int(p) for p in handle.read().split())
        except OSError:
            continue
    return found


def _status_field(pid: int, name: str) -> Optional[str]:
    try:
        with open(f"/proc/{pid}/status", "r") as handle:
            for line in handle:
                if line.startswith(name + ":"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def peak_rss_mb(pid: int) -> float:
    value = _status_field(pid, "VmHWM")  # e.g. "51234 kB"
    return float(value.split()[0]) / 1024.0 if value else 0.0


def start_time(pid: int) -> Optional[str]:
    """Start time of ``pid`` in clock ticks: with the pid, the process's
    identity (a pid alone may be reused once the process is reaped)."""
    try:
        with open(f"/proc/{pid}/stat", "r") as handle:
            stat = handle.read()
    except OSError:
        return None
    # Fields after the parenthesised command name; start time is field 22.
    return stat.rsplit(")", 1)[1].split()[19]


def alive(pid: int, started: Optional[str]) -> bool:
    """True while the process ``(pid, started)`` runs (not a zombie)."""
    state = _status_field(pid, "State")
    return (
        state is not None
        and not state.startswith("Z")
        and start_time(pid) == started
    )


def workers_of(pid: int) -> Dict[int, Optional[str]]:
    """The ``repro serve`` children of the router ``pid``, with start times."""
    return {p: start_time(p) for p in child_pids(pid) if is_worker(p)}


def log_tail(path: str, count: int = LOG_TAIL_LINES) -> List[str]:
    """The last ``count`` lines of the cluster's log (warnings and errors)."""
    try:
        with open(path, "r", errors="replace") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        return [f"cluster log unreadable: {exc}"]
    return [f"cluster log: {line}" for line in lines[-count:]]


def is_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            argv = handle.read().split(b"\0")
    except OSError:
        return False
    return b"repro" in argv and b"serve" in argv


async def start_cluster(ctx, result: "Round") -> Tuple[asyncio.subprocess.Process, int, int]:
    """Launch ``repro cluster``; returns (process, router port, worker port).

    The cluster's stderr goes to ``result.log_path``.
    """
    from repro.serve import ports

    obs_dir = ctx.fresh_dir("obs")
    result.log_path = os.path.join(obs_dir, "cluster.log")
    with open(result.log_path, "wb") as log:
        proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro", "-q",
            "--obs-dir", os.path.join(obs_dir, "router"),
            "cluster", "--workers", "1", "--port", "0", "--host", "127.0.0.1",
            "--worker-obs-dir", os.path.join(obs_dir, "workers"),
            env=ctx.env,
            stdout=asyncio.subprocess.PIPE,
            stderr=log,
        )
    found: Dict[str, int] = {}
    deadline = time.monotonic() + ANNOUNCE_TIMEOUT_S
    try:
        while len(found) < 2:
            remaining = max(deadline - time.monotonic(), 0.01)
            line = await asyncio.wait_for(proc.stdout.readline(), remaining)
            if not line:
                raise RuntimeError("cluster exited before announcing its ports")
            parsed = ports.parse_listening(line.decode())
            if parsed is not None:
                component, _host, port = parsed
                found["router" if component == "cluster" else "worker"] = port
    except BaseException:
        for pid in child_pids(proc.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.kill()
        await proc.wait()
        raise
    return proc, found["router"], found["worker"]


async def stop_cluster(proc, workers: Dict[int, Optional[str]], result: Round) -> None:
    """SIGTERM the router; any worker outliving it is a failure.

    ``workers`` are the workers seen at start; those running at stop time
    (a restarted worker, say) are checked too.
    """
    workers = {**workers, **workers_of(proc.pid)}
    proc.send_signal(signal.SIGTERM)
    try:
        await asyncio.wait_for(proc.wait(), STOP_TIMEOUT_S)
    except asyncio.TimeoutError:
        result.failed += 1
        result.errors.append("cluster did not stop within its drain timeout")
        proc.kill()
        await proc.wait()
    if proc.returncode != 0:  # SIGTERM must drain and exit 0
        result.failed += 1
        result.errors.append(f"cluster exited with code {proc.returncode}")
    deadline = time.monotonic() + 5.0
    while (
        any(alive(pid, started) for pid, started in workers.items())
        and time.monotonic() < deadline
    ):
        await asyncio.sleep(0.05)
    for pid, started in workers.items():
        if alive(pid, started):
            result.failed += 1
            result.errors.append(f"repro serve worker {pid} alive after cluster stop")
            os.kill(pid, signal.SIGKILL)


# -- the closed loop ------------------------------------------------------


async def timed_call(coro, round_: Round, op: str, cycles: int = 0) -> Optional[Any]:
    """One request: its latency on success, a failure otherwise."""
    round_.attempted += 1
    start = time.monotonic()
    try:
        response = await asyncio.wait_for(coro, REQUEST_TIMEOUT_S)
    except (asyncio.TimeoutError, ConnectionError, OSError, ValueError) as exc:
        round_.failed += 1
        round_.errors.append(
            f"{op} sent at {start - round_.started:.3f} s into the round failed "
            f"after {time.monotonic() - start:.3f} s: {type(exc).__name__}: {exc}"
        )
        return None
    done = time.monotonic()
    round_.samples.append((done, done - start, cycles))
    round_.cycles += cycles
    return response


async def drive_pair(
    pair: Pair, stop_at: float, round_: Round, limit: Optional[int] = None
) -> None:
    """Closed loop for one pair until ``stop_at`` (or ``limit`` chunks)."""
    while time.monotonic() < stop_at and (limit is None or len(pair.sent) < limit):
        index = len(pair.sent) % POOL_CHUNKS
        states = await timed_call(
            pair.encoder.feed(pair.chunks[index]), round_, "encode", CHUNK
        )
        if states is None:
            return
        decoded = await timed_call(pair.decoder.decode(states), round_, "decode", CHUNK)
        if decoded is None:
            return
        pair.sent.append(index)
        pair.states.append(states)
        pair.decoded.append(decoded)
        if len(pair.sent) % CHECKPOINT_EVERY == 0:
            checkpoint = pair.encoder.checkpoint(export=True)
            if await timed_call(checkpoint, round_, "checkpoint") is None:
                return


async def open_pairs(clients, pairs: List[Pair]) -> None:
    for index, pair in enumerate(pairs):
        client = clients[index % len(clients)]
        pair.encoder = await client.open_stream(pair.spec, WIDTH)
        pair.decoder = await client.open_stream(pair.spec, WIDTH)


async def connect(port: int, count: int):
    from repro.serve.client import TraceClient

    clients = [await TraceClient.connect("127.0.0.1", port) for _ in range(count)]
    for client in clients:
        if not await client.negotiate_binary():
            raise RuntimeError("server did not negotiate binary frames")
    return clients


async def close_all(clients) -> None:
    for client in clients:
        await client.close()


async def telemetry(port: int) -> Dict:
    from repro.serve.telemetry import fetch_telemetry

    response = await fetch_telemetry("127.0.0.1", port)
    return response.get("metrics") or {}


async def sequential_p50_ms(port: int, seed: int) -> float:
    """p50 latency of one pair's op mix, sent one at a time to ``port``."""
    clients = await connect(port, 1)
    probe = Round()
    try:
        pair = make_pairs(seed, ROUNDS, count=1)[0]
        await open_pairs(clients, [pair])
        await drive_pair(pair, float("inf"), probe, limit=HOP_ITERATIONS)
    finally:
        await close_all(clients)
    if probe.failed:
        raise RuntimeError(f"hop probe failed: {probe.errors[:1]}")
    return 1e3 * metrics.median(probe.latencies)


async def run_round(ctx, round_index: int, traced: bool) -> Round:
    result = Round()
    launched = time.monotonic()
    proc, router_port, worker_port = await start_cluster(ctx, result)
    workers: Dict[int, Optional[str]] = {}
    pairs: List[Pair] = []
    try:
        workers = workers_of(proc.pid)
        clients = await connect(router_port, 2)
        pairs = make_pairs(ctx.seed, round_index)
        await open_pairs(clients, pairs)
        result.setup_s = time.monotonic() - launched
        before = await telemetry(router_port) if traced else None
        result.started = time.monotonic()
        stop_at = result.started + ctx.seconds / ROUNDS
        await asyncio.gather(*(drive_pair(pair, stop_at, result) for pair in pairs))
        result.timed_s = time.monotonic() - result.started
        if traced:
            result.telemetry = (before, await telemetry(router_port))
            via_router = await sequential_p50_ms(router_port, ctx.seed)
            direct = await sequential_p50_ms(worker_port, ctx.seed)
            result.hop_ms = via_router - direct
        result.rss_mb = peak_rss_mb(proc.pid) + sum(peak_rss_mb(p) for p in workers)
        await close_all(clients)
    finally:
        if proc.returncode is None:
            await stop_cluster(proc, workers, result)
    check_round(pairs, result)
    if result.failed:
        result.errors.extend(log_tail(result.log_path))
    return result


def windows(round_: Round) -> List[Tuple[int, float, List[float]]]:
    """Split a round's timed section into about ``WINDOW_S`` slices."""
    count = max(1, round(round_.timed_s / WINDOW_S))
    width = round_.timed_s / count
    slices = [(0, width, []) for _ in range(count)]
    for done, latency, cycles in round_.samples:
        index = min(int((done - round_.started) / width), count - 1)
        old_cycles, seconds, latencies = slices[index]
        latencies.append(latency)
        slices[index] = (old_cycles + cycles, seconds, latencies)
    return slices


def check_round(pairs: List[Pair], result: Round) -> None:
    """Oracle check of every acknowledged chunk (after the timed section)."""
    from repro.coding.specs import parse_coder_spec

    for number, pair in enumerate(pairs):
        coder = parse_coder_spec(pair.spec, WIDTH)
        wrong_states: List[int] = []
        wrong_values: List[int] = []
        chunks = zip(pair.sent, pair.states, pair.decoded)
        for chunk, (index, states, decoded) in enumerate(chunks):
            values = pair.chunks[index]
            want = coder.encode_chunk(values)
            if not np.array_equal(np.asarray(states, dtype=np.uint64), want):
                wrong_states.append(chunk)
            if not np.array_equal(np.asarray(decoded, dtype=np.uint64), values):
                wrong_values.append(chunk)
        result.failed += len(wrong_states) + len(wrong_values)
        for wrong, what in (
            (wrong_states, "states differ from the oracle"),
            (wrong_values, "decoded values differ from the input"),
        ):
            if wrong:
                result.errors.append(
                    f"pair {number} ({pair.spec}): {what} in {len(wrong)} of "
                    f"{len(pair.sent)} chunks, first chunk {wrong[0]}"
                )


# -- in-process layer timings ---------------------------------------------


def frame_us(seed: int) -> Tuple[float, float]:
    """Median encode and decode time (us) of one binary chunk frame."""
    from repro.serve import protocol

    values = make_pairs(seed, ROUNDS, count=1)[0].chunks[0]
    message = protocol.request("encode", 1, session=1, values=values)
    encode, decode = [], []
    for _ in range(MICRO_REPS):
        start = time.perf_counter()
        raw = protocol.encode_binary_frame(message, "values", values)
        middle = time.perf_counter()
        protocol.decode_binary_frame(raw)
        encode.append(middle - start)
        decode.append(time.perf_counter() - middle)
    return 1e6 * metrics.median(encode), 1e6 * metrics.median(decode)


async def engine_ms(seed: int) -> Dict[str, float]:
    """p50 of encode, decode and checkpoint export via ``ServeEngine.handle``."""
    from repro.serve import protocol
    from repro.serve.engine import ServeEngine

    engine = ServeEngine()
    await engine.start()
    ids = iter(range(1, 1 << 30))

    async def call(op: str, **fields: Any) -> Tuple[float, Dict]:
        start = time.perf_counter()
        response = await engine.handle(1, protocol.request(op, next(ids), **fields))
        elapsed = time.perf_counter() - start
        if not response.get("ok"):
            raise RuntimeError(f"in-process {op} failed: {response.get('error')}")
        return elapsed, response

    pair = make_pairs(seed, ROUNDS, count=1)[0]
    samples: Dict[str, List[float]] = {"encode": [], "decode": [], "checkpoint": []}
    try:
        _, opened = await call("open", coder=pair.spec, width=WIDTH)
        _, paired = await call("open", coder=pair.spec, width=WIDTH)
        for rep in range(MICRO_REPS):
            elapsed, response = await call(
                "encode", session=opened["session"], values=pair.chunks[rep % POOL_CHUNKS]
            )
            samples["encode"].append(elapsed)
            elapsed, _ = await call(
                "decode", session=paired["session"], states=response["states"]
            )
            samples["decode"].append(elapsed)
            elapsed, _ = await call("checkpoint", session=opened["session"], export=True)
            samples["checkpoint"].append(elapsed)
    finally:
        await engine.stop()
    return {op: 1e3 * metrics.median(values) for op, values in samples.items()}


def _delta(before: Dict, after: Dict, kind: str, name: str, ops=None) -> Tuple[float, float]:
    """(count, sum) change of a counter or histogram across label sets."""
    from repro.obs.registry import parse_key

    count = total = 0.0
    for key, value in after.get(kind, {}).items():
        base, labels = parse_key(key)
        if base != name or (ops is not None and labels.get("op") not in ops):
            continue
        old = before.get(kind, {}).get(key)
        if kind == "counters":
            count += value - (old or 0)
        else:
            count += value["count"] - (old["count"] if old else 0)
            total += value["sum"] - (old["sum"] if old else 0.0)
    return count, total


def serve_layers(traced: Round, plain: List[Round], seed: int, notes: List[str]) -> Dict:
    before, after = traced.telemetry
    ops = ("encode", "decode", "checkpoint")
    requests, _ = _delta(before, after, "counters", "serve.requests", ops)
    chunk_requests, _ = _delta(before, after, "counters", "serve.requests", ops[:2])
    coalesced, _ = _delta(before, after, "counters", "serve.coalesced", ops[:2])
    shed, _ = _delta(before, after, "counters", "serve.shed")
    per_request = {}
    for name in ("serve.queue_wait_s", "serve.kernel_s", "serve.serialize_s"):
        per_request[name] = metrics.safe_ratio(
            _delta(before, after, "hists", name, ops)[1], requests
        )
    batches, batched = _delta(before, after, "hists", "serve.coalesce_batch")
    encode_us, decode_us = frame_us(seed)
    engine = asyncio.run(engine_ms(seed))
    layers = dict(per_request)
    layers.update({
        "serve.protocol.frame_encode_us": encode_us,
        "serve.protocol.frame_decode_us": decode_us,
        "serve.engine.encode_ms": engine["encode"],
        "serve.engine.decode_ms": engine["decode"],
        "serve.engine.checkpoint_ms": engine["checkpoint"],
        "serve.coalesce_batch": metrics.safe_ratio(batched, batches),
        "serve.coalesced_ratio": metrics.safe_ratio(coalesced, chunk_requests),
        "serve.shed": shed,
        "serve.router.hop_ms": traced.hop_ms,
    })
    # Per request: engine queue + kernel + serialize, the router hop, and
    # one frame encode and decode in each direction.
    e2e_s = metrics.median(traced.latencies)
    attributed = [
        *per_request.values(),
        traced.hop_ms / 1e3,
        2 * (encode_us + decode_us) / 1e6,
    ]
    layers["unattributed_frac"] = metrics.unattributed_frac(e2e_s, attributed)
    plain_rate = sum(r.cycles for r in plain) / sum(r.timed_s for r in plain)
    layers["trace_overhead_frac"] = plain_rate / (traced.cycles / traced.timed_s) - 1.0
    notes.append(
        f"engine requests in the traced round: {requests:.0f}; serve.* times are "
        f"seconds per request; e2e for unattributed_frac is the p50 request latency"
    )
    notes.extend(metrics.unattributed_flag(layers["unattributed_frac"]))
    return layers


async def run_rounds(ctx) -> List[Round]:
    rounds = []
    for index in range(ROUNDS):
        rounds.append(await run_round(ctx, index, ctx.trace and index == 1))
    return rounds


def run(ctx) -> metrics.Outcome:
    from layers import LAYER_NAMES as MATRIX_LAYER_NAMES

    rounds = asyncio.run(run_rounds(ctx))
    notes = []
    errors = [
        f"round {index}: {error}"
        for index, round_ in enumerate(rounds)
        for error in round_.errors
    ]
    plain = [r for r in rounds if r.telemetry is None]
    timing = metrics.window_summary([w for r in plain for w in windows(r)])
    notes.append(metrics.describe_timing("request latency (send to ack)", timing))
    notes.append(
        f"rounds: {len(rounds)}, {PAIRS} encode/decode pairs, {CHUNK}-word chunks, "
        f"checkpoint export every {CHECKPOINT_EVERY} chunks; Mcycles/s per round: "
        + " ".join(f"{r.cycles / 1e6 / r.timed_s:.4f}" for r in rounds)
    )
    outcome = metrics.Outcome(
        attempted=sum(r.attempted for r in rounds),
        failed=sum(r.failed for r in rounds),
        notes=notes,
        errors=errors,
    )
    outcome.e2e = {
        "setup_s": metrics.median([r.setup_s for r in rounds]),
        "mcycles_per_s": timing["mcycles_per_s"],
        "req_p50_ms": timing["p50_ms"],
        "req_tail_ms": timing["tail_ms"],
        "peak_rss_mb": metrics.median([r.rss_mb for r in plain]),
    }
    if ctx.trace:
        (traced,) = [r for r in rounds if r.telemetry is not None]
        outcome.layers = dict.fromkeys(MATRIX_LAYER_NAMES, 0.0)
        outcome.layers.update(serve_layers(traced, plain, ctx.seed, notes))
    return outcome
