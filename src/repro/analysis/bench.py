"""Reproducible performance benchmarks: ``repro bench``.

Two families of measurements, both emitted as a ``BENCH_*.json``
report so perf regressions are diffable across commits:

* **kernel throughput** — each fast coding kernel
  (:class:`~repro.coding.transition.TransitionCoder`,
  :class:`~repro.coding.inversion.InversionTranscoder`,
  :class:`~repro.coding.last_value.LastValueTranscoder` and the fused
  audited window kernel of
  :class:`~repro.hardware.transcoder_hw.HardwareWindowTranscoder`)
  timed against its own scalar per-cycle loop on the same trace.  The
  scalar path is the differential-testing oracle, so every timing run
  doubles as a correctness check: the report records whether the two
  encodes were bit-identical — and, for the audited coder, whether the
  operation counts and their order matched too.
* **sweep latency** — a small :func:`robust_savings_sweep` and
  :func:`crossover_table` run cold (empty trace cache) and then warm
  (persistent cache populated, in-memory layers cleared), quantifying
  what the ``.npz``/JSON artifact cache buys a second invocation.
* **corpus throughput** — the workload-corpus subsystem timed end to
  end: parametric-generator stream production (streams/s), raw binary
  ingestion into a shard (MB/s), and the digest-verified memory-mapped
  chunked read path against a plain in-memory walk over the same shard
  (Mcycles/s) — the pair that quantifies what the bounded-memory
  streaming read costs over materializing everything.
* **serve throughput** — a real localhost :class:`~repro.serve.server.
  TraceServer` driven closed-loop by same-spec streaming sessions, one
  scenario per (framing, batching) corner: newline-JSON vs binary bulk
  frames, ``batch_limit`` 1 vs batched (which lets the engine coalesce
  a drain into one columnar kernel call).  Every scenario verifies its
  states against the solo-coder oracle, and each records its speedup
  over the ``json-batch1`` baseline corner — the number the acceptance
  bar (>= 5x for ``binary-batch16``) reads.  A committed baseline
  report (``benchmarks/BENCH_SEED.json``) plus
  :func:`compare_serve_baseline` turn the section into a CI regression
  gate: ``repro bench --baseline`` exits nonzero when any scenario
  loses more than the tolerance vs the committed numbers.

Timings are sourced from :mod:`repro.obs` spans — each measured region
runs under a ``bench.*`` span and the reported seconds are the span's
own duration, so ``BENCH_*.json`` and an exported ``--obs-dir`` /
``--trace-out`` agree to the clock tick.  The spans additionally roll
up into an optional ``phases`` key (one record per distinct
phase/coder/mode) giving the per-phase breakdown; with ``REPRO_OBS=0``
a plain ``perf_counter`` fallback keeps the core report identical and
``phases`` is simply absent.

The report carries a ``schema`` tag (:data:`BENCH_SCHEMA`);
:func:`validate_bench_report` rejects drifted reports, which is what
``repro bench --quick`` (and the ``bench_smoke`` tests) use to keep the
emitted JSON stable for downstream tooling.  ``phases`` is optional and
validated only when present, so pre-existing reports stay valid.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
import time
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..coding.inversion import InversionTranscoder
from ..coding.last_value import LastValueTranscoder
from ..coding.transition import TransitionCoder
from ..hardware.transcoder_hw import HardwareWindowTranscoder
from ..traces.cache import TraceCache, get_default_cache, set_default_cache
from ..traces.trace import BusTrace
from ..wires.technology import TECHNOLOGIES
from ..workloads.suite import clear_caches
from ..workloads.synthetic import locality_trace, random_trace
from .experiments import crossover_table, robust_savings_sweep

__all__ = [
    "BENCH_SCHEMA",
    "BenchSchemaError",
    "compare_serve_baseline",
    "default_report_path",
    "run_bench",
    "validate_bench_report",
    "write_report",
]

#: Schema tag stamped into every report.  Bump when the layout changes.
BENCH_SCHEMA = "repro-bench/1"

#: Workloads exercised by the sweep-latency benchmarks (one int, one fp).
SWEEP_WORKLOADS = ("gcc", "swim")


class BenchSchemaError(ValueError):
    """A bench report does not match :data:`BENCH_SCHEMA`."""


def _kernel_cases(quick: bool) -> List[Tuple[str, Any, BusTrace]]:
    """(name, coder, trace) triples; trace sizes match the acceptance
    targets (1M-cycle transition trace) unless ``quick``."""
    scale = 0.02 if quick else 1.0

    def cycles(n: int) -> int:
        return max(2_000, int(n * scale))

    return [
        (
            "transition",
            TransitionCoder(32),
            random_trace(cycles(1_000_000), 32, seed=7, name="bench-random"),
        ),
        (
            "last-value",
            LastValueTranscoder(32),
            locality_trace(cycles(500_000), 32, seed=7, name="bench-locality"),
        ),
        (
            "inversion",
            InversionTranscoder(32, 1),
            locality_trace(cycles(100_000), 32, seed=11, name="bench-locality"),
        ),
        (
            "window-audit",
            HardwareWindowTranscoder(TECHNOLOGIES[0], 8, 32),
            locality_trace(cycles(100_000), 32, seed=13, name="bench-locality"),
        ),
    ]


class _phase_timer:
    """Time one bench phase through a span, with a clock fallback.

    When observability is on, the reported seconds are the ``bench.*``
    span's own measured duration (:attr:`~repro.obs.ActiveSpan.dur`),
    so the JSON report and any ``--obs-dir`` / ``--trace-out`` export
    agree exactly.  With ``REPRO_OBS=0`` the span is the shared no-op
    and a ``perf_counter`` pair supplies the timing instead — the core
    report keeps working, only the span-derived ``phases`` rollup
    disappears.
    """

    __slots__ = ("_span", "_start", "seconds")

    def __init__(self, name: str, **attrs: Any):
        self._span = obs.span(name, **attrs)
        self._start = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "_phase_timer":
        self._start = time.perf_counter()
        self._span.__enter__()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._span.__exit__(*exc_info)
        dur = getattr(self._span, "dur", 0.0)
        self.seconds = dur if dur > 0.0 else time.perf_counter() - self._start
        return None


def _audit(coder: Any) -> Optional[List[Tuple[Any, int]]]:
    """An auditing coder's operation counts in charge order, else None."""
    ops = getattr(coder, "ops", None)
    return None if ops is None else list(ops)


def _time_kernel(name: str, coder: Any, trace: BusTrace) -> Dict[str, Any]:
    coder.reset()
    with _phase_timer(
        "bench.kernel", coder=name, mode="scalar", cycles=len(trace)
    ) as timer:
        scalar = coder.encode_trace_scalar(trace)
    scalar_s = timer.seconds
    scalar_ops = _audit(coder)

    coder.reset()
    with _phase_timer(
        "bench.kernel", coder=name, mode="fast", cycles=len(trace)
    ) as timer:
        fast = coder.encode_trace(trace)
    fast_s = timer.seconds

    identical = bool(np.array_equal(scalar.values, fast.values))
    identical = identical and _audit(coder) == scalar_ops
    fast_s_safe = max(fast_s, 1e-9)  # keep the report finite (valid JSON)
    return {
        "coder": name,
        "cycles": len(trace),
        "scalar_s": scalar_s,
        "fast_s": fast_s,
        "speedup": scalar_s / fast_s_safe,
        "fast_mcycles_per_s": len(trace) / fast_s_safe / 1e6,
        "identical": identical,
    }


def _time_sweeps(quick: bool, jobs: Optional[int]) -> List[Dict[str, Any]]:
    """Cold-vs-warm latency of the cached sweeps, in a throwaway cache.

    The default cache is swapped for a fresh temporary directory so the
    benchmark neither reads from nor pollutes the user's real cache;
    between the cold and warm runs only the *in-memory* layers are
    cleared, so the warm run measures the persistent-artifact path.
    """
    cycles = 2_000 if quick else 15_000
    previous = get_default_cache()
    results: List[Dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        set_default_cache(TraceCache(tmp))
        try:
            clear_caches()

            def sweep_robust() -> None:
                robust_savings_sweep(
                    "register",
                    lambda n: TransitionCoder(32),
                    (8,),
                    names=SWEEP_WORKLOADS,
                    cycles=cycles,
                    jobs=jobs,
                )

            def sweep_table3() -> None:
                crossover_table(
                    TECHNOLOGIES, (8, 16), cycles=cycles, jobs=jobs
                )

            for name, fn in (
                ("robust_savings_sweep", sweep_robust),
                ("crossover_table", sweep_table3),
            ):
                with _phase_timer(
                    "bench.sweep", sweep=name, mode="cold", cycles=cycles
                ) as timer:
                    fn()
                cold_s = timer.seconds
                clear_caches()  # drop in-memory layers; keep the disk artifacts
                with _phase_timer(
                    "bench.sweep", sweep=name, mode="warm", cycles=cycles
                ) as timer:
                    fn()
                warm_s = timer.seconds
                results.append(
                    {
                        "name": name,
                        "cycles": cycles,
                        "cold_s": cold_s,
                        "warm_s": warm_s,
                        "speedup": cold_s / max(warm_s, 1e-9),
                    }
                )
        finally:
            set_default_cache(previous)
            clear_caches()
    return results


#: Serve-throughput scenario grid: framing x engine batch limit.  The
#: first entry is the baseline every other scenario's speedup is
#: measured against.
SERVE_SCENARIOS = (
    ("json", 1),
    ("json", 16),
    ("binary", 1),
    ("binary", 16),
)

#: All serve-bench sessions share one columnar-capable spec so the
#: batched scenarios actually exercise the engine's coalescing path.
_SERVE_SPEC = "transition"
_SERVE_WIDTH = 32


async def _serve_scenario(
    framing: str, batch_limit: int, streams: int, chunks: int, words: int
) -> Dict[str, Any]:
    """Run one closed-loop serve scenario; returns its record (without
    the cross-scenario ``speedup_vs_baseline``, filled in later)."""
    from ..serve import TraceClient, TraceServer

    per_stream = [
        [
            int(v)
            for v in random_trace(
                chunks * words, _SERVE_WIDTH, seed=900 + i, name="bench-serve"
            ).values
        ]
        for i in range(streams)
    ]
    oracle = TransitionCoder(_SERVE_WIDTH)
    expected = []
    for values in per_stream:
        oracle.reset()
        trace = BusTrace(np.asarray(values, dtype=np.uint64), _SERVE_WIDTH, "bench")
        expected.append([int(s) for s in oracle.encode_trace(trace).values])

    identical = True
    async with TraceServer(
        port=0, batch_limit=batch_limit, queue_limit=max(64, streams * 4)
    ) as server:
        clients = []
        sessions = []
        for _ in range(streams):
            client = await TraceClient.connect("127.0.0.1", server.port)
            if framing == "binary":
                await client.negotiate_binary()
            clients.append(client)
            sessions.append(await client.open_stream(_SERVE_SPEC, _SERVE_WIDTH))

        async def one_stream(index: int) -> List[Any]:
            # Raw per-chunk results only; flattening to ints happens
            # outside the timer so the measurement is the serving path,
            # not the bench's own bookkeeping.
            got: List[Any] = []
            values = per_stream[index]
            for start in range(0, len(values), words):
                got.append(await sessions[index].feed(values[start : start + words]))
            return got

        # Sessions are open and (for binary) negotiated; only the feed
        # phase is timed.
        with _phase_timer(
            "bench.serve",
            scenario=f"{framing}-batch{batch_limit}",
            cycles=streams * chunks * words,
        ) as timer:
            results = await asyncio.gather(*(one_stream(i) for i in range(streams)))
        for got, want in zip(results, expected):
            flat = [int(s) for chunk in got for s in chunk]
            identical = identical and flat == want
        for client in clients:
            await client.close()

    elapsed = max(timer.seconds, 1e-9)
    requests = streams * chunks
    cycles = streams * chunks * words
    return {
        "scenario": f"{framing}-batch{batch_limit}",
        "framing": framing,
        "batch_limit": batch_limit,
        "streams": streams,
        "chunk_words": words,
        "requests": requests,
        "cycles": cycles,
        "elapsed_s": timer.seconds,
        "req_per_s": requests / elapsed,
        # Payload bytes both ways: 8-byte words in, 8-byte states out.
        "mbytes_per_s": cycles * 16 / elapsed / 1e6,
        "identical": identical,
    }


def _time_serve(quick: bool) -> List[Dict[str, Any]]:
    """Serve-throughput records, one per :data:`SERVE_SCENARIOS` entry.

    Quick mode still ships full-sized-enough chunks (1 KiB of words)
    that the framing ratios are stable run to run — the regression gate
    compares those ratios, so they cannot be noise."""
    streams = 4 if quick else 8
    chunks = 8 if quick else 16
    words = 1024 if quick else 4096
    records = []
    for framing, batch_limit in SERVE_SCENARIOS:
        records.append(
            asyncio.run(_serve_scenario(framing, batch_limit, streams, chunks, words))
        )
    baseline = max(records[0]["req_per_s"], 1e-9)
    for record in records:
        record["speedup_vs_baseline"] = record["req_per_s"] / baseline
    return records


def _time_corpus(quick: bool) -> List[Dict[str, Any]]:
    """Corpus-subsystem throughput records, uniform key set.

    Four stages, each one record: ``generate`` (parametric-generator
    stream production, chunked API), ``ingest`` (raw uint64 binary →
    shard via :func:`~repro.corpus.import_binary`, rolling digest
    included), ``read_mmap`` (the digest-verified memory-mapped chunked
    read) and ``read_memory`` (the same chunk walk over a fully
    materialized array — no mmap, no digest).  The last two share one
    shard, so their ratio isolates what the bounded-memory verified
    path costs.  Everything runs in a throwaway directory.
    """
    from ..corpus import CorpusReader, CorpusWriter, ParametricGenerator, import_binary
    from ..traces.streaming import DEFAULT_CHUNK_CYCLES, iter_chunks

    streams = 4 if quick else 16
    gen_cycles = 16_384 if quick else 65_536
    ingest_words = 1 << (18 if quick else 22)  # 2 MiB quick, 32 MiB full
    records: List[Dict[str, Any]] = []

    def add(name: str, cycles: int, mbytes: float, seconds: float,
            per_s: float, unit: str) -> None:
        records.append(
            {
                "name": name,
                "cycles": int(cycles),
                "mbytes": float(mbytes),
                "elapsed_s": float(seconds),
                "per_s": float(per_s),
                "unit": unit,
            }
        )

    with tempfile.TemporaryDirectory(prefix="repro-bench-corpus-") as tmp:
        generator = ParametricGenerator("mixed", seed=7, cycles=gen_cycles, width=32)
        with _phase_timer(
            "bench.corpus", stage="generate", cycles=streams * gen_cycles
        ) as timer:
            produced = 0
            for index in range(streams):
                for chunk in generator.chunks(index):
                    produced += len(chunk)
        add(
            "generate", produced, produced * 8 / 1e6, timer.seconds,
            streams / max(timer.seconds, 1e-9), "streams/s",
        )

        # Ingest: the file is written untimed so only import_binary —
        # bounded reads, masking, rolling sha256, atomic publish — is
        # in the measured region.
        raw = os.path.join(tmp, "bench.u64")
        rng = np.random.default_rng(3)
        with open(raw, "wb") as handle:
            remaining = ingest_words
            while remaining:
                block = min(remaining, 1 << 20)
                handle.write(
                    rng.integers(0, 1 << 32, size=block, dtype=np.uint64)
                    .astype("<u8")
                    .tobytes()
                )
                remaining -= block
        corpus_dir = os.path.join(tmp, "corpus")
        writer = CorpusWriter(corpus_dir)
        with _phase_timer(
            "bench.corpus", stage="ingest", cycles=ingest_words
        ) as timer:
            meta = import_binary(writer, raw, 32, name="bench-ingest")
        writer.close()
        mbytes = ingest_words * 8 / 1e6
        add(
            "ingest", ingest_words, mbytes, timer.seconds,
            mbytes / max(timer.seconds, 1e-9), "MB/s",
        )

        reader = CorpusReader(corpus_dir)
        with _phase_timer(
            "bench.corpus", stage="read_mmap", cycles=meta.cycles
        ) as timer:
            seen = 0
            for chunk in reader.chunks("bench-ingest"):
                seen += len(chunk)
        add(
            "read_mmap", seen, mbytes, timer.seconds,
            seen / max(timer.seconds, 1e-9) / 1e6, "Mcycles/s",
        )

        resident = BusTrace(
            np.fromfile(os.path.join(corpus_dir, meta.file), dtype="<u8"),
            32,
            "bench-memory",
        )
        with _phase_timer(
            "bench.corpus", stage="read_memory", cycles=len(resident)
        ) as timer:
            seen = 0
            for chunk in iter_chunks(resident, DEFAULT_CHUNK_CYCLES):
                seen += len(chunk)
        add(
            "read_memory", seen, mbytes, timer.seconds,
            seen / max(timer.seconds, 1e-9) / 1e6, "Mcycles/s",
        )
    return records


def compare_serve_baseline(
    report: Dict[str, Any], baseline: Dict[str, Any], tolerance: float = 0.2
) -> List[str]:
    """Regressions of ``report``'s serve throughput vs ``baseline``.

    The gated quantity is ``speedup_vs_baseline`` — each scenario's
    throughput normalised to the same run's ``json-batch1`` corner —
    not absolute req/s, which tracks the host machine more than the
    code (the committed ``benchmarks/BENCH_SEED.json`` was measured on
    one box; CI runs on another).  The normalised ratio cancels the
    hardware and isolates what this gate exists to catch: the binary
    framing or the columnar batching path losing its edge over the
    JSON fallback.  A scenario regresses when its ratio falls more
    than ``tolerance`` (default 20%) below the committed one, goes
    missing, or stops verifying against the coder oracle.  Returns
    human-readable problem strings — empty means the gate passes.
    """
    problems: List[str] = []
    current = {r["scenario"]: r for r in report.get("serve", [])}
    for base in baseline.get("serve", []):
        name = base["scenario"]
        record = current.get(name)
        if record is None:
            problems.append(f"serve scenario {name!r} missing from the current report")
            continue
        if not record["identical"]:
            problems.append(f"{name}: served states diverged from the coder oracle")
        floor = base["speedup_vs_baseline"] * (1.0 - tolerance)
        if record["speedup_vs_baseline"] < floor:
            problems.append(
                f"{name}: {record['speedup_vs_baseline']:.2f}x vs json-batch1 "
                f"is below the regression floor {floor:.2f}x (baseline "
                f"{base['speedup_vs_baseline']:.2f}x - {tolerance:.0%})"
            )
    return problems


def _phase_breakdown(spans: List[Any]) -> List[Dict[str, Any]]:
    """Roll ``bench.*`` spans up into ``phases`` records.

    One record per distinct (span name, coder/sweep, mode) triple, e.g.
    ``bench.kernel/transition/fast`` — execution order preserved so the
    breakdown reads like the run.
    """
    groups: Dict[str, Dict[str, Any]] = {}
    for record in spans:
        if not record.name.startswith("bench."):
            continue
        sub = (
            record.attrs.get("coder")
            or record.attrs.get("sweep")
            or record.attrs.get("scenario")
            or record.attrs.get("stage")
        )
        mode = record.attrs.get("mode")
        phase = "/".join(
            str(part) for part in (record.name, sub, mode) if part is not None
        )
        group = groups.get(phase)
        if group is None:
            group = groups[phase] = {"phase": phase, "count": 0, "total_s": 0.0}
        group["count"] += 1
        group["total_s"] += float(record.dur)
    return list(groups.values())


def run_bench(quick: bool = False, jobs: Optional[int] = 1) -> Dict[str, Any]:
    """Run every benchmark and return the report dictionary.

    When observability is enabled, the returned report carries the
    optional ``phases`` key — the span-derived per-phase breakdown (see
    :func:`_phase_breakdown`).  With ``REPRO_OBS=0`` the key is absent
    and the rest of the report is produced identically.
    """
    tracer = obs.get_tracer()
    span_mark = tracer.mark()
    kernels = [_time_kernel(*case) for case in _kernel_cases(quick)]
    sweeps = _time_sweeps(quick, jobs)
    corpus = _time_corpus(quick)
    serve = _time_serve(quick)
    report: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "created": datetime.now(timezone.utc).isoformat(),
        "quick": bool(quick),
        "jobs": jobs if jobs is None else int(jobs),
        "numpy": np.__version__,
        "kernels": kernels,
        "sweeps": sweeps,
        "corpus": corpus,
        "serve": serve,
    }
    phases = _phase_breakdown(tracer.take_since(span_mark))
    if phases:
        report["phases"] = phases
    validate_bench_report(report)
    return report


_KERNEL_KEYS = {
    "coder": str,
    "cycles": int,
    "scalar_s": float,
    "fast_s": float,
    "speedup": float,
    "fast_mcycles_per_s": float,
    "identical": bool,
}
_SWEEP_KEYS = {
    "name": str,
    "cycles": int,
    "cold_s": float,
    "warm_s": float,
    "speedup": float,
}
_PHASE_KEYS = {
    "phase": str,
    "count": int,
    "total_s": float,
}
_CORPUS_KEYS = {
    "name": str,
    "cycles": int,
    "mbytes": float,
    "elapsed_s": float,
    "per_s": float,
    "unit": str,
}
_SERVE_KEYS = {
    "scenario": str,
    "framing": str,
    "batch_limit": int,
    "streams": int,
    "chunk_words": int,
    "requests": int,
    "cycles": int,
    "elapsed_s": float,
    "req_per_s": float,
    "mbytes_per_s": float,
    "identical": bool,
    "speedup_vs_baseline": float,
}


def _check_record(record: Any, keys: Dict[str, type], where: str) -> None:
    if not isinstance(record, dict):
        raise BenchSchemaError(f"{where}: expected an object, got {type(record).__name__}")
    for key, kind in keys.items():
        if key not in record:
            raise BenchSchemaError(f"{where}: missing key {key!r}")
        value = record[key]
        if kind is float:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif kind is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, kind)
        if not ok:
            raise BenchSchemaError(
                f"{where}: key {key!r} should be {kind.__name__}, "
                f"got {type(value).__name__}"
            )
    extra = set(record) - set(keys)
    if extra:
        raise BenchSchemaError(f"{where}: unexpected keys {sorted(extra)}")


def validate_bench_report(report: Any) -> None:
    """Raise :class:`BenchSchemaError` unless ``report`` matches
    :data:`BENCH_SCHEMA` exactly (top-level keys, record keys, types).

    The span-derived ``phases`` key is *optional* — validated when
    present, never required — so reports written before it existed (and
    ``REPRO_OBS=0`` runs, which cannot source span timings) stay valid.
    """
    if not isinstance(report, dict):
        raise BenchSchemaError(f"report must be an object, got {type(report).__name__}")
    if report.get("schema") != BENCH_SCHEMA:
        raise BenchSchemaError(
            f"schema tag {report.get('schema')!r} != {BENCH_SCHEMA!r}"
        )
    required = {"schema", "created", "quick", "jobs", "numpy", "kernels", "sweeps"}
    # `phases` needs observability on; `serve` and `corpus` postdate
    # the first committed reports.  All validate when present, none is
    # required, so older BENCH_*.json artifacts stay valid.
    optional = {"phases", "serve", "corpus"}
    missing = required - set(report)
    if missing:
        raise BenchSchemaError(f"missing top-level keys {sorted(missing)}")
    extra = set(report) - required - optional
    if extra:
        raise BenchSchemaError(f"unexpected top-level keys {sorted(extra)}")
    if not isinstance(report["created"], str):
        raise BenchSchemaError("'created' must be an ISO timestamp string")
    if not isinstance(report["quick"], bool):
        raise BenchSchemaError("'quick' must be a bool")
    if report["jobs"] is not None and not isinstance(report["jobs"], int):
        raise BenchSchemaError("'jobs' must be an int or null")
    if not isinstance(report["numpy"], str):
        raise BenchSchemaError("'numpy' must be a version string")
    for field, keys in (("kernels", _KERNEL_KEYS), ("sweeps", _SWEEP_KEYS)):
        records = report[field]
        if not isinstance(records, list) or not records:
            raise BenchSchemaError(f"'{field}' must be a non-empty list")
        for i, record in enumerate(records):
            _check_record(record, keys, f"{field}[{i}]")
    if "phases" in report:
        records = report["phases"]
        if not isinstance(records, list) or not records:
            raise BenchSchemaError("'phases', when present, must be a non-empty list")
        for i, record in enumerate(records):
            _check_record(record, _PHASE_KEYS, f"phases[{i}]")
    if "serve" in report:
        records = report["serve"]
        if not isinstance(records, list) or not records:
            raise BenchSchemaError("'serve', when present, must be a non-empty list")
        for i, record in enumerate(records):
            _check_record(record, _SERVE_KEYS, f"serve[{i}]")
    if "corpus" in report:
        records = report["corpus"]
        if not isinstance(records, list) or not records:
            raise BenchSchemaError("'corpus', when present, must be a non-empty list")
        for i, record in enumerate(records):
            _check_record(record, _CORPUS_KEYS, f"corpus[{i}]")


def default_report_path(directory: str = ".") -> str:
    """``BENCH_<UTC timestamp>.json`` in ``directory``."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return os.path.join(directory, f"BENCH_{stamp}.json")


def write_report(report: Dict[str, Any], path: Optional[str] = None) -> str:
    """Serialise ``report`` to ``path`` (default :func:`default_report_path`),
    re-validating the *serialised* form so drift cannot slip through the
    JSON round-trip (e.g. a non-finite float becoming ``Infinity``)."""
    target = path or default_report_path()
    text = json.dumps(report, indent=2, sort_keys=True)
    validate_bench_report(json.loads(text))
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return target
