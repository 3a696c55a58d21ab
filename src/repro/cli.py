"""Command-line interface: ``python -m repro <command> ...``.

Gives shell access to the library's main entry points:

* ``workloads``    — list the benchmark suite;
* ``run``          — execute a kernel, print pipeline statistics;
* ``stats``        — trace statistics (the Figure 7/8 quantities);
* ``encode``       — apply a coding scheme, print activity and savings;
* ``compare``      — all coding schemes side by side on one trace;
* ``crossover``    — break-even wire length for the window transcoder;
* ``table1`` / ``table2`` — regenerate the paper's first two tables;
* ``run``          — also runs the crash-resumable experiment matrices
  (:mod:`repro.runs`): ``savings``, ``crossover``, ``table3`` (Table 3)
  and ``faults`` (net savings vs bit-error rate per recovery policy);
* ``bench``        — time the vectorized kernels against their scalar
  oracles and the trace cache cold vs warm, emitting ``BENCH_*.json``;
* ``report``       — render the metrics/timing summary of a previous
  run's ``--obs-dir`` telemetry;
* ``serve``        — run the streaming trace-serving frontend
  (:mod:`repro.serve`): newline-JSON over TCP, per-connection
  streaming-transcoder sessions, bounded queue with backpressure;
* ``client``       — talk to a running server: ``ping`` (capabilities),
  ``encode`` (stream a workload trace through a session, verifying it
  against the local one-shot encode);
* ``chaos-soak`` / ``cluster-soak`` / ``run-soak`` — the acceptance
  soaks (:mod:`repro.soak`): auto-resuming clients through a seeded
  chaos proxy, SIGKILLed cluster workers, and a SIGKILLed-then-resumed
  run; each prints one verdict table and exits non-zero with one
  ``<command>: FAIL: <check>: <detail>`` stderr line per failed check.

``run <matrix>``, ``run-soak`` and ``bench`` accept
``--jobs N`` to fan independent cells across worker processes; results
are merged deterministically, so the output is identical to ``--jobs 1``.
``--jobs`` must be >= 1 everywhere; 0 or negative counts exit with the
one-line error contract instead of a silent fallback.

Trace-consuming commands accept ``--trace PATH`` to analyse a saved
``.npz`` trace instead of simulating a workload.

Observability (global flags, usable before or after the subcommand):

* ``--obs-dir DIR``    — export the run's telemetry as ``spans.jsonl``
  + ``metrics.jsonl`` (the input of ``repro report``);
* ``--trace-out PATH`` — export the run's spans as a Chrome
  ``trace_event`` file (``chrome://tracing`` / Perfetto loadable);
* ``-v`` / ``-q``      — debug-level logging / silence info chatter.
  All logging goes to **stderr** through :mod:`repro.obs.logs`; the
  stdout table/CSV output is unchanged by either flag.
* ``REPRO_OBS=0``      — environment kill switch: disables telemetry
  collection entirely (outputs are byte-identical either way; the
  exports just come out empty).

User errors (unknown coder or workload, unreadable or tampered trace
files, a tripped cycle watchdog) exit with code 1 and a one-line
``repro: error: ...`` message on stderr instead of a traceback — that
line is a stable contract, everything else on stderr is logging.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from typing import List, Optional

from . import obs
from .analysis import (
    CrossoverAnalysis,
    export_figures,
    format_table,
    run_bench,
    savings_for,
    write_report,
)
from .coding import (
    AdaptiveCodebookTranscoder,
    BusInvertTranscoder,
    ContextTranscoder,
    FCMTranscoder,
    InversionTranscoder,
    LastValueTranscoder,
    StrideTranscoder,
    Transcoder,
    WindowTranscoder,
    build_coder,
    parse_coder_spec,
)
from .cpu import CycleBudgetExceeded
from .energy import count_activity
from .faults.policies import DEFAULT_POLICIES
from .hardware import table2_summaries
from .soak import render_report
from .traces import TraceFormatError, coverage_at, load_trace, toggle_rate, window_unique_fraction
from .wires import TECHNOLOGIES, WireModel, technology_by_name
from .workloads import EXTENDED_WORKLOADS, WORKLOADS, run_workload

__all__ = ["main"]

log = obs.get_logger("cli")

BUSES = ("register", "memory", "address", "result")

#: Default workload trio for the faults matrix: two int kernels and one fp.
FAULT_SWEEP_WORKLOADS = ("gcc", "ijpeg", "swim")


def _build_coder(name: str, size: int, width: int = 32) -> Transcoder:
    """:func:`repro.coding.build_coder`, with the historical ``encode``
    behaviour of exiting directly on an unknown family name."""
    try:
        return build_coder(name, size, width)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


#: Compact spec parsing is shared verbatim with the serving protocol —
#: a ``--coder`` value that works here works in an ``open`` request.
_parse_coder_spec = parse_coder_spec


def _parse_float_list(spec: str, flag: str) -> List[float]:
    try:
        values = [float(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated list of numbers, got {spec!r}") from None
    if not values:
        raise ValueError(f"{flag} expects at least one value")
    return values


def _trace_for(args: argparse.Namespace):
    path = getattr(args, "trace", None)
    if path:
        return load_trace(path)
    if not args.workload:
        raise ValueError("provide a workload name or --trace PATH")
    result = run_workload(args.workload, args.cycles)
    return getattr(result, f"{args.bus}_trace")


def _cmd_workloads(args: argparse.Namespace) -> None:
    if getattr(args, "list", False):
        # The registry view: every stream the library can serve, with
        # cycle counts and content digests.  Suite rows are keyed by
        # the program hash (what keys the trace cache); corpus rows by
        # the manifest's content digest.
        from .corpus import CorpusReader
        from .workloads import DEFAULT_CYCLES, program_hash

        rows = []
        for name in sorted(set(WORKLOADS) | set(EXTENDED_WORKLOADS)):
            rows.append((name, "suite", 32, DEFAULT_CYCLES, program_hash(name)))
        for directory in getattr(args, "corpus", None) or []:
            reader = CorpusReader(directory)
            for meta in reader.shards:
                rows.append(
                    (meta.name, f"corpus/{meta.kind}", meta.width,
                     meta.cycles, meta.sha256[:16])
                )
        print(format_table(["name", "kind", "width", "cycles", "digest"], rows))
        return
    rows = [
        (w.name, w.category, w.description) for w in WORKLOADS.values()
    ]
    print(format_table(["name", "class", "kernel"], sorted(rows)))


def _corpus_rows(shards) -> List[tuple]:
    return [
        (meta.name, meta.kind, meta.width, meta.cycles,
         meta.sha256[:16], meta.source or "-")
        for meta in shards
    ]


_CORPUS_COLUMNS = ["stream", "kind", "width", "cycles", "digest", "source"]


def _cmd_corpus(args: argparse.Namespace) -> int:
    from .corpus import (
        CorpusReader,
        CorpusWriter,
        ParametricGenerator,
        import_binary,
        import_npz,
        record_workload,
    )

    verb = args.corpus_cmd
    if verb == "build":
        generator = ParametricGenerator(
            args.profile, seed=args.seed, cycles=args.cycles, width=args.width
        )
        with CorpusWriter(args.directory) as writer:
            metas = [
                writer.add_chunks(
                    generator.stream_name(index),
                    generator.chunks(index),
                    generator.width,
                    source=generator.describe(),
                )
                for index in range(args.streams)
            ]
        print(
            format_table(
                _CORPUS_COLUMNS,
                _corpus_rows(metas),
                title=f"corpus build | {args.directory} | {generator.describe()}",
            )
        )
        return 0
    if verb == "import":
        with CorpusWriter(args.directory) as writer:
            metas = []
            for path in args.files:
                if path.endswith(".npz"):
                    metas.append(
                        import_npz(writer, path, convert=not args.keep_npz)
                    )
                else:
                    if args.width is None:
                        raise ValueError(
                            f"--width is required to import raw binary {path!r}"
                        )
                    metas.append(import_binary(writer, path, args.width))
        print(
            format_table(
                _CORPUS_COLUMNS,
                _corpus_rows(metas),
                title=f"corpus import | {args.directory}",
            )
        )
        return 0
    if verb == "ls":
        reader = CorpusReader(args.directory)
        print(
            format_table(
                _CORPUS_COLUMNS,
                _corpus_rows(reader.shards),
                title=f"corpus | {args.directory} | {len(reader)} streams",
            )
        )
        return 0
    if verb == "verify":
        reader = CorpusReader(args.directory)
        names = reader.verify(args.stream)
        print(f"corpus verify: {len(names)} stream(s) digest-verified ok")
        return 0
    # record: capture a suite workload's live bus traffic as shards.
    buses = BUSES if args.bus == "all" else (args.bus,)
    with CorpusWriter(args.directory) as writer:
        metas = record_workload(writer, args.workload, args.cycles, buses)
    print(
        format_table(
            _CORPUS_COLUMNS,
            _corpus_rows(metas),
            title=f"corpus record | {args.workload}@{args.cycles}",
        )
    )
    return 0


def _default_matrix_sources(matrix: str, args: argparse.Namespace) -> tuple:
    """The suite-derived default workload sources for a matrix."""
    if matrix == "faults":
        names = FAULT_SWEEP_WORKLOADS
    else:
        names = tuple(sorted(WORKLOADS))
    return tuple(
        f"suite:{name}/{args.bus}@{args.cycles}" for name in names
    )


_DEFAULT_MATRIX_CODERS = {
    "savings": "window8",
    "crossover": "window8,window16",
    "table3": "window8,window16",
    "faults": "window8",
}


def _split_csv(text: str, flag: str) -> tuple:
    parts = tuple(part.strip() for part in text.split(",") if part.strip())
    if not parts:
        raise ValueError(f"{flag} expects at least one value")
    return parts


def _cmd_run_matrix(args: argparse.Namespace) -> int:
    from .runs import ExecutorOptions, RunConfig, run_matrix

    config = None
    if args.target is not None:
        matrix = args.target
        sources = tuple(args.source or ()) or _default_matrix_sources(matrix, args)
        coders = _split_csv(
            args.coders or _DEFAULT_MATRIX_CODERS[matrix], "--coders"
        )
        technologies: tuple = ()
        if matrix in ("crossover", "table3"):
            technologies = _split_csv(
                args.technologies or ",".join(t.name for t in TECHNOLOGIES),
                "--technologies",
            )
        bers: tuple = ()
        policies: tuple = ()
        if matrix == "faults":
            bers = tuple(_parse_float_list(args.ber, "--ber"))
            policies = _split_csv(args.policies, "--policies")
        config = RunConfig(
            matrix=matrix,
            sources=sources,
            coders=coders,
            technologies=technologies,
            bers=bers,
            policies=policies,
            lam=args.lam,
            seed=args.seed,
            streams=args.streams,
        )
    options = ExecutorOptions(
        jobs=args.jobs,
        timeout_s=args.cell_timeout,
        retries=args.retries,
        breaker_threshold=args.breaker_threshold,
        batch=args.batch,
        kill_at=args.kill_at,
        chaos=tuple(args.chaos or ()),
        strict=args.strict,
    )
    result = run_matrix(
        config,
        args.runs_dir,
        run_id=args.run_id,
        resume=args.resume,
        options=options,
    )
    print(result.summary_text, end="")
    print(
        f"run {result.run_id}: {result.status} | "
        f"{len(result.results)}/{len(result.cells)} cells "
        f"({result.skipped} skipped, {result.retried} retried, "
        f"{result.quarantined} quarantined) | "
        f"{os.path.join(args.runs_dir, result.run_id)}"
    )
    if result.failed:
        log.warning(
            "run finished degraded; failed cells are marked in the table",
            extra=obs.fields(failed=len(result.failed)),
        )
    return result.exit_code(args.strict)


def _cmd_run_soak(args: argparse.Namespace) -> int:
    from .runs.soak import run_soak

    report = run_soak(
        directory=args.dir, quick=args.quick, seed=args.seed, jobs=args.jobs
    )
    stats = report.stats
    return render_report(
        report,
        "run-soak",
        f"run soak | seed {args.seed} | "
        f"kill at {stats['kill_at']}/{stats['cells']} cells",
    )


def _soak_config(cls, args: argparse.Namespace, **overrides):
    """``cls.quick`` under ``--quick``, else ``cls``; then the flags
    that were given.  The config's ``__post_init__`` validates."""
    config = cls.quick(seed=args.seed) if args.quick else cls(seed=args.seed)
    given = {key: value for key, value in overrides.items() if value is not None}
    return dataclasses.replace(config, **given)


def _cmd_run(args: argparse.Namespace) -> object:
    from .runs import MATRICES

    # Dispatch: `repro run <matrix>` (or a bare `--resume`) drives the
    # resumable orchestration layer; `repro run <workload>` keeps its
    # historical meaning (execute a kernel, print pipeline statistics).
    if args.target in MATRICES or (args.target is None and args.resume is not None):
        return _cmd_run_matrix(args)
    if args.target is None:
        raise ValueError(
            "run expects a workload name or a matrix "
            "(savings, crossover, table3, faults); see `repro workloads`"
        )
    result = run_workload(args.target, args.cycles)
    stats = result.stats
    rows = [
        ("instructions", stats.instructions),
        ("cycles", stats.cycles),
        ("IPC", round(stats.ipc, 3)),
        ("loads", stats.loads),
        ("load miss rate", round(stats.load_miss_rate, 4)),
        ("stores", stats.stores),
        ("taken branches", stats.taken_branches),
    ]
    print(format_table(["metric", "value"], rows, title=f"{args.target}"))
    return 0


def _cmd_stats(args: argparse.Namespace) -> None:
    trace = _trace_for(args)
    rows = [
        ("cycles", len(trace)),
        ("unique values", trace.unique_values().size),
        ("toggle rate", round(toggle_rate(trace), 4)),
        ("top-10 value coverage", round(coverage_at(trace, 10), 4)),
        ("top-100 value coverage", round(coverage_at(trace, 100), 4)),
        ("unique fraction, window 8", round(window_unique_fraction(trace, 8), 4)),
        ("unique fraction, window 64", round(window_unique_fraction(trace, 64), 4)),
    ]
    print(format_table(["statistic", "value"], rows, title=trace.name))


def _cmd_encode(args: argparse.Namespace) -> None:
    trace = _trace_for(args)
    coder = _build_coder(args.coder, args.size)
    coded = coder.encode_trace(trace)
    before = count_activity(trace)
    after = count_activity(coded)
    rows = [
        ("physical wires", f"{coder.input_width} -> {coder.output_width}"),
        ("transitions", f"{before.total_transitions} -> {after.total_transitions}"),
        ("coupling events", f"{before.total_coupling} -> {after.total_coupling}"),
        ("energy removed (lambda=1)", f"{savings_for(trace, coder):.2f} %"),
    ]
    print(format_table(["quantity", "value"], rows, title=f"{trace.name} | {args.coder}"))


def _cmd_compare(args: argparse.Namespace) -> None:
    trace = _trace_for(args)
    coders = [
        ("last", LastValueTranscoder(32)),
        ("invert", InversionTranscoder(32, 1)),
        ("businvert x4", BusInvertTranscoder(32, 4)),
        ("stride-8", StrideTranscoder(8, 32)),
        ("codebook-8", AdaptiveCodebookTranscoder(32, 8)),
        ("fcm-2/16", FCMTranscoder(2, 4, 32)),
        ("window-8", WindowTranscoder(8, 32)),
        ("context-28+8", ContextTranscoder(28, 8)),
    ]
    rows = [(name, savings_for(trace, coder)) for name, coder in coders]
    print(
        format_table(
            ["coder", "% energy removed"], rows, precision=1, title=trace.name
        )
    )


def _cmd_crossover(args: argparse.Namespace) -> None:
    trace = _trace_for(args)
    tech = technology_by_name(args.technology)
    analysis = CrossoverAnalysis(trace, tech, args.size)
    crossover = analysis.crossover_length()
    rows = [
        ("technology", tech.name),
        ("window entries", args.size),
        ("ratio at 5 mm", round(analysis.ratio(5.0), 3)),
        ("ratio at 15 mm", round(analysis.ratio(15.0), 3)),
        ("ratio at 30 mm", round(analysis.ratio(30.0), 3)),
        ("crossover", "never (<100mm)" if crossover is None else f"{crossover:.1f} mm"),
    ]
    print(format_table(["quantity", "value"], rows, title=trace.name))


def _cmd_table1(args: argparse.Namespace) -> None:
    rows = []
    for tech in TECHNOLOGIES:
        rows.append((tech.name, "Unbuffered wire",
                     round(WireModel(tech, 30, buffered=False).effective_lambda, 3)))
        rows.append((tech.name, "With repeaters",
                     round(WireModel(tech, 30, buffered=True).effective_lambda, 3)))
    print(format_table(["Technology", "Wire type", "Average lambda"], rows))


def _cmd_table2(args: argparse.Namespace) -> None:
    trace = _trace_for(args)
    rows = [
        (
            row.name if row.name == "InvertCoder" else row.technology.name,
            row.voltage,
            round(row.area_um2),
            round(row.op_energy_pj, 3),
            round(row.leakage_pj, 5),
            round(row.delay_ns, 1),
            round(row.cycle_time_ns, 1),
        )
        for row in table2_summaries(trace)
    ]
    print(
        format_table(
            ["Design", "V", "Area um2", "Op pJ", "Leak pJ", "Delay ns", "Cycle ns"],
            rows,
            title=f"characterised on {trace.name}",
        )
    )


def _cmd_figures(args: argparse.Namespace) -> None:
    paths = export_figures(args.directory, args.cycles)
    rows = sorted(paths.items())
    print(format_table(["dataset", "file"], rows))


def _cmd_bench(args: argparse.Namespace) -> int:
    report = run_bench(quick=args.quick, jobs=args.jobs)
    kernel_rows = [
        (
            k["coder"],
            k["cycles"],
            f"{k['scalar_s'] * 1e3:.1f}",
            f"{k['fast_s'] * 1e3:.1f}",
            f"{k['speedup']:.1f}x",
            f"{k['fast_mcycles_per_s']:.1f}",
            "yes" if k["identical"] else "NO",
        )
        for k in report["kernels"]
    ]
    print(
        format_table(
            ["kernel", "cycles", "scalar ms", "fast ms", "speedup", "Mcyc/s", "identical"],
            kernel_rows,
            title="vectorized kernels vs scalar oracle",
        )
    )
    sweep_rows = [
        (
            s["name"],
            s["cycles"],
            f"{s['cold_s']:.3f}",
            f"{s['warm_s']:.3f}",
            f"{s['speedup']:.1f}x",
        )
        for s in report["sweeps"]
    ]
    print(
        format_table(
            ["sweep", "cycles", "cold s", "warm s", "speedup"],
            sweep_rows,
            title="trace-cache cold vs warm",
        )
    )
    corpus_rows = [
        (
            c["name"],
            c["cycles"],
            f"{c['mbytes']:.1f}",
            f"{c['elapsed_s']:.3f}",
            f"{c['per_s']:.1f}",
            c["unit"],
        )
        for c in report["corpus"]
    ]
    print(
        format_table(
            ["stage", "cycles", "MB", "elapsed s", "rate", "unit"],
            corpus_rows,
            title="corpus: generator / ingest / mmap vs in-memory read",
        )
    )
    serve_rows = [
        (
            s["scenario"],
            s["requests"],
            f"{s['req_per_s']:.0f}",
            f"{s['mbytes_per_s']:.1f}",
            f"{s['speedup_vs_baseline']:.1f}x",
            "yes" if s["identical"] else "NO",
        )
        for s in report["serve"]
    ]
    print(
        format_table(
            ["scenario", "requests", "req/s", "MB/s", "vs json-batch1", "identical"],
            serve_rows,
            title="serve throughput (framing x batching)",
        )
    )
    # write_report re-validates the *serialised* JSON; schema drift
    # raises BenchSchemaError (a ValueError), which main() turns into
    # exit code 1 — the --quick smoke-check contract.
    path = write_report(report, args.output)
    log.info("bench report written", extra=obs.fields(path=path))
    if args.baseline is not None:
        import json

        from .analysis.bench import compare_serve_baseline

        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        problems = compare_serve_baseline(report, baseline)
        for problem in problems:
            print(f"bench: serve regression: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"bench: serve throughput within tolerance of {args.baseline}")
    return 0


def _cmd_report(args: argparse.Namespace) -> None:
    from .obs.report import load_run, render_report

    spans, metrics = load_run(args.path)
    print(render_report(spans, metrics))


@contextlib.asynccontextmanager
async def _stop_on_signals():
    """Install SIGTERM/SIGINT handlers; yields the stop event.

    Installing real signal handlers (instead of riding the default
    ``KeyboardInterrupt``) is what lets a supervisor SIGTERM a worker
    and get a *clean drain and exit 0* rather than a -15 corpse — the
    cluster's graceful-stop contract depends on it.  Enter this BEFORE
    announcing any bound port: the announcement is the supervisor's
    cue that the worker is fair game for signals, so the handlers must
    already be armed when it prints.
    """
    import asyncio
    import signal

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-POSIX loop; KeyboardInterrupt still works
    try:
        yield stop
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)


async def _serve_until_signalled(forever: "asyncio.Task", stop) -> None:
    """Await ``forever`` until it ends or the armed ``stop`` event
    (from :func:`_stop_on_signals`) fires; cancels both on the way out."""
    import asyncio

    waiter = asyncio.ensure_future(stop.wait())
    try:
        await asyncio.wait({forever, waiter}, return_when=asyncio.FIRST_COMPLETED)
    finally:
        for task in (waiter, forever):
            task.cancel()
        await asyncio.gather(waiter, forever, return_exceptions=True)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import ports
    from .serve.server import TraceServer

    # With --obs-dir the server also keeps a flight recorder there: a
    # crash-durable journal of recent engine events the supervisor
    # harvests post-mortem.  (No-op under REPRO_OBS=0.)
    obs_dir = getattr(args, "obs_dir", None)
    if obs_dir:
        obs.configure_flight(os.path.join(obs_dir, obs.FLIGHT_FILENAME))

    async def run() -> None:
        server = TraceServer(
            host=args.host,
            port=args.port,
            queue_limit=args.queue_limit,
            batch_limit=args.batch_limit,
            request_timeout_s=args.timeout if args.timeout > 0 else None,
            session_idle_timeout_s=(
                args.session_idle_timeout if args.session_idle_timeout > 0 else None
            ),
        )
        async with _stop_on_signals() as stop:
            await server.start()
            # One stable stdout line so scripts (and the cluster
            # supervisor) learn the bound port even with --port 0.
            ports.announce_listening("serve", server.host, server.port)
            try:
                await _serve_until_signalled(
                    asyncio.ensure_future(server.serve_forever()), stop
                )
            finally:
                log.info("draining", extra=obs.fields(timeout_s=args.drain_timeout))
                await server.stop(drain_timeout_s=args.drain_timeout)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        log.info("interrupted; server stopped")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import ports
    from .serve.cluster import TraceCluster
    from .serve.supervisor import WorkerSpec

    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")

    # The router keeps its own flight recorder next to its telemetry
    # export; each worker keeps one under --worker-obs-dir (the
    # supervisor passes --obs-dir down their command lines).
    obs_dir = getattr(args, "obs_dir", None)
    if obs_dir:
        obs.configure_flight(os.path.join(obs_dir, obs.FLIGHT_FILENAME))

    async def run() -> None:
        cluster = TraceCluster(
            workers=args.workers,
            host=args.host,
            port=args.port,
            spec=WorkerSpec(
                queue_limit=args.queue_limit,
                batch_limit=args.batch_limit,
                request_timeout_s=args.timeout,
                drain_timeout_s=args.drain_timeout,
                obs_dir=args.worker_obs_dir,
            ),
            checkpoint_every=args.checkpoint_every,
            rebalance_on_join=True,
            seed=args.seed,
        )
        async with _stop_on_signals() as stop:
            await cluster.start()
            # The router's line first, then one per worker (restarted
            # workers re-announce through the supervisor's log instead).
            ports.announce_listening("cluster", cluster.host, cluster.port)
            for worker_id, handle in sorted(cluster.supervisor.handles.items()):
                if handle.port is not None:
                    ports.announce_listening(
                        f"cluster: worker {worker_id}", cluster.host, handle.port
                    )
            try:
                await _serve_until_signalled(
                    asyncio.ensure_future(cluster.router.serve_forever()), stop
                )
            finally:
                log.info("draining", extra=obs.fields(timeout_s=args.drain_timeout))
                await cluster.stop(drain_timeout_s=args.drain_timeout)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        log.info("interrupted; cluster stopped")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.loadgen import LoadgenConfig, run_loadgen

    config = LoadgenConfig(
        host=args.host,
        port=args.port,
        mode=args.mode,
        streams=args.streams,
        chunks=args.chunks,
        chunk=args.chunk,
        rate=args.rate,
        seed=args.seed,
        sessions_per_spec=args.sessions_per_spec,
        binary=args.binary,
        corpus=args.corpus,
    )
    report = asyncio.run(run_loadgen(config))
    offered = report.offered
    rows = [
        ("mode", config.mode),
        ("framing", "binary" if config.binary else "json"),
        ("workload source", config.corpus or "synthetic (built-in)"),
        ("streams", config.streams),
        ("sessions per spec", config.sessions_per_spec),
        ("chunks fed", f"{report.chunks_done}/{offered}"),
        ("chunks failed", report.chunks_failed),
        ("cycles encoded", report.cycles),
        ("throughput", f"{report.throughput_cps:.0f} cycles/s"),
        ("feed latency p50", f"{report.quantile(0.50) * 1e3:.2f} ms"),
        ("feed latency p90", f"{report.quantile(0.90) * 1e3:.2f} ms"),
        ("feed latency p99", f"{report.quantile(0.99) * 1e3:.2f} ms"),
        ("session resumes", report.resumes),
        ("reconnects", report.reconnects),
        ("elapsed", f"{report.elapsed_s:.2f} s"),
    ]
    print(
        format_table(
            ["quantity", "value"],
            rows,
            title=f"loadgen | {args.host}:{args.port} | seed {config.seed}",
        )
    )
    for error in report.errors:
        print(f"loadgen: error: {error}", file=sys.stderr)
    return 0 if report.chunks_done == offered else 1


def _cmd_cluster_soak(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.soak import ClusterSoakConfig, run_cluster_soak

    config = _soak_config(
        ClusterSoakConfig,
        args,
        workers=args.workers,
        clients=args.clients,
        cycles=args.cycles,
        chunk=args.chunk,
        kills=args.kills,
        obs_dir=args.worker_obs_dir,
        corpus=args.corpus,
    )
    report = asyncio.run(run_cluster_soak(config))
    return render_report(
        report,
        "cluster-soak",
        f"cluster soak | seed {config.seed} | {config.workers} workers, "
        f"{config.clients} clients",
    )


def _cmd_top(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.telemetry import run_top

    if args.interval <= 0:
        raise ValueError(f"--interval must be > 0, got {args.interval}")
    try:
        asyncio.run(
            run_top(
                args.host,
                args.port,
                interval_s=args.interval,
                once=args.once,
                as_json=args.json,
                iterations=args.iterations,
            )
        )
    except KeyboardInterrupt:
        pass  # ^C out of the polling loop is the normal exit
    except OSError as exc:
        raise ValueError(
            f"cannot connect to {args.host}:{args.port} ({exc}); "
            f"is `repro serve` or `repro cluster` running?"
        ) from None
    return 0


def _cmd_trace_stitch(args: argparse.Namespace) -> int:
    from .obs.stitch import stitch_run

    result = stitch_run(args.inputs, args.out)
    rows = [
        ("sources", result["sources"]),
        ("spans", result["spans"]),
        ("flow arrows", result["flows"]),
        ("written", result["out"]),
    ]
    print(
        format_table(
            ["quantity", "value"],
            rows,
            title="stitched trace (load in chrome://tracing or Perfetto)",
        )
    )
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import asyncio

    import numpy as np

    from .serve.client import TraceClient
    from .traces.streaming import iter_chunks
    from .traces.trace import BusTrace

    if args.op != "ping" and not args.workload:
        raise ValueError(f"client {args.op} needs a workload name")
    if args.chunk < 1:
        raise ValueError(f"--chunk must be >= 1, got {args.chunk}")

    async def run() -> None:
        try:
            client = await TraceClient.connect(args.host, args.port)
        except OSError as exc:
            raise ValueError(
                f"cannot connect to {args.host}:{args.port} ({exc}); "
                f"is `repro serve` running?"
            ) from None
        try:
            if args.op == "ping":
                hello = await client.hello()
                rows = [
                    ("server", hello["server"]),
                    ("protocol", hello["protocol"]),
                    ("coders", ", ".join(hello["coders"])),
                    ("policies", ", ".join(hello["policies"])),
                    ("queue limit", hello["queue_limit"]),
                    ("batch limit", hello["batch_limit"]),
                ]
                print(format_table(["server", "value"], rows, title=f"{args.host}:{args.port}"))
            else:  # encode: stream a workload trace chunk by chunk
                result = run_workload(args.workload, args.cycles)
                trace = getattr(result, f"{args.bus}_trace")
                stream = await client.open_stream(
                    args.coder, width=trace.width, policy=args.policy
                )
                states: List[int] = []
                chunks = 0
                for chunk in iter_chunks(trace, args.chunk):
                    states.extend(await stream.feed(chunk.values.tolist()))
                    chunks += 1
                coded = BusTrace(
                    np.asarray(states, dtype=np.uint64),
                    stream.output_width,
                    f"{trace.name}|{args.coder}@serve",
                )
                await stream.close()
                before = count_activity(trace)
                after = count_activity(coded)
                local = _parse_coder_spec(args.coder, trace.width).encode_trace(trace)
                identical = bool(np.array_equal(local.values, coded.values))
                rows = [
                    ("cycles streamed", len(coded)),
                    ("chunks", chunks),
                    ("physical wires", f"{trace.width} -> {stream.output_width}"),
                    ("transitions", f"{before.total_transitions} -> {after.total_transitions}"),
                    ("matches one-shot encode", "yes" if identical else "NO"),
                ]
                print(
                    format_table(
                        ["quantity", "value"],
                        rows,
                        title=f"{trace.name} | {args.coder} (streamed)",
                    )
                )
                if not identical:
                    raise ValueError(
                        "served stream disagrees with the local one-shot encode"
                    )
        finally:
            await client.close()

    asyncio.run(run())
    return 0


def _cmd_chaos_soak(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.soak import ChaosSoakConfig, run_chaos_soak

    config = _soak_config(
        ChaosSoakConfig, args, clients=args.clients, cycles=args.cycles, chunk=args.chunk
    )
    report = asyncio.run(run_chaos_soak(config))
    return render_report(
        report,
        "chaos-soak",
        f"chaos soak | seed {config.seed} | {config.clients} clients",
    )


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool = False) -> None:
    """The observability/verbosity flags, on the top-level parser and —
    with ``SUPPRESS`` defaults, so they never clobber values already
    parsed — on every subparser (usable before *or* after the command).
    """

    def default(value):
        return argparse.SUPPRESS if suppress else value

    group = parser.add_argument_group("observability")
    group.add_argument(
        "--obs-dir",
        metavar="DIR",
        default=default(None),
        help="export this run's telemetry (spans.jsonl + metrics.jsonl) "
        "to DIR; read it back with `repro report DIR`",
    )
    group.add_argument(
        "--trace-out",
        metavar="PATH",
        default=default(None),
        help="export this run's spans as a Chrome trace_event file "
        "(chrome://tracing / Perfetto loadable)",
    )
    group.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=default(0),
        help="debug-level logging on stderr",
    )
    group.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        default=default(False),
        help="silence info-level logging (stdout tables are unaffected)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bus transcoding reproduction: run workloads, encode traces, "
        "regenerate the paper's tables.",
    )
    _add_global_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, workload=True, bus=True):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=func)
        if workload:
            if bus:
                # Trace-consuming commands can read a saved trace file
                # instead of simulating a workload.
                cmd.add_argument("workload", nargs="?", choices=sorted(WORKLOADS))
                cmd.add_argument(
                    "--trace",
                    metavar="PATH",
                    help="analyse a saved .npz trace instead of a workload",
                )
            else:
                cmd.add_argument("workload", choices=sorted(WORKLOADS))
        if bus:
            cmd.add_argument("--bus", choices=BUSES, default="register")
        cmd.add_argument("--cycles", type=int, default=30_000)
        return cmd

    listing = sub.add_parser("workloads", help="list the benchmark suite")
    listing.set_defaults(func=_cmd_workloads)
    listing.add_argument(
        "--list",
        action="store_true",
        help="registry view: every suite workload (and, with --corpus, "
        "every corpus stream) with cycle counts and content digests",
    )
    listing.add_argument(
        "--corpus",
        metavar="DIR",
        action="append",
        help="also list the streams of this corpus directory (repeatable)",
    )

    corpus = sub.add_parser(
        "corpus",
        help="workload corpora: build generator populations, import/record "
        "traces into shards, verify digests",
    )
    corpus.set_defaults(func=_cmd_corpus)
    cverb = corpus.add_subparsers(dest="corpus_cmd", required=True)
    cbuild = cverb.add_parser(
        "build", help="materialize generator streams as corpus shards"
    )
    cbuild.add_argument("directory")
    cbuild.add_argument(
        "--profile",
        default="mixed",
        help="generator profile (uniform, locality, stride, bursty, "
        "lowentropy, phased, mixed; default mixed)",
    )
    cbuild.add_argument("--seed", type=int, default=0)
    cbuild.add_argument(
        "--streams", type=int, default=4, help="streams to materialize"
    )
    cbuild.add_argument("--cycles", type=int, default=4096)
    cbuild.add_argument("--width", type=int, default=32)
    cimport = cverb.add_parser(
        "import", help="import raw uint64 binary or .npz trace files as shards"
    )
    cimport.add_argument("directory")
    cimport.add_argument("files", nargs="+", metavar="FILE")
    cimport.add_argument(
        "--width",
        type=int,
        default=None,
        help="bus width for raw binary files (required for .u64/.bin)",
    )
    cimport.add_argument(
        "--keep-npz",
        action="store_true",
        help="register .npz files verbatim instead of converting to raw "
        "(npz shards cannot be memory-mapped on read)",
    )
    cls = cverb.add_parser("ls", help="list a corpus's streams")
    cls.add_argument("directory")
    cverify = cverb.add_parser(
        "verify", help="stream every shard and check its content digest"
    )
    cverify.add_argument("directory")
    cverify.add_argument(
        "--stream", default=None, help="verify one stream instead of all"
    )
    crecord = cverb.add_parser(
        "record", help="run a suite benchmark and record its bus traffic"
    )
    crecord.add_argument("directory")
    crecord.add_argument("workload")
    crecord.add_argument(
        "--bus",
        choices=BUSES + ("all",),
        default="register",
        help="which bus to record (default register; 'all' records four "
        "shards)",
    )
    crecord.add_argument("--cycles", type=int, default=30_000)
    from .runs import MATRICES

    runcmd = sub.add_parser(
        "run",
        help="run a kernel (workload name) or a crash-resumable experiment "
        "matrix (savings, crossover, table3, faults)",
    )
    runcmd.set_defaults(func=_cmd_run)
    runcmd.add_argument(
        "target",
        nargs="?",
        metavar="WORKLOAD|MATRIX",
        choices=sorted(WORKLOADS) + list(MATRICES),
        help="a workload name (kernel statistics) or a matrix kind "
        "(resumable ledger-journalled run)",
    )
    runcmd.add_argument("--cycles", type=int, default=30_000)
    runcmd.add_argument("--bus", choices=BUSES, default="register")
    matrixgrp = runcmd.add_argument_group("experiment matrices")
    matrixgrp.add_argument(
        "--source",
        action="append",
        metavar="SPEC",
        help="workload source (corpus:DIR[#stream], gen:profile,..., "
        "suite:NAME[/BUS][@cycles]); repeatable.  Default: the built-in "
        "suite on --bus at --cycles",
    )
    matrixgrp.add_argument(
        "--coders",
        help="comma-separated coder specs (matrix-specific default)",
    )
    matrixgrp.add_argument(
        "--technologies",
        help="comma-separated technology nodes for crossover/table3 "
        "(default: all)",
    )
    matrixgrp.add_argument(
        "--ber",
        default="1e-6,1e-5,1e-4",
        help="comma-separated bit-error rates (faults matrix)",
    )
    matrixgrp.add_argument(
        "--policies",
        default=",".join(DEFAULT_POLICIES),
        help="comma-separated recovery policies (faults matrix)",
    )
    matrixgrp.add_argument("--lam", type=float, default=1.0)
    matrixgrp.add_argument("--seed", type=int, default=0)
    matrixgrp.add_argument(
        "--streams",
        type=int,
        default=0,
        help="cap the streams taken from each source (0 = whole population)",
    )
    matrixgrp.add_argument(
        "--runs-dir",
        default="runs",
        metavar="DIR",
        help="where run directories (ledger, artifacts, summaries) live",
    )
    matrixgrp.add_argument(
        "--run-id",
        help="explicit run id (default: <matrix>-<config digest prefix>)",
    )
    matrixgrp.add_argument(
        "--resume",
        nargs="?",
        const="",
        metavar="RUN_ID",
        help="resume an interrupted run: replay its ledger, verify every "
        "recorded artifact's digest (corrupt/missing -> quarantine + "
        "re-run) and execute only the incomplete cells.  With no value, "
        "resumes the run id derived from the matrix arguments",
    )
    matrixgrp.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero when any cell stays failed (default: emit the "
        "degraded summary with FAILED:<class> holes and exit 0)",
    )
    matrixgrp.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the matrix cells (must be >= 1)",
    )
    matrixgrp.add_argument(
        "--cell-timeout",
        type=float,
        metavar="SECONDS",
        help="per-cell wall-clock watchdog; expiries are transient "
        "(retried), not fatal",
    )
    matrixgrp.add_argument(
        "--retries",
        type=int,
        default=3,
        help="max attempts for a transient-failing cell (default 3)",
    )
    matrixgrp.add_argument(
        "--breaker-threshold",
        type=int,
        default=4,
        help="consecutive failures that open a (matrix, coder-family) "
        "circuit breaker (default 4)",
    )
    matrixgrp.add_argument(
        "--batch",
        type=int,
        default=0,
        help="cells per executor batch (0 = auto)",
    )
    # Soak/testing knobs: the scripted crash injector and chaos script.
    matrixgrp.add_argument("--kill-at", type=int, help=argparse.SUPPRESS)
    matrixgrp.add_argument("--chaos", action="append", help=argparse.SUPPRESS)

    runsoak = sub.add_parser(
        "run-soak",
        help="kill-the-runner acceptance gate: SIGKILL a seeded matrix "
        "mid-run, corrupt an artifact, resume, and verify byte-identical "
        "aggregate outputs",
    )
    runsoak.set_defaults(func=_cmd_run_soak)
    runsoak.add_argument(
        "--quick", action="store_true", help="small matrix (the CI gate)"
    )
    runsoak.add_argument("--seed", type=int, default=7)
    runsoak.add_argument(
        "--jobs", type=int, default=2, help="worker processes per run"
    )
    runsoak.add_argument(
        "--dir",
        metavar="DIR",
        help="keep ledgers/quarantine records here for artifact upload "
        "(default: a temp dir, deleted when every check passes)",
    )
    add("stats", _cmd_stats, "trace statistics (Figure 7/8 quantities)")
    encode = add("encode", _cmd_encode, "apply one coding scheme to a trace")
    encode.add_argument("--coder", default="window")
    encode.add_argument("--size", type=int, default=8)
    add("compare", _cmd_compare, "all coding schemes on one trace")
    crossover = add("crossover", _cmd_crossover, "break-even wire length")
    crossover.add_argument("--technology", default="0.13um")
    crossover.add_argument("--size", type=int, default=8)

    table1 = sub.add_parser("table1", help="effective lambda per technology")
    table1.set_defaults(func=_cmd_table1)
    add("table2", _cmd_table2, "transcoder circuit characteristics")
    bench = sub.add_parser(
        "bench",
        help="time the vectorized kernels and the trace cache, emit BENCH_*.json",
    )
    bench.set_defaults(func=_cmd_bench)
    bench.add_argument(
        "--quick",
        action="store_true",
        help="small traces/sweeps; still validates the report schema "
        "(exits 1 on drift)",
    )
    bench.add_argument(
        "--output",
        metavar="PATH",
        help="report path (default BENCH_<timestamp>.json in the cwd)",
    )
    bench.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep benchmarks (must be >= 1)",
    )
    bench.add_argument(
        "--baseline",
        metavar="PATH",
        help="committed BENCH_*.json to gate serve throughput against: "
        "exit 1 if any serve scenario's speedup over json-batch1 falls "
        ">20%% below the baseline's (e.g. benchmarks/BENCH_SEED.json)",
    )

    figures = sub.add_parser("figures", help="export figure datasets as CSV")
    figures.set_defaults(func=_cmd_figures)
    figures.add_argument("directory")
    figures.add_argument("--cycles", type=int, default=10_000)

    report = sub.add_parser(
        "report",
        help="render the metrics/timing summary of a run's --obs-dir telemetry",
    )
    report.set_defaults(func=_cmd_report)
    report.add_argument(
        "path",
        help="an --obs-dir directory, or a single spans/metrics .jsonl file",
    )

    serve = sub.add_parser(
        "serve",
        help="run the streaming trace-serving frontend (newline-JSON over TCP)",
    )
    serve.set_defaults(func=_cmd_serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=7453,
        help="bind port (0 = ephemeral; the bound port is printed on stdout)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="bounded request queue; overflow is rejected with the `busy` error",
    )
    serve.add_argument(
        "--batch-limit",
        type=int,
        default=16,
        help="max requests drained per micro-batch",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request deadline in seconds, queue wait included (0 = none)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="grace period for queued requests at shutdown",
    )
    serve.add_argument(
        "--session-idle-timeout",
        type=float,
        default=300.0,
        help="reap sessions idle for this many seconds (0 = never)",
    )

    client = sub.add_parser(
        "client",
        help="talk to a running `repro serve` instance",
    )
    client.set_defaults(func=_cmd_client)
    client.add_argument(
        "op",
        choices=("ping", "encode"),
        help="ping: server capabilities; encode: stream a workload trace "
        "through a session",
    )
    client.add_argument("workload", nargs="?", choices=sorted(WORKLOADS))
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=7453)
    client.add_argument("--coder", default="window8", help="coder spec, e.g. window8")
    client.add_argument("--bus", choices=BUSES, default="register")
    client.add_argument("--cycles", type=int, default=20_000)
    client.add_argument(
        "--chunk",
        type=int,
        default=4096,
        help="cycles per streamed chunk (encode op)",
    )
    client.add_argument(
        "--policy",
        choices=sorted(DEFAULT_POLICIES),
        default=None,
        help="open a resilient session with this desync-recovery policy",
    )

    soak = sub.add_parser(
        "chaos-soak",
        help="resilient clients vs a seeded chaos proxy; non-zero exit unless "
        "every stream verifies byte-identical and the server drains cleanly",
    )
    soak.set_defaults(func=_cmd_chaos_soak)
    soak.add_argument(
        "--clients",
        type=int,
        default=8,
        help="concurrent resilient streams (default 8)",
    )
    soak.add_argument(
        "--cycles",
        type=int,
        default=None,
        help="trace length per stream (default 600, or 360 with --quick)",
    )
    soak.add_argument(
        "--chunk",
        type=int,
        default=None,
        help="values per streamed chunk (default 60, or 40 with --quick)",
    )
    soak.add_argument(
        "--seed",
        type=int,
        default=0,
        help="master seed for traces and fault schedules (the verdict is "
        "a deterministic function of it)",
    )
    soak.add_argument(
        "--quick",
        action="store_true",
        help="the CI profile: shorter traces, same fault coverage",
    )

    cluster = sub.add_parser(
        "cluster",
        help="run a fault-tolerant sharded serving cluster: a router in "
        "front of N supervised `repro serve` worker processes",
    )
    cluster.set_defaults(func=_cmd_cluster)
    cluster.add_argument("--host", default="127.0.0.1", help="bind address")
    cluster.add_argument(
        "--port",
        type=int,
        default=7460,
        help="router bind port (0 = ephemeral; the bound port is printed "
        "on stdout; workers always bind ephemeral ports)",
    )
    cluster.add_argument(
        "--workers",
        type=int,
        default=4,
        help="supervised engine worker processes (default 4)",
    )
    cluster.add_argument(
        "--queue-limit", type=int, default=64, help="per-worker request queue"
    )
    cluster.add_argument(
        "--batch-limit", type=int, default=16, help="per-worker micro-batch size"
    )
    cluster.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request deadline inside each worker (seconds)",
    )
    cluster.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="grace period for the cluster-wide drain at shutdown",
    )
    cluster.add_argument(
        "--checkpoint-every",
        type=int,
        default=4,
        help="router checkpoint-export cadence per session (ops between "
        "exported checkpoints; lower = faster failover replay)",
    )
    cluster.add_argument(
        "--seed", type=int, default=0, help="seed for restart-backoff jitter"
    )
    cluster.add_argument(
        "--worker-obs-dir",
        metavar="DIR",
        default=None,
        help="per-worker telemetry root: each spawn exports to "
        "DIR/worker-<id>-gen<generation>",
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a serve/cluster endpoint with concurrent streams and "
        "measure throughput + feed-latency percentiles",
    )
    loadgen.set_defaults(func=_cmd_loadgen)
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7460)
    loadgen.add_argument(
        "--mode",
        choices=("closed", "open"),
        default="closed",
        help="closed: feed-on-ack, measures capacity; open: seeded Poisson "
        "arrivals at --rate, measures queueing (default closed)",
    )
    loadgen.add_argument(
        "--streams", type=int, default=8, help="concurrent sessions (default 8)"
    )
    loadgen.add_argument(
        "--chunks", type=int, default=50, help="chunks fed per stream"
    )
    loadgen.add_argument(
        "--chunk",
        "--chunk-words",
        dest="chunk",
        type=int,
        default=64,
        help="cycles (words) per chunk; --chunk-words is the bulk-framing "
        "spelling of the same knob (default 64)",
    )
    loadgen.add_argument(
        "--rate",
        type=float,
        default=200.0,
        help="open-loop arrival rate, chunks/s across all streams",
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--sessions-per-spec",
        type=int,
        default=1,
        help="consecutive streams sharing one coder spec; raise it to offer "
        "homogeneous batches the server can coalesce into columnar kernel "
        "calls (default 1 = cycle specs per stream)",
    )
    loadgen.add_argument(
        "--binary",
        action="store_true",
        help="negotiate length-prefixed binary bulk frames instead of "
        "newline-JSON for chunk payloads",
    )
    loadgen.add_argument(
        "--corpus",
        metavar="SPEC",
        default="",
        help="drive streams from a workload source instead of ad-hoc "
        "synthetic traces: corpus:DIR[#stream], "
        "gen:profile,seed=N,population=N,cycles=N,width=N or "
        "suite:NAME[/BUS][@cycles]",
    )

    csoak = sub.add_parser(
        "cluster-soak",
        help="SIGKILL cluster workers mid-stream; non-zero exit unless every "
        "stream decodes bit-identically through >=1 crash failover, >=1 "
        "planned migration, and a clean drain",
    )
    csoak.set_defaults(func=_cmd_cluster_soak)
    csoak.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default 4, or 3 with --quick)",
    )
    csoak.add_argument(
        "--clients",
        type=int,
        default=None,
        help="concurrent resilient streams (default 8, or 6 with --quick)",
    )
    csoak.add_argument(
        "--cycles",
        type=int,
        default=None,
        help="trace length per stream (default 480, or 240 with --quick)",
    )
    csoak.add_argument(
        "--chunk",
        type=int,
        default=None,
        help="values per streamed chunk (default 40, or 20 with --quick)",
    )
    csoak.add_argument(
        "--kills",
        type=int,
        default=None,
        help="SIGKILL rounds, each killing one session-hosting worker "
        "(default 1)",
    )
    csoak.add_argument(
        "--seed",
        type=int,
        default=0,
        help="master seed for traces, placement and backoff jitter",
    )
    csoak.add_argument(
        "--quick",
        action="store_true",
        help="the CI profile: 3 workers, shorter traces, one kill",
    )
    csoak.add_argument(
        "--worker-obs-dir",
        metavar="DIR",
        default=None,
        help="per-worker telemetry root (CI uploads these as artifacts)",
    )
    csoak.add_argument(
        "--corpus",
        metavar="SPEC",
        default=None,
        help="stream corpus/generator traffic instead of the built-in "
        "synthetic traces (corpus:DIR[#stream], gen:..., suite:...); the "
        "bit-exactness verdict then covers corpus replay end to end",
    )

    top = sub.add_parser(
        "top",
        help="live cluster RED metrics (rate, error %%, p50/p99 per op) from "
        "a running serve/cluster via the `telemetry` op",
    )
    top.set_defaults(func=_cmd_top)
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7453)
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (polling mode)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="one probe, print, exit (CI mode with --json)",
    )
    top.add_argument(
        "--json",
        action="store_true",
        help="print the summary as a JSON document instead of tables",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop after N refreshes (default: poll until ^C)",
    )

    stitch = sub.add_parser(
        "trace-stitch",
        help="merge router + per-worker spans.jsonl exports into one "
        "Chrome/Perfetto trace with cross-process flow arrows",
    )
    stitch.set_defaults(func=_cmd_trace_stitch)
    stitch.add_argument(
        "inputs",
        nargs="+",
        help="span sources: spans.jsonl files, --obs-dir directories, or "
        "roots scanned recursively (e.g. the cluster's --worker-obs-dir)",
    )
    stitch.add_argument(
        "--out",
        default="trace-stitched.json",
        help="output trace_event file (default ./trace-stitched.json)",
    )

    # Accept the global flags after the subcommand as well.
    for subparser in sub.choices.values():
        _add_global_flags(subparser, suppress=True)

    return parser


def _export_telemetry(args: argparse.Namespace) -> None:
    """Write ``--obs-dir`` / ``--trace-out`` exports, logging each path."""
    obs_dir = getattr(args, "obs_dir", None)
    trace_out = getattr(args, "trace_out", None)
    if not obs_dir and not trace_out:
        return
    try:
        written = obs.export_run(obs_dir=obs_dir, trace_out=trace_out)
    except OSError as exc:
        log.error("telemetry export failed", extra=obs.fields(error=str(exc)))
        return
    for kind, path in sorted(written.items()):
        log.info("telemetry written", extra=obs.fields(kind=kind, path=path))


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point.  Returns 0 on success, 1 on a handled user error.

    Argparse-level errors (unknown command, bad choices) keep raising
    ``SystemExit`` as before; runtime user errors — unknown workload or
    coder reaching the library, unreadable or tampered trace files, a
    tripped cycle watchdog — are reported as a one-line
    ``repro: error: ...`` message on stderr with exit code 1 instead of
    a traceback (pass ``-v`` for the traceback, via debug logging).

    Every invocation opens one root ``cli.<command>`` span covering the
    command's full wall time, and telemetry from the whole run —
    including anything fork workers collected — is exported at the end
    when ``--obs-dir`` / ``--trace-out`` were given.
    """
    args = build_parser().parse_args(argv)
    verbosity = -1 if getattr(args, "quiet", False) else int(getattr(args, "verbose", 0) or 0)
    obs.setup_logging(verbosity)
    # Each CLI invocation reports its own run: start from clean sinks
    # (main() is re-entered in-process by the test-suite and by
    # embedding tools).
    obs.reset()
    code: object = 1
    try:
        # ``--jobs`` is a worker count everywhere it appears; 0 and
        # negatives used to fall back silently — now they are refused
        # up front with the standard one-line error contract.
        jobs = getattr(args, "jobs", None)
        if jobs is not None and jobs < 1:
            raise ValueError(f"--jobs must be a positive worker count, got {jobs}")
        with obs.span(f"cli.{args.command}", command=args.command):
            code = args.func(args)
    except (
        FileNotFoundError,
        NotADirectoryError,
        PermissionError,
        IsADirectoryError,
        CycleBudgetExceeded,
        TraceFormatError,
        KeyError,
        ValueError,
    ) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        # The one-line format below is a stable contract (tests and
        # scripts match on it), so it bypasses the logging formatter.
        print(f"repro: error: {message}", file=sys.stderr)
        log.debug("command failed", exc_info=True)
        _export_telemetry(args)
        return 1
    except BrokenPipeError:
        # Downstream closed stdout early (``repro report ... | head``):
        # exit quietly, Unix style.  Point the fd at devnull first so
        # the interpreter's exit-time flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    _export_telemetry(args)
    return int(code) if code else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
