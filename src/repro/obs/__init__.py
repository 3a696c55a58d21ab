"""``repro.obs`` — structured instrumentation for the whole pipeline.

One process-global pair of sinks — a :class:`~repro.obs.registry.MetricsRegistry`
and a :class:`~repro.obs.spans.SpanTracer` — fed through a deliberately
tiny facade::

    from repro import obs

    obs.inc("trace_cache.hits")
    obs.observe("coder.encode_s", dt, coder="WindowTranscoder")
    with obs.span("table3.cell", workload="gcc", entries=8):
        ...

Every facade call first checks one module-level boolean, so when
observability is disabled the cost is a single attribute load and
branch; :func:`span` additionally returns a shared no-op singleton
(:data:`~repro.obs.spans.NO_SPAN`) rather than allocating anything.
The ``bench_smoke`` suite holds instrumented-kernel overhead under 2%.

Kill switch: ``REPRO_OBS=0`` (or ``false``/``off``/``no``) disables
collection process-wide at import; :func:`set_enabled` overrides at
runtime (tests, embedding applications).  Disabling never changes any
experiment's *outputs* — telemetry is strictly write-only side
channel (stderr logging, ``--obs-dir`` JSONL, ``--trace-out``).

Fork integration: :func:`fork_snapshot` / :func:`fork_delta` /
:func:`merge_child` let :mod:`repro.analysis.parallel` ship each
worker's metric and span *deltas* back to the parent, so a ``--jobs N``
run reports the same totals as ``--jobs 1``.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Tuple, Union

from .export import (
    METRICS_FILENAME,
    SPANS_FILENAME,
    chrome_trace,
    metrics_jsonl_records,
    read_jsonl,
    span_jsonl_records,
    write_chrome_trace,
    write_jsonl,
)
from .flight import (
    FLIGHT_DUMP_FILENAME,
    FLIGHT_FILENAME,
    FlightRecorder,
)
from .logs import LOGGER_NAME, StructuredFormatter, fields, get_logger, setup_logging
from .registry import MetricsRegistry, format_key, parse_key
from .spans import NO_SPAN, ActiveSpan, SpanRecord, SpanTracer

__all__ = [
    "OBS_ENV",
    "enabled_by_env",
    "is_enabled",
    "set_enabled",
    "get_registry",
    "get_tracer",
    "inc",
    "set_gauge",
    "observe",
    "span",
    "hop_span",
    "new_trace_id",
    "timed",
    "reset",
    "fork_snapshot",
    "fork_delta",
    "merge_child",
    "export_run",
    "configure_flight",
    "flight",
    "flight_record",
    "flight_dump",
    # re-exports
    "MetricsRegistry",
    "SpanTracer",
    "SpanRecord",
    "ActiveSpan",
    "NO_SPAN",
    "FlightRecorder",
    "FLIGHT_FILENAME",
    "FLIGHT_DUMP_FILENAME",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "read_jsonl",
    "span_jsonl_records",
    "metrics_jsonl_records",
    "SPANS_FILENAME",
    "METRICS_FILENAME",
    "format_key",
    "parse_key",
    "LOGGER_NAME",
    "StructuredFormatter",
    "fields",
    "get_logger",
    "setup_logging",
]

#: Environment kill switch: ``REPRO_OBS=0`` disables all collection.
OBS_ENV = "REPRO_OBS"


def enabled_by_env() -> bool:
    """False when ``REPRO_OBS`` is 0/false/off/no (default: enabled)."""
    return os.environ.get(OBS_ENV, "1").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


_ENABLED: bool = enabled_by_env()
_REGISTRY = MetricsRegistry()
_TRACER = SpanTracer()


# Forking while another thread holds a sink lock must not deadlock the
# child; re-initialise the global sinks' locks post-fork.
if hasattr(os, "register_at_fork"):  # pragma: no branch - always true on linux
    os.register_at_fork(
        after_in_child=lambda: (
            _REGISTRY.reinit_lock(),
            _TRACER.reinit_lock(),
            _FLIGHT.reinit_lock() if _FLIGHT is not None else None,
        )
    )


def is_enabled() -> bool:
    """Whether collection is currently on."""
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Enable/disable collection at runtime; returns the previous state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def get_tracer() -> SpanTracer:
    """The process-global span tracer."""
    return _TRACER


# -- hot-path facade --------------------------------------------------


def inc(name: str, value: float = 1, **labels: Any) -> None:
    """Add to a counter (no-op when disabled)."""
    if _ENABLED:
        _REGISTRY.inc(name, value, **labels)


def set_gauge(name: str, value: float, **labels: Any) -> None:
    """Set a gauge (no-op when disabled)."""
    if _ENABLED:
        _REGISTRY.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    """Record a histogram sample (no-op when disabled)."""
    if _ENABLED:
        _REGISTRY.observe(name, value, **labels)


def span(name: str, **attrs: Any) -> Union[ActiveSpan, "spans._NoopSpan"]:
    """Open a timed span context; the shared no-op when disabled."""
    if not _ENABLED:
        return NO_SPAN
    return _TRACER.span(name, attrs)


def hop_span(
    name: str, trace_id: str = "", parent: str = "", **attrs: Any
) -> Union[ActiveSpan, "spans._NoopSpan"]:
    """Open a *detached* span carrying distributed trace context.

    Hop spans mark one protocol hop of a request (``client.request`` →
    ``router.request`` → ``engine.request``).  They are detached from
    the thread-local nesting stack — asyncio servers interleave many
    requests on one thread, and stack nesting would invent false edges —
    so cross-process linkage rides exclusively on ``trace_id`` and the
    ``parent`` ref (``"pid:span_id"``), which ``repro trace-stitch``
    resolves into Perfetto flow arrows.  Returns the shared no-op when
    disabled; its ``.ref`` is ``""``, so no trace context leaks onto the
    wire.
    """
    if not _ENABLED:
        return NO_SPAN
    return _TRACER.span(name, attrs, trace_id=trace_id, parent=parent, detached=True)


def new_trace_id() -> str:
    """A fresh 16-hex-digit distributed trace id ('' never returned)."""
    return os.urandom(8).hex()


class timed:
    """Context manager recording a block's duration into a histogram.

    Cheaper than a span when only the aggregate matters::

        with obs.timed("coder.encode_s", coder="WindowTranscoder"):
            ...
    """

    __slots__ = ("name", "labels", "_start", "seconds")

    def __init__(self, name: str, **labels: Any):
        self.name = name
        self.labels = labels
        self._start = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "timed":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.seconds = time.perf_counter() - self._start
        if _ENABLED:
            _REGISTRY.observe(self.name, self.seconds, **self.labels)


def reset() -> None:
    """Drop all collected telemetry (fresh CLI invocation / tests)."""
    _REGISTRY.reset()
    _TRACER.reset()


# -- flight recorder ---------------------------------------------------

_FLIGHT: Optional[FlightRecorder] = None


def configure_flight(
    path: Optional[str] = None, capacity: int = 256
) -> Optional[FlightRecorder]:
    """Install (or clear, with no arguments) the process flight recorder.

    Serving entry points call this with ``<obs-dir>/flight.jsonl`` so
    every lifecycle event is journalled eagerly — the artifact a
    SIGKILLed worker leaves behind.  Returns the recorder, or None when
    collection is disabled (``REPRO_OBS=0`` serving must not write new
    files).
    """
    global _FLIGHT
    if _FLIGHT is not None:
        _FLIGHT.close()
        _FLIGHT = None
    if path is None or not _ENABLED:
        return None
    _FLIGHT = FlightRecorder(capacity=capacity, path=path)
    return _FLIGHT


def flight() -> Optional[FlightRecorder]:
    """The configured process flight recorder, if any."""
    return _FLIGHT


def flight_record(event: str, **fields: Any) -> None:
    """Record one flight event (no-op when disabled or unconfigured)."""
    if _ENABLED and _FLIGHT is not None:
        _FLIGHT.record(event, **fields)


def flight_dump(reason: str = "") -> Optional[str]:
    """Dump the flight ring to disk; returns the path (None if nowhere)."""
    if _FLIGHT is None:
        return None
    return _FLIGHT.dump(reason=reason)


# -- fork-worker integration (used by repro.analysis.parallel) --------


def fork_snapshot() -> Tuple[Dict[str, Any], int]:
    """Baseline (registry snapshot, span mark) taken inside a worker."""
    return _REGISTRY.snapshot(), _TRACER.mark()


def fork_delta(
    baseline: Tuple[Dict[str, Any], int]
) -> Tuple[Dict[str, Any], List[SpanRecord]]:
    """What this process collected since ``baseline`` — picklable."""
    registry_base, span_mark = baseline
    return _REGISTRY.diff(registry_base), _TRACER.take_since(span_mark)


def merge_child(delta: Optional[Tuple[Dict[str, Any], List[SpanRecord]]]) -> None:
    """Fold a worker's :func:`fork_delta` into the parent's sinks."""
    if not delta:
        return
    registry_delta, spans = delta
    if registry_delta:
        _REGISTRY.merge(registry_delta)
    if spans:
        _TRACER.adopt(spans)


# -- run export (used by the CLI) -------------------------------------


def export_run(
    obs_dir: Optional[str] = None, trace_out: Optional[str] = None
) -> Dict[str, str]:
    """Write the collected telemetry to disk; returns {kind: path}.

    ``obs_dir`` receives ``spans.jsonl`` + ``metrics.jsonl``;
    ``trace_out`` receives the Chrome ``trace_event`` file.  Either may
    be None.  Exports are still written when collection was disabled —
    the files are simply (near-)empty, which keeps tooling simple.
    """
    written: Dict[str, str] = {}
    spans = _TRACER.records()
    if _ENABLED and _TRACER.dropped:
        # Surface buffer truncation in the export itself — otherwise a
        # clipped run reads as full coverage (`repro report` flags it).
        _REGISTRY.set_gauge("obs.spans_dropped", float(_TRACER.dropped))
    if obs_dir:
        os.makedirs(obs_dir, exist_ok=True)
        written["spans"] = write_jsonl(
            span_jsonl_records(spans), os.path.join(obs_dir, SPANS_FILENAME)
        )
        written["metrics"] = write_jsonl(
            metrics_jsonl_records(_REGISTRY), os.path.join(obs_dir, METRICS_FILENAME)
        )
    if trace_out:
        written["chrome_trace"] = write_chrome_trace(spans, trace_out)
    return written
