"""Exporters: spans/metrics → JSONL, spans → Chrome ``trace_event``.

Two on-disk forms, both derived from the same in-process state:

* **JSONL** (``spans.jsonl`` / ``metrics.jsonl`` under ``--obs-dir``) —
  one self-describing JSON object per line, the machine-readable record
  a run leaves behind.  ``repro report`` re-reads these to render its
  summary, so the format is also this module's *input* format
  (:func:`read_jsonl`).
* **Journals** (the flight recorder's ``flight.jsonl``, a run's
  ``ledger.jsonl``) — the same one-object-per-line format, appended
  line-buffered by :class:`JsonlJournal` so every record is flushed the
  moment it is written: ``kill -9`` forfeits the process, not the page
  cache.  ``read_jsonl(path, torn_tail=True)`` reads them back.
* **Chrome trace** (``--trace-out``) — the ``trace_event`` JSON object
  format understood by ``chrome://tracing`` and Perfetto: one complete
  (``"ph": "X"``) event per span with microsecond timestamps rebased to
  the earliest span, so the viewer opens at t=0.  Process/thread ids
  are preserved, which is what makes a ``--jobs N`` sweep legible —
  each worker renders as its own row.

Schema contract (pinned by ``tests/test_obs_export.py``): every trace
event carries exactly the keys ``name, ph, ts, dur, pid, tid, cat,
args``; the top level is ``{"traceEvents": [...], "displayTimeUnit":
"ms"}``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional

from .spans import SpanRecord

__all__ = [
    "JsonlJournal",
    "chrome_trace",
    "metrics_jsonl_records",
    "read_jsonl",
    "span_jsonl_records",
    "write_chrome_trace",
    "write_jsonl",
]

SPANS_FILENAME = "spans.jsonl"
METRICS_FILENAME = "metrics.jsonl"


# -- JSONL ------------------------------------------------------------


def span_jsonl_records(spans: Iterable[SpanRecord]) -> List[Dict[str, Any]]:
    """One ``{"type": "span", ...}`` dict per finished span."""
    return [
        {
            "type": "span",
            "name": s.name,
            "ts": s.ts,
            "dur": s.dur,
            "pid": s.pid,
            "tid": s.tid,
            "span_id": s.span_id,
            "parent_id": s.parent_id,
            "depth": s.depth,
            "attrs": s.attrs,
            "trace_id": s.trace_id,
            "parent": s.parent,
        }
        for s in spans
    ]


def metrics_jsonl_records(registry: Any) -> List[Dict[str, Any]]:
    """Registry records, already JSONL-shaped (see ``MetricsRegistry.records``)."""
    return list(registry.records())


def write_jsonl(records: Iterable[Dict[str, Any]], path: str) -> str:
    """Write one JSON object per line; parents directories are created."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
    return path


def read_jsonl(path: str, torn_tail: bool = False) -> List[Dict[str, Any]]:
    """Parse a JSONL file back into dicts; blank lines are skipped.

    A malformed line raises ``ValueError`` naming ``path:lineno`` —
    surfaced by ``repro report`` as a one-line user error.  With
    ``torn_tail`` (the journal readers) an undecodable *last* line is
    dropped instead: that is the debris of a kill landing mid-write,
    exactly the crash a journal exists to survive.  Interior damage
    still raises — an append-only journal with a bad line in the middle
    was tampered with, and reading past it would silently lose records.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if torn_tail and lineno == len(lines):
                break
            raise ValueError(f"{path}:{lineno}: not valid JSON ({exc})") from None
    return records


class JsonlJournal:
    """Append-only JSONL writer, line-buffered: one flush per record.

    Errors propagate; a best-effort caller (the flight recorder)
    catches them itself.
    """

    def __init__(self, path: str):
        self.path = path
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        self._handle = open(path, "a", encoding="utf-8", buffering=1)

    def write(self, record: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, default=str) + "\n")

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "JsonlJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# -- Chrome trace_event -----------------------------------------------


def chrome_trace(
    spans: Iterable[SpanRecord], origin_ts: Optional[float] = None
) -> Dict[str, Any]:
    """Render spans as a Chrome/Perfetto ``trace_event`` object.

    Timestamps are rebased to ``origin_ts`` (default: the earliest
    span's start) and converted to integer microseconds, the unit the
    ``trace_event`` spec mandates.
    """
    span_list = list(spans)
    if origin_ts is None:
        origin_ts = min((s.ts for s in span_list), default=0.0)
    events: List[Dict[str, Any]] = []
    for s in span_list:
        events.append(
            {
                "name": s.name,
                "ph": "X",
                "ts": round((s.ts - origin_ts) * 1e6),
                "dur": max(0, round(s.dur * 1e6)),
                "pid": s.pid,
                "tid": s.tid,
                "cat": s.name.split(".", 1)[0],
                "args": dict(s.attrs, depth=s.depth),
            }
        )
    events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    spans: Iterable[SpanRecord], path: str, origin_ts: Optional[float] = None
) -> str:
    """Serialise :func:`chrome_trace` to ``path`` (loadable as-is)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(spans, origin_ts), handle, indent=1, default=str)
        handle.write("\n")
    return path
