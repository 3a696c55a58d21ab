"""Flight recorder: a bounded ring of recent structured events.

A serving process can die in ways that leave no chance to export its
telemetry — a SIGKILLed worker takes its in-memory spans to the grave,
and the post-mortem is an empty ``--obs-dir``.  The flight recorder
closes that gap with the black-box pattern: every significant lifecycle
event (session open/close, quarantine, shed, failover, drain, crash) is

1. appended to a **bounded in-memory ring** (``capacity`` newest events,
   oldest evicted first), and
2. when a journal path is configured, **eagerly appended** to a
   ``flight.jsonl`` :class:`~repro.obs.export.JsonlJournal`, flushed
   per event.  Eager writes are what make the recorder SIGKILL-proof:
   ``kill -9`` forfeits the process, not the page cache, so everything
   flushed before the kill survives for the
   :class:`~repro.serve.supervisor.WorkerSupervisor` to harvest (read
   it back with ``read_jsonl(path, torn_tail=True)``).  Write errors
   are swallowed: the recorder is best-effort telemetry.

On *graceful* ends (drain, quarantine, crash-with-a-handler) callers may
additionally :meth:`~FlightRecorder.dump` the ring as one JSON document
with a ``reason`` — a self-contained artifact for CI upload.

Events are primitives-only dicts ``{"seq", "ts", "wall", "event", ...}``
where ``ts`` is :func:`time.perf_counter` (aligns with span timestamps
across processes on Linux) and ``wall`` is :func:`time.time` for humans.
The recorder is thread-safe and fork-safe (:meth:`reinit_lock`).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from .export import JsonlJournal

__all__ = ["FLIGHT_FILENAME", "FLIGHT_DUMP_FILENAME", "FlightRecorder"]

#: The eager append-only journal a recorder keeps under its directory.
FLIGHT_FILENAME = "flight.jsonl"
#: The one-document ring dump written by :meth:`FlightRecorder.dump`.
FLIGHT_DUMP_FILENAME = "flight-dump.json"


class FlightRecorder:
    """Bounded event ring with an optional SIGKILL-proof journal."""

    def __init__(self, capacity: int = 256, path: Optional[str] = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.path = path
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._journal: Optional[JsonlJournal] = None
        if path:
            self._journal = JsonlJournal(path)
            self.record("flight.start", pid=os.getpid())

    # -- fork safety ---------------------------------------------------

    def reinit_lock(self) -> None:
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------

    def record(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event to the ring (and journal, if configured)."""
        with self._lock:
            self._seq += 1
            entry: Dict[str, Any] = {
                "seq": self._seq,
                "ts": time.perf_counter(),
                "wall": time.time(),
                "event": event,
            }
            entry.update(fields)
            self._ring.append(entry)
            if self._journal is not None:
                try:
                    self._journal.write(entry)
                except (OSError, ValueError):  # closed handle / full disk
                    self._journal = None
        return entry

    # -- reading / dumping ---------------------------------------------

    def events(self) -> List[Dict[str, Any]]:
        """Copy of the ring, oldest first."""
        with self._lock:
            return [dict(entry) for entry in self._ring]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def dump(self, path: Optional[str] = None, reason: str = "") -> Optional[str]:
        """Write the ring as one JSON document; returns the path.

        ``path`` defaults to ``flight-dump.json`` next to the journal;
        with neither a journal nor an explicit path there is nowhere to
        write and the dump is skipped (returns None).
        """
        if path is None:
            if not self.path:
                return None
            path = os.path.join(
                os.path.dirname(os.path.abspath(self.path)), FLIGHT_DUMP_FILENAME
            )
        events = self.events()
        document = {
            "reason": reason,
            "pid": os.getpid(),
            "dumped_at": time.time(),
            "recorded": self._seq,
            "retained": len(events),
            "events": events,
        }
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, default=str)
            handle.write("\n")
        return path

    def close(self) -> None:
        with self._lock:
            if self._journal is not None:
                self._journal.close()
                self._journal = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlightRecorder(events={len(self._ring)}/{self.capacity}, "
            f"path={self.path!r})"
        )
