"""The run ledger: a crash-proof journal of one experiment run.

A run directory (``runs/<run-id>/``) is owned by its **ledger** —
``ledger.jsonl``, a :class:`~repro.obs.export.JsonlJournal` (the same
line-buffered append-only writer as :mod:`repro.obs.flight`): every
event is flushed as one line the moment it happens, so ``kill -9``
forfeits the process, not the page cache, and everything appended
before the kill survives for ``--resume`` to replay.

Event vocabulary (one JSON object per line, ``event`` + ``ts`` plus
event-specific fields):

``run_open``
    Written once when a run is created: the run id, the matrix name,
    the full :class:`~repro.runs.matrix.RunConfig` as a dict, its
    content digest and the cell count.  ``--resume`` without the matrix
    arguments reconstructs the configuration from this header.
``resumed``
    Appended at the start of every resume: how many recorded cells
    were verified and skipped, how many artifacts were quarantined and
    how many cells are being (re-)executed.
``started``
    One cell attempt began (cell key, matrix index, attempt number).
``done``
    A cell completed: key, index, attempt, the artifact's path
    relative to the run directory and the SHA-256 of the artifact
    file's exact bytes — resume verifies that digest before trusting
    the artifact.
``failed``
    A cell attempt failed: key, error ``kind``/``message``, worker
    ``pid``, ``elapsed_s``, the retry classification (``transient`` /
    ``deterministic``) and ``final`` — False when the executor will
    retry, True when the cell is being given up on.
``quarantined``
    A cell or artifact was quarantined: key, the reason class
    (``artifact-digest-mismatch``, ``artifact-missing``,
    ``artifact-unreadable``, ``deterministic-failure``,
    ``retries-exhausted``, ``circuit-open``) and the quarantine record
    path relative to the run directory.
``run_close``
    The run finished: status (``complete`` / ``degraded``) and the
    done/failed counts.  A ledger without it was interrupted.

Read it back with ``read_jsonl(path, torn_tail=True)``: exactly one
**torn tail** — an undecodable *last* line, the expected debris of a
kill landing mid-write — is dropped, and any *interior* corruption is
reported as ``path:lineno`` (the journal is append-only; a bad line in
the middle means real damage, not a crash).  Unlike the best-effort
flight recorder, the ledger lets write errors propagate: a run that
cannot journal must not pretend it did.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .._seal import canonical_json, content_digest, file_digest
from ..obs.export import JsonlJournal

__all__ = [
    "LEDGER_FILENAME",
    "RunLedger",
    "LedgerState",
    "canonical_json",
    "content_digest",
    "file_digest",
    "replay_ledger",
]

#: The journal every run directory is built around.
LEDGER_FILENAME = "ledger.jsonl"


class RunLedger(JsonlJournal):
    """Append-only, line-buffered writer for one run's journal."""

    def append(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event; returns the record that was written."""
        record: Dict[str, Any] = {"event": event, "ts": time.time()}
        record.update(fields)
        self.write(record)
        return record

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunLedger({self.path!r})"


@dataclass
class LedgerState:
    """The replayed view of a ledger: what each cell's latest state is."""

    header: Optional[Dict[str, Any]] = None  #: the ``run_open`` event
    done: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    failed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    attempts: Dict[str, int] = field(default_factory=dict)
    quarantines: List[Dict[str, Any]] = field(default_factory=list)
    resumes: int = 0
    closed: Optional[Dict[str, Any]] = None  #: the last ``run_close``


def replay_ledger(events: List[Dict[str, Any]]) -> LedgerState:
    """Fold a ledger's events into per-cell latest state.

    A later ``done`` supersedes an earlier final ``failed`` (the resume
    path re-executing a quarantined cell), and vice versa a cell that
    was ``done`` but whose artifact was later ``quarantined`` and
    re-failed ends up failed.  Non-final ``failed`` events only bump
    the attempt bookkeeping.
    """
    state = LedgerState()
    for event in events:
        kind = event.get("event")
        key = event.get("key", "")
        if kind == "run_open":
            if state.header is None:
                state.header = event
        elif kind == "resumed":
            state.resumes += 1
        elif kind == "started":
            attempt = int(event.get("attempt", 1))
            state.attempts[key] = max(state.attempts.get(key, 0), attempt)
        elif kind == "done":
            state.done[key] = event
            state.failed.pop(key, None)
        elif kind == "failed":
            if event.get("final"):
                state.failed[key] = event
                state.done.pop(key, None)
        elif kind == "quarantined":
            state.quarantines.append(event)
        elif kind == "run_close":
            state.closed = event
    return state
