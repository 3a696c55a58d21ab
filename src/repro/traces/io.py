"""Saving and loading bus traces.

Traces are stored as NumPy ``.npz`` archives carrying the values plus
the width/name/initial metadata, so a CPU-simulation run (the expensive
part of the pipeline) can be captured once and re-analysed many times.

Loading **validates**: a corrupt, truncated, tampered or wrong-width
file raises :class:`TraceFormatError` naming the offending path,
instead of letting a raw ``zipfile``/NumPy/JSON traceback escape into
whatever sweep was reading the archive.  A genuinely missing file still
raises the standard ``FileNotFoundError``.

Archives additionally carry a **content digest** (:func:`trace_digest`,
SHA-256 over the little-endian value bytes plus the metadata): a
bit-flip that still deserializes as a plausible trace — the corruption
the structural checks cannot see — fails the digest comparison on load
instead of being returned silently.  Archives written before the digest
member existed still load (the check is skipped when the member is
absent); every new :func:`save_trace` write is digest-sealed.
"""

from __future__ import annotations

import hashlib
import io
import os
from typing import Dict, Iterable, List

import numpy as np

from .._seal import atomic_write
from .trace import BusTrace

__all__ = [
    "TraceFormatError",
    "trace_digest",
    "save_trace",
    "load_trace",
    "save_traces",
    "load_traces",
]

#: Archive members a trace file must carry.
_REQUIRED_KEYS = ("values", "width", "initial", "name")

#: Optional archive member carrying the :func:`trace_digest` seal.
_DIGEST_KEY = "sha256"


class TraceFormatError(ValueError):
    """A trace file exists but cannot be decoded as a saved trace.

    Carries the offending ``path`` and a one-line ``reason``; the
    string form is suitable for direct CLI display.
    """

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: not a valid trace file ({reason})")


def trace_digest(trace: BusTrace) -> str:
    """SHA-256 content digest of a trace (values + metadata).

    Byte-stable across platforms: the value array is hashed as
    little-endian uint64 regardless of host endianness, and the
    metadata is folded in as text.
    """
    digest = hashlib.sha256()
    values = np.ascontiguousarray(trace.values, dtype=np.uint64)
    digest.update(values.astype("<u8", copy=False).tobytes())
    digest.update(
        f"|width={trace.width}|initial={trace.initial}|name={trace.name}".encode(
            "utf-8"
        )
    )
    return digest.hexdigest()


def save_trace(trace: BusTrace, path: str) -> None:
    """Atomically write a single trace to ``path`` (``.npz``), digest-sealed."""
    path = os.fspath(path)
    if not path.endswith(".npz"):  # the suffix rule of np.savez_compressed
        path += ".npz"
    archive = io.BytesIO()
    np.savez_compressed(
        archive,
        values=trace.values,
        width=np.int64(trace.width),
        initial=np.uint64(trace.initial),
        name=np.str_(trace.name),
        sha256=np.str_(trace_digest(trace)),
    )
    atomic_write(path, [archive.getvalue()])


def load_trace(path: str) -> BusTrace:
    """Read a trace previously written by :func:`save_trace`.

    Raises
    ------
    FileNotFoundError
        If ``path`` does not exist.
    TraceFormatError
        If the file exists but is corrupt, truncated, missing archive
        members, carries a non-1-D value array, or declares a width
        outside 1..64 (or too narrow for its values).
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such trace file: {path}")
    try:
        archive = np.load(path, allow_pickle=False)
    except Exception as exc:  # zipfile.BadZipFile, OSError, ValueError, ...
        raise TraceFormatError(path, f"unreadable archive: {exc}") from exc
    try:
        with archive as data:
            missing = [key for key in _REQUIRED_KEYS if key not in data.files]
            if missing:
                raise TraceFormatError(
                    path, f"missing archive member(s): {', '.join(missing)}"
                )
            try:
                values = np.asarray(data["values"])
                width = int(data["width"])
                initial = int(data["initial"])
                name = str(data["name"])
                expected = (
                    str(data[_DIGEST_KEY]) if _DIGEST_KEY in data.files else ""
                )
            except TraceFormatError:
                raise
            except Exception as exc:  # truncated member, bad dtype, ...
                raise TraceFormatError(path, f"corrupt archive member: {exc}") from exc
            if values.ndim != 1:
                raise TraceFormatError(
                    path, f"values must be 1-D, got shape {values.shape}"
                )
            if not np.issubdtype(values.dtype, np.integer):
                raise TraceFormatError(
                    path, f"values must be an integer array, got dtype {values.dtype}"
                )
            if not 1 <= width <= 64:
                raise TraceFormatError(path, f"width must be 1..64, got {width}")
            values = values.astype(np.uint64, copy=False)
            if len(values) and int(values.max()) >> width:
                raise TraceFormatError(
                    path,
                    f"values exceed the declared {width}-bit width "
                    f"(max value {int(values.max()):#x})",
                )
            try:
                trace = BusTrace(values=values, width=width, initial=initial, name=name)
            except ValueError as exc:
                raise TraceFormatError(path, str(exc)) from exc
            if expected:
                actual = trace_digest(trace)
                if actual != expected:
                    raise TraceFormatError(
                        path,
                        f"content digest mismatch (recorded {expected[:12]}…, "
                        f"recomputed {actual[:12]}…)",
                    )
            return trace
    except TraceFormatError:
        raise
    except Exception as exc:  # defensive: decompression errors on read
        raise TraceFormatError(path, f"corrupt archive: {exc}") from exc


def save_traces(traces: Iterable[BusTrace], directory: str) -> List[str]:
    """Write each trace to ``directory/<name>.npz``; returns the paths.

    Trace names are sanitised (``/`` becomes ``_``) to form file names;
    unnamed traces are numbered.
    """
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, trace in enumerate(traces):
        stem = trace.name.replace("/", "_") if trace.name else f"trace_{i}"
        path = os.path.join(directory, f"{stem}.npz")
        save_trace(trace, path)
        paths.append(path)
    return paths


def load_traces(directory: str) -> Dict[str, BusTrace]:
    """Load every ``.npz`` trace in ``directory``, keyed by trace name.

    Propagates :class:`TraceFormatError` (naming the bad file) so a
    single tampered archive in a results directory is reported rather
    than silently skipped or crashing with a zip traceback.
    """
    traces: Dict[str, BusTrace] = {}
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".npz"):
            trace = load_trace(os.path.join(directory, entry))
            key = trace.name or os.path.splitext(entry)[0]
            traces[key] = trace
    return traces
