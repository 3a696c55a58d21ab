"""The versioned on-disk corpus format.

A *corpus* is a directory of trace **shards** plus one JSON **manifest**
(:data:`MANIFEST_NAME`)::

    mycorpus/
        corpus.json            # manifest: format version + shard index
        gcc_register.u64       # raw shard: little-endian uint64 words
        imported_addr.npz      # npz shard: repro.traces.io archive

The manifest carries, per shard: the stream ``name``, the shard
``file`` (always a bare filename inside the corpus directory — path
separators are rejected on load, so a hostile manifest cannot reach
outside it), the storage ``kind`` (``raw`` or ``npz``), the bus
``width``, the ``cycles`` count, the ``initial`` bus state entering the
first value, the ``sha256`` **content digest**, and a free-form
``source`` provenance string (e.g. ``record:gcc/register@60000``).

The content digest is storage-independent: it is the SHA-256 of the
stream's *values* as masked little-endian uint64 bytes, regardless of
whether the shard is stored raw or as ``.npz``.  That is what lets the
reader verify a multi-GB raw shard incrementally while streaming it,
and what keys the :mod:`repro.traces.cache` integration — two shards
with equal digests are the same traffic.

All structural errors raise :class:`CorpusFormatError` (path + one-line
reason, mirroring :class:`repro.traces.io.TraceFormatError`), which the
CLI funnels into the ``repro: error:`` contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List

import numpy as np

from .._seal import atomic_write

__all__ = [
    "CORPUS_FORMAT",
    "MANIFEST_NAME",
    "SHARD_KINDS",
    "CorpusFormatError",
    "ShardMeta",
    "digest_values",
    "load_manifest",
    "save_manifest",
]

#: Bump on any incompatible change to the manifest or shard layout.
CORPUS_FORMAT = 1

#: The manifest filename inside a corpus directory.
MANIFEST_NAME = "corpus.json"

#: Supported shard storage encodings.
SHARD_KINDS = ("raw", "npz")

_REQUIRED_SHARD_KEYS = (
    "name", "file", "kind", "width", "cycles", "initial", "sha256", "source",
)


class CorpusFormatError(ValueError):
    """A corpus directory exists but cannot be decoded as a corpus.

    Carries the offending ``path`` and a one-line ``reason``; the
    string form is suitable for direct CLI display.
    """

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: not a valid corpus ({reason})")


@dataclass(frozen=True)
class ShardMeta:
    """One shard's manifest entry (see the module docstring)."""

    name: str
    file: str
    kind: str
    width: int
    cycles: int
    initial: int
    sha256: str
    source: str = ""


def digest_values(chunks: Any) -> str:
    """SHA-256 content digest over value chunks (masked LE uint64 bytes)."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(np.ascontiguousarray(chunk, dtype="<u8").tobytes())
    return h.hexdigest()


def _check_shard(path: str, record: Any, index: int) -> ShardMeta:
    where = f"shard #{index}"
    if not isinstance(record, dict):
        raise CorpusFormatError(path, f"{where} is not an object")
    missing = [k for k in _REQUIRED_SHARD_KEYS if k not in record]
    if missing:
        raise CorpusFormatError(
            path, f"{where} missing key(s): {', '.join(missing)}"
        )
    extra = sorted(set(record) - set(_REQUIRED_SHARD_KEYS))
    if extra:
        raise CorpusFormatError(
            path, f"{where} has unknown key(s): {', '.join(extra)}"
        )
    name, file, kind = record["name"], record["file"], record["kind"]
    if not isinstance(name, str) or not name:
        raise CorpusFormatError(path, f"{where} has an empty or non-string name")
    if not isinstance(file, str) or not file:
        raise CorpusFormatError(path, f"{where} ({name}) has no shard file")
    if os.path.basename(file) != file or file in (".", ".."):
        raise CorpusFormatError(
            path, f"{where} ({name}) file {file!r} is not a bare filename"
        )
    if kind not in SHARD_KINDS:
        raise CorpusFormatError(
            path,
            f"{where} ({name}) has unsupported kind {kind!r}; "
            f"this library speaks {', '.join(SHARD_KINDS)}",
        )
    width, cycles, initial = record["width"], record["cycles"], record["initial"]
    for key, value in (("width", width), ("cycles", cycles), ("initial", initial)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise CorpusFormatError(
                path, f"{where} ({name}) {key} must be an integer, got {value!r}"
            )
    if not 1 <= width <= 64:
        raise CorpusFormatError(path, f"{where} ({name}) width must be 1..64, got {width}")
    if cycles < 0:
        raise CorpusFormatError(path, f"{where} ({name}) cycles must be >= 0, got {cycles}")
    digest = record["sha256"]
    if (
        not isinstance(digest, str)
        or len(digest) != 64
        or any(c not in "0123456789abcdef" for c in digest)
    ):
        raise CorpusFormatError(
            path, f"{where} ({name}) sha256 must be 64 lowercase hex chars"
        )
    if not isinstance(record["source"], str):
        raise CorpusFormatError(path, f"{where} ({name}) source must be a string")
    return ShardMeta(**record)


def load_manifest(directory: str) -> List[ShardMeta]:
    """Read and validate a corpus manifest; returns its shard entries.

    Raises ``FileNotFoundError`` when the directory holds no manifest
    (it is not a corpus at all) and :class:`CorpusFormatError` for
    every structural problem: wrong format version, malformed JSON,
    missing/unknown/ill-typed shard keys, duplicate stream names, or
    shard filenames that are not bare names.
    """
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no corpus manifest at {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CorpusFormatError(path, f"unreadable manifest: {exc}") from exc
    if not isinstance(data, dict):
        raise CorpusFormatError(path, "manifest is not a JSON object")
    if data.get("format") != CORPUS_FORMAT:
        raise CorpusFormatError(
            path,
            f"unsupported corpus format {data.get('format')!r}; "
            f"this library speaks {CORPUS_FORMAT}",
        )
    shards = data.get("shards")
    if not isinstance(shards, list):
        raise CorpusFormatError(path, "manifest has no 'shards' list")
    metas = [_check_shard(path, record, i) for i, record in enumerate(shards)]
    seen: Dict[str, int] = {}
    for meta in metas:
        if meta.name in seen:
            raise CorpusFormatError(path, f"duplicate stream name {meta.name!r}")
        seen[meta.name] = 1
    return metas


def save_manifest(directory: str, shards: List[ShardMeta]) -> str:
    """Atomically write the corpus manifest; returns its path.

    A reader never observes a half-written manifest, and a crashed
    build leaves the previous one intact.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, MANIFEST_NAME)
    document = {
        "format": CORPUS_FORMAT,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "shards": [asdict(meta) for meta in shards],
    }
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    atomic_write(path, [text.encode("utf-8")])
    return path
