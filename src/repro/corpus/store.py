"""Corpus writing and bounded-memory corpus reading.

:class:`CorpusWriter` ingests streams *incrementally* — chunk in, chunk
out to disk with a rolling SHA-256 — so a multi-GB trace is captured
without ever materializing; :class:`CorpusReader` streams shards back
as :class:`~repro.traces.trace.BusTrace` chunks through ``np.memmap``,
verifying the manifest digest *while* streaming, so replaying a corpus
through the chunked codec API (:mod:`repro.traces.streaming`) holds one
chunk in memory at a time regardless of shard size.

The two storage kinds (see :mod:`repro.corpus.format`):

* ``raw`` — bare little-endian uint64 words.  The scalable path: the
  reader memory-maps it and both importers below convert into it.
* ``npz`` — a :mod:`repro.traces.io` archive kept verbatim.  Convenient
  for interchange with ``save_trace`` output, but compressed archives
  cannot be memory-mapped, so reading one materializes the shard; the
  ``.npz`` importer therefore converts to ``raw`` by default.

Every reader/writer failure mode is a :class:`CorpusFormatError` (or
``FileNotFoundError`` for a genuinely absent corpus) with a one-line
reason; unknown stream names raise ``KeyError`` with the available
names, matching the library's lookup conventions.
"""

from __future__ import annotations

import hashlib
import os
import re
from typing import Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

from .. import obs
from .._seal import atomic_write
from ..traces.cache import TraceCache, get_default_cache
from ..traces.io import TraceFormatError, load_trace, save_trace
from ..traces.streaming import DEFAULT_CHUNK_CYCLES, iter_chunks
from ..traces.trace import BusTrace
from .format import (
    CorpusFormatError,
    MANIFEST_NAME,
    ShardMeta,
    digest_values,
    load_manifest,
    save_manifest,
)

__all__ = [
    "CorpusReader",
    "CorpusWriter",
    "IMPORT_CHUNK_BYTES",
    "import_binary",
    "import_npz",
]

#: Read granularity of the raw-binary importer (bytes). Bounds importer
#: peak memory at ~1 MiB regardless of input file size.
IMPORT_CHUNK_BYTES = 1 << 20

_FILENAME_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _shard_filename(name: str, taken: Iterable[str], suffix: str) -> str:
    """A unique, filesystem-safe shard filename for a stream name."""
    stem = _FILENAME_SAFE.sub("_", name).strip("._") or "shard"
    taken = set(taken)
    candidate = f"{stem}{suffix}"
    counter = 1
    while candidate in taken or candidate == MANIFEST_NAME:
        candidate = f"{stem}-{counter}{suffix}"
        counter += 1
    return candidate


class CorpusWriter:
    """Incremental corpus builder (use as a context manager).

    Opening a directory that already holds a manifest *appends* to it
    (so ``repro corpus record`` can add recorded buses to a corpus
    built earlier); the manifest itself is only written — atomically —
    on :meth:`close`, so a crashed build never leaves a manifest that
    indexes half-written shards.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        try:
            self.shards: List[ShardMeta] = list(load_manifest(directory))
        except FileNotFoundError:
            self.shards = []
        self._names = {meta.name for meta in self.shards}
        self._files = {meta.file for meta in self.shards}
        self._closed = False

    # -- ingestion ----------------------------------------------------

    def add_chunks(
        self,
        name: str,
        chunks: Iterable[Union[BusTrace, np.ndarray]],
        width: int,
        initial: int = 0,
        source: str = "",
    ) -> ShardMeta:
        """Stream one shard to disk from value chunks (bounded memory).

        ``chunks`` may yield :class:`BusTrace` chunks (their values are
        used; the first chunk's ``initial`` overrides the argument) or
        bare arrays.  Values are masked to ``width`` before hitting
        disk, so the shard bytes *are* the content digest's input.
        """
        if self._closed:
            raise CorpusFormatError(self.directory, "writer is closed")
        if not isinstance(name, str) or not name:
            raise ValueError("shard name must be a non-empty string")
        if name in self._names:
            raise ValueError(f"corpus already has a stream named {name!r}")
        if not 1 <= width <= 64:
            raise ValueError(f"width must be 1..64, got {width}")
        mask = np.uint64((1 << width) - 1)
        filename = _shard_filename(name, self._files, ".u64")
        cycles = 0

        def masked() -> Iterator[bytes]:
            nonlocal cycles, initial
            for index, chunk in enumerate(chunks):
                if isinstance(chunk, BusTrace):
                    if index == 0:
                        initial = chunk.initial
                    values = chunk.values
                else:
                    values = np.asarray(chunk, dtype=np.uint64)
                data = np.ascontiguousarray(values & mask, dtype="<u8").tobytes()
                cycles += len(values)
                obs.inc("corpus.ingest_bytes", len(data))
                yield data

        sha256 = atomic_write(os.path.join(self.directory, filename), masked())
        meta = ShardMeta(
            name=name,
            file=filename,
            kind="raw",
            width=int(width),
            cycles=cycles,
            initial=int(initial) & int(mask),
            sha256=sha256,
            source=source,
        )
        return self._register(meta)

    def _register(self, meta: ShardMeta) -> ShardMeta:
        self.shards.append(meta)
        self._names.add(meta.name)
        self._files.add(meta.file)
        obs.inc("corpus.shards_written")
        return meta

    def add_trace(self, name: str, trace: BusTrace, source: str = "") -> ShardMeta:
        """Add an in-memory trace as one raw shard."""
        return self.add_chunks(
            name, iter_chunks(trace, DEFAULT_CHUNK_CYCLES), trace.width,
            initial=trace.initial, source=source,
        )

    # -- lifecycle ----------------------------------------------------

    def close(self) -> str:
        """Write the manifest (atomic); returns its path."""
        if self._closed:
            return os.path.join(self.directory, MANIFEST_NAME)
        self._closed = True
        return save_manifest(self.directory, self.shards)

    def __enter__(self) -> "CorpusWriter":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        # Only publish the manifest on a clean exit; on error the
        # previous manifest (if any) stays authoritative.
        if exc_type is None:
            self.close()


class CorpusReader:
    """Digest-verified streaming access to a corpus directory.

    Opening validates the manifest and checks every shard file's
    existence and — for raw shards — exact size (``8 * cycles`` bytes),
    so truncation is caught before any stream is consumed.  Content
    digests are verified *while streaming* in :meth:`chunks` (and
    up-front by :meth:`verify`), never by materializing a shard.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.shards = load_manifest(directory)
        self._by_name: Dict[str, ShardMeta] = {m.name: m for m in self.shards}
        for meta in self.shards:
            path = self._path(meta)
            if not os.path.exists(path):
                raise CorpusFormatError(
                    directory, f"shard file {meta.file!r} ({meta.name}) is missing"
                )
            if meta.kind == "raw":
                size = os.path.getsize(path)
                if size != 8 * meta.cycles:
                    raise CorpusFormatError(
                        directory,
                        f"shard {meta.name!r} is {size} bytes, expected "
                        f"{8 * meta.cycles} for {meta.cycles} cycles",
                    )

    def _path(self, meta: ShardMeta) -> str:
        return os.path.join(self.directory, meta.file)

    # -- lookup -------------------------------------------------------

    def names(self) -> List[str]:
        """Stream names in manifest order."""
        return [meta.name for meta in self.shards]

    def __len__(self) -> int:
        return len(self.shards)

    def meta(self, name: str) -> ShardMeta:
        """The manifest entry for one stream."""
        try:
            return self._by_name[name]
        except KeyError:
            available = ", ".join(sorted(self._by_name)) or "<empty corpus>"
            raise KeyError(
                f"no stream {name!r} in corpus {self.directory}; "
                f"available: {available}"
            ) from None

    # -- streaming reads ----------------------------------------------

    def chunks(
        self,
        name: str,
        chunk_cycles: int = DEFAULT_CHUNK_CYCLES,
        verify: bool = True,
    ) -> Iterator[BusTrace]:
        """One stream as bounded :class:`BusTrace` chunks.

        Raw shards are memory-mapped and sliced (peak Python-heap
        memory is one chunk); each chunk's ``initial`` chains to the
        previous chunk's last value — starting from the manifest's
        ``initial`` — so feeding the chunks through a
        :class:`~repro.traces.streaming.StreamingEncoder` is
        bit-identical to encoding the whole stream one-shot.  With
        ``verify`` (the default) a rolling SHA-256 over the streamed
        bytes is checked against the manifest digest after the final
        chunk; a mismatch raises :class:`CorpusFormatError` — the
        stream is corrupt even though every yielded chunk was
        well-formed.
        """
        if chunk_cycles < 1:
            raise ValueError(f"chunk_cycles must be >= 1, got {chunk_cycles}")
        meta = self.meta(name)
        if meta.kind == "raw":
            values: np.ndarray = np.memmap(self._path(meta), dtype="<u8", mode="r")
            read_kind = "mmap"
        else:
            values = self._load_npz(meta).values
            read_kind = "npz"
        digest = hashlib.sha256() if verify else None
        prev = meta.initial
        for start in range(0, meta.cycles, chunk_cycles):
            stop = min(start + chunk_cycles, meta.cycles)
            chunk = np.ascontiguousarray(values[start:stop], dtype="<u8")
            if digest is not None:
                digest.update(chunk.tobytes())
            obs.inc("corpus.read_cycles", stop - start, kind=read_kind)
            yield BusTrace(chunk, meta.width, meta.name, prev)
            prev = int(chunk[-1]) & ((1 << meta.width) - 1)
        if digest is not None and digest.hexdigest() != meta.sha256:
            raise CorpusFormatError(
                self.directory,
                f"stream {name!r} content digest mismatch "
                f"(expected {meta.sha256[:12]}…, got {digest.hexdigest()[:12]}…)",
            )

    def _load_npz(self, meta: ShardMeta) -> BusTrace:
        try:
            trace = load_trace(self._path(meta))
        except TraceFormatError as exc:
            raise CorpusFormatError(
                self.directory, f"shard {meta.name!r}: {exc.reason}"
            ) from exc
        if trace.width != meta.width or len(trace) != meta.cycles:
            raise CorpusFormatError(
                self.directory,
                f"shard {meta.name!r} archive disagrees with the manifest "
                f"(width {trace.width} vs {meta.width}, "
                f"cycles {len(trace)} vs {meta.cycles})",
            )
        return trace

    def trace(self, name: str, cache: Optional[TraceCache] = None) -> BusTrace:
        """Materialize one stream as a digest-verified :class:`BusTrace`.

        Content-keyed through :mod:`repro.traces.cache`: the cache key
        is the manifest digest, so equal traffic — however it entered
        the corpus — shares one cache entry, and a second materialize
        of a large stream is a cache hit, not a re-read.
        """
        meta = self.meta(name)
        cache = get_default_cache() if cache is None else cache
        key = TraceCache.key("corpus", meta.sha256, meta.width)
        cached = cache.load(key)
        if cached is not None:
            return cached.with_name(meta.name)
        parts = list(self.chunks(name, verify=True))
        if parts:
            trace = BusTrace.concat(*parts)
        else:
            trace = BusTrace(
                np.empty(0, dtype=np.uint64), meta.width, meta.name, meta.initial
            )
        cache.store(key, trace)
        return trace

    # -- integrity ----------------------------------------------------

    def verify(self, name: Optional[str] = None) -> List[str]:
        """Digest-verify one stream (or all); returns the names checked.

        Streams every shard through :meth:`chunks` — bounded memory —
        and raises :class:`CorpusFormatError` on the first mismatch.
        """
        names = [name] if name is not None else self.names()
        with obs.span("corpus.verify", corpus=self.directory, streams=len(names)):
            for stream in names:
                for _chunk in self.chunks(stream, verify=True):
                    pass
        return names


def import_binary(
    writer: CorpusWriter,
    path: str,
    width: int,
    name: Optional[str] = None,
    initial: int = 0,
) -> ShardMeta:
    """Import a raw little-endian uint64 binary file as one shard.

    Streams the file in :data:`IMPORT_CHUNK_BYTES` reads — peak memory
    is one read buffer, never the file — masking values to ``width``.
    The file size must be a multiple of 8 (whole uint64 words).
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such trace file: {path}")
    size = os.path.getsize(path)
    if size % 8:
        raise CorpusFormatError(
            path, f"raw uint64 file size must be a multiple of 8, got {size}"
        )
    name = name or os.path.splitext(os.path.basename(path))[0]

    def reader() -> Iterator[np.ndarray]:
        with open(path, "rb") as handle:
            while True:
                data = handle.read(IMPORT_CHUNK_BYTES)
                if not data:
                    break
                yield np.frombuffer(data, dtype="<u8")

    with obs.span("corpus.ingest", kind="raw", source=path, bytes=size):
        return writer.add_chunks(
            name, reader(), width, initial=initial, source=f"import:{path}"
        )


def import_npz(
    writer: CorpusWriter,
    path: str,
    name: Optional[str] = None,
    convert: bool = True,
) -> ShardMeta:
    """Import a :func:`repro.traces.io.save_trace` archive as one shard.

    By default the archive is converted to a ``raw`` shard (the
    streamable kind); with ``convert=False`` the ``.npz`` file is
    copied in verbatim and registered as an ``npz`` shard — reads of it
    will materialize (compressed archives cannot be memory-mapped).
    """
    trace = load_trace(path)  # validates; raises TraceFormatError
    name = name or trace.name or os.path.splitext(os.path.basename(path))[0]
    with obs.span("corpus.ingest", kind="npz", source=path, cycles=len(trace)):
        if convert:
            return writer.add_trace(name, trace, source=f"import:{path}")
        if writer._closed:
            raise CorpusFormatError(writer.directory, "writer is closed")
        if name in writer._names:
            raise ValueError(f"corpus already has a stream named {name!r}")
        filename = _shard_filename(name, writer._files, ".npz")
        save_trace(trace, os.path.join(writer.directory, filename))
        obs.inc("corpus.ingest_bytes", int(trace.values.nbytes))
        meta = ShardMeta(
            name=name,
            file=filename,
            kind="npz",
            width=trace.width,
            cycles=len(trace),
            initial=trace.initial,
            sha256=digest_values([trace.values]),
            source=f"import:{path}",
        )
        return writer._register(meta)
