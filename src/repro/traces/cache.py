"""Persistent on-disk cache for simulated workload traces.

Running the CPU substrate is the expensive step of every sweep, and its
output is a pure function of ``(workload program, bus, cycle budget)``.
This module memoises that function **across processes**: traces are
stored as validated ``.npz`` archives (the same format as
:mod:`repro.traces.io`, so loading reuses :func:`load_trace`'s
:class:`TraceFormatError` checking) under a content-addressed file name
derived from ``(workload, bus, cycles, program-hash)``.  A second
``repro run table3`` pass, a re-executed figure suite, or the workers of a
parallel sweep therefore skip CPU re-simulation entirely.

Derived *artifacts* — small JSON blobs such as the hardware operation
counts of a crossover analysis — share the same keyed store via
:meth:`TraceCache.load_json`/:meth:`TraceCache.store_json`.

Corruption is never fatal: a cache file that fails validation is
evicted and the caller re-simulates, so a truncated write or a tampered
archive costs one cache miss, not a crashed sweep.  Validation includes
**content digests**: ``.npz`` entries carry the
:func:`~repro.traces.io.trace_digest` seal and JSON artifacts are
stored inside a ``{"sha256", "value"}`` envelope hashed over the
canonical (sorted, compact) JSON encoding of the value — so a bit-flip
that still *parses* is detected, counted under ``trace_cache.corrupt``,
evicted and recomputed instead of being returned silently.

Every hit/miss/store/eviction is mirrored into :mod:`repro.obs` as the
``trace_cache.*`` counters (hits are labelled by layer —
``memory``/``disk``), so ``repro report`` can derive a run's cache hit
rate and a miss storm shows up in the telemetry, not just in wall time.

Configuration (also see the README "Performance" section):

* ``REPRO_TRACE_CACHE_DIR`` — cache directory (default
  ``$XDG_CACHE_HOME/repro/traces`` or ``~/.cache/repro/traces``);
* ``REPRO_TRACE_CACHE=0`` — disable the persistent layer entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

from .. import obs
from .._seal import atomic_write, content_digest
from .io import TraceFormatError, load_trace, save_trace
from .trace import BusTrace

__all__ = [
    "TraceCache",
    "default_cache_dir",
    "cache_enabled_by_env",
    "get_default_cache",
    "set_default_cache",
    "CACHE_DIR_ENV",
    "CACHE_ENABLE_ENV",
]

CACHE_DIR_ENV = "REPRO_TRACE_CACHE_DIR"
CACHE_ENABLE_ENV = "REPRO_TRACE_CACHE"

#: Bump to invalidate every existing cache entry on a format change.
#: v2: every entry is digest-sealed (``sha256`` npz member / JSON
#: envelope), verified on load.
_CACHE_VERSION = 2


def default_cache_dir() -> str:
    """``$REPRO_TRACE_CACHE_DIR``, else the XDG cache location."""
    configured = os.environ.get(CACHE_DIR_ENV)
    if configured:
        return configured
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro", "traces")


def cache_enabled_by_env() -> bool:
    """False when ``REPRO_TRACE_CACHE`` is set to 0/false/off/no."""
    return os.environ.get(CACHE_ENABLE_ENV, "1").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


class TraceCache:
    """Two-layer (in-process dict + on-disk ``.npz``/JSON) trace cache.

    Parameters
    ----------
    directory:
        Cache directory; defaults to :func:`default_cache_dir`.
    enabled:
        When False every lookup misses and nothing is written — the
        null cache used when ``REPRO_TRACE_CACHE=0``.
    """

    def __init__(self, directory: Optional[str] = None, enabled: bool = True):
        self.directory = directory or default_cache_dir()
        self.enabled = enabled
        self._memory: Dict[str, BusTrace] = {}
        self._memory_json: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0
        self.corrupt_evictions = 0

    # -- keys ---------------------------------------------------------

    @staticmethod
    def key(*parts: Any) -> str:
        """Stable content key for any tuple of primitive parts."""
        text = f"v{_CACHE_VERSION}|" + "|".join(str(p) for p in parts)
        return hashlib.sha256(text.encode()).hexdigest()[:32]

    def trace_path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.npz")

    def json_path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    # -- traces -------------------------------------------------------

    def load(self, key: str) -> Optional[BusTrace]:
        """The cached trace for ``key``, or None on a miss.

        A file that exists but fails :func:`load_trace` validation
        (truncated, tampered, wrong shape/width) is deleted and treated
        as a miss — the caller re-simulates instead of crashing.
        """
        if not self.enabled:
            return None
        cached = self._memory.get(key)
        if cached is not None:
            self.hits += 1
            obs.inc("trace_cache.hits", layer="memory")
            return cached
        path = self.trace_path(key)
        try:
            trace = load_trace(path)
        except FileNotFoundError:
            self.misses += 1
            obs.inc("trace_cache.misses")
            return None
        except TraceFormatError as exc:
            self.corrupt_evictions += 1
            self.misses += 1
            if exc.reason.startswith("content digest mismatch"):
                # Parsed fine but the bytes are not what was stored:
                # silent-corruption class, counted separately.
                obs.inc("trace_cache.corrupt")
            obs.inc("trace_cache.corrupt_evictions")
            obs.inc("trace_cache.misses")
            self._evict(path)
            return None
        self.hits += 1
        obs.inc("trace_cache.hits", layer="disk")
        self._memory[key] = trace
        return trace

    def store(self, key: str, trace: BusTrace) -> None:
        """Persist ``trace`` under ``key`` (atomic rename, best effort)."""
        if not self.enabled:
            return
        self._memory[key] = trace
        obs.inc("trace_cache.stores")
        try:
            os.makedirs(self.directory, exist_ok=True)
            save_trace(trace, self.trace_path(key))
        except OSError:
            # A read-only or full cache directory degrades to in-memory
            # caching; it must never fail the experiment.
            pass

    # -- derived JSON artifacts ---------------------------------------

    def load_json(self, key: str) -> Optional[Any]:
        """The cached JSON artifact for ``key``, or None.

        Unreadable or undecodable files are evicted like corrupt
        traces, and so are files whose ``{"sha256", "value"}`` envelope
        digest no longer matches the value — a tamper that still parses
        costs one recompute, never a silently wrong artifact.
        """
        if not self.enabled:
            return None
        if key in self._memory_json:
            self.hits += 1
            obs.inc("trace_cache.hits", layer="memory")
            return self._memory_json[key]
        path = self.json_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                blob = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            obs.inc("trace_cache.misses")
            return None
        except (OSError, ValueError):
            self.corrupt_evictions += 1
            self.misses += 1
            obs.inc("trace_cache.corrupt_evictions")
            obs.inc("trace_cache.misses")
            self._evict(path)
            return None
        if (
            not isinstance(blob, dict)
            or set(blob) != {"sha256", "value"}
            or blob["sha256"] != content_digest(blob["value"])
        ):
            self.corrupt_evictions += 1
            self.misses += 1
            obs.inc("trace_cache.corrupt")
            obs.inc("trace_cache.corrupt_evictions")
            obs.inc("trace_cache.misses")
            self._evict(path)
            return None
        value = blob["value"]
        self.hits += 1
        obs.inc("trace_cache.hits", layer="disk")
        self._memory_json[key] = value
        return value

    def store_json(self, key: str, value: Any) -> None:
        """Persist a small JSON-serialisable artifact under ``key``."""
        if not self.enabled:
            return
        self._memory_json[key] = value
        obs.inc("trace_cache.stores")
        try:
            blob = json.dumps({"sha256": content_digest(value), "value": value})
            os.makedirs(self.directory, exist_ok=True)
            atomic_write(self.json_path(key), [blob.encode("utf-8")])
        except (OSError, TypeError):
            pass

    # -- maintenance --------------------------------------------------

    def _evict(self, path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    def clear_memory(self) -> None:
        """Drop the in-process layer (the disk layer stays)."""
        self._memory.clear()
        self._memory_json.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt_evictions": self.corrupt_evictions,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "enabled" if self.enabled else "disabled"
        return f"TraceCache({self.directory!r}, {state})"


_default_cache: Optional[TraceCache] = None


def get_default_cache() -> TraceCache:
    """The process-wide cache, configured from the environment once."""
    global _default_cache
    if _default_cache is None:
        _default_cache = TraceCache(enabled=cache_enabled_by_env())
    return _default_cache


def set_default_cache(cache: Optional[TraceCache]) -> None:
    """Replace the process-wide cache (tests point it at a tmp dir)."""
    global _default_cache
    _default_cache = cache
