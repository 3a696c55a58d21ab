"""Content digests and the one atomic writer for every file the library seals.

:func:`atomic_write` does not fsync: the digests its callers record and
verify on read cover an OS crash (DESIGN.md, *Resumable runs*).
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
from typing import Any, Iterable


def canonical_json(value: Any) -> str:
    """The canonical (sorted-key, compact) JSON encoding of ``value``.

    Content keys — cell identity, config digests, artifact digests —
    are all computed over this encoding, so they are stable across
    processes, dict orderings and Python versions.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def content_digest(value: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json`\\ (value)."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def file_digest(path: str) -> str:
    """SHA-256 hex digest of a file's exact bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def atomic_write(path: str, chunks: Iterable[bytes]) -> str:
    """Atomically write ``chunks`` to ``path``; returns their SHA-256 hex.

    The bytes go to a temp file beside ``path`` that ``os.replace``
    renames over it, so a reader sees the old file or the whole new
    one; it gets ``open``'s permissions (0666 less the umask).  A
    generator keeps memory bounded.  On any failure, the generator's
    own included, the temp file is removed.
    """
    digest = hashlib.sha256()
    tmp = os.path.join(os.path.dirname(path), f".tmp-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                digest.update(chunk)
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    return digest.hexdigest()
