"""The one atomic writer: whole file or old file, and no temp debris.

Every sealed file the library writes — cell artifacts, trace-cache
entries, corpus shards and the corpus manifest — goes through
:func:`repro._seal.atomic_write`.  A write that fails part-way must
leave the previous target untouched and no ``.tmp-*`` file behind,
including in the callers that swallow the error.
"""

import hashlib
import os

import numpy as np
import pytest

from repro import _seal
from repro._seal import atomic_write
from repro.corpus.store import CorpusWriter
from repro.runs import RunDirectory
from repro.traces import BusTrace, TraceCache


def _listing(directory):
    return sorted(os.listdir(directory))


def _failing_chunks(first=b"partial "):
    yield first
    raise OSError("disk gave out mid-write")


def _fail_rename(monkeypatch):
    def rename(_src, _dst):
        raise OSError("rename refused")

    monkeypatch.setattr(_seal.os, "replace", rename)


class TestAtomicWrite:
    def test_returns_digest_of_written_bytes(self, tmp_path):
        path = str(tmp_path / "f.bin")
        digest = atomic_write(path, [b"ab", b"", b"cd"])
        with open(path, "rb") as handle:
            assert handle.read() == b"abcd"
        assert digest == hashlib.sha256(b"abcd").hexdigest()
        assert _listing(tmp_path) == ["f.bin"]
        umask = os.umask(0)
        os.umask(umask)
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask  # as open() gives

    def test_mid_write_failure_keeps_old_file_and_no_temp(self, tmp_path):
        path = str(tmp_path / "f.bin")
        atomic_write(path, [b"old"])
        with pytest.raises(OSError, match="mid-write"):
            atomic_write(path, _failing_chunks())
        with open(path, "rb") as handle:
            assert handle.read() == b"old"
        assert _listing(tmp_path) == ["f.bin"]

    def test_failed_rename_leaves_no_temp(self, tmp_path, monkeypatch):
        _fail_rename(monkeypatch)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write(str(tmp_path / "f.bin"), [b"x"])
        assert _listing(tmp_path) == []


class TestCallers:
    def test_trace_cache_store_failure_leaves_no_temp(self, tmp_path, monkeypatch):
        cache = TraceCache(str(tmp_path))
        trace = BusTrace(np.arange(64, dtype=np.uint64), 16, "t")
        _fail_rename(monkeypatch)
        cache.store(cache.key("t"), trace)  # swallowed: memory layer only
        cache.store_json(cache.key("j"), {"x": 1})
        assert _listing(tmp_path) == []
        assert cache.load(cache.key("t")) is trace

    def test_artifact_write_failure_leaves_no_temp(self, tmp_path, monkeypatch):
        rundir = RunDirectory(str(tmp_path), "r")
        os.makedirs(rundir.cells_dir)  # run_matrix makes it once per run
        _fail_rename(monkeypatch)
        with pytest.raises(OSError):
            rundir.write_artifact("k", {"savings_pct": 1.0})
        assert _listing(rundir.cells_dir) == []

    def test_shard_write_failure_leaves_no_temp(self, tmp_path):
        directory = str(tmp_path / "corpus")

        def stream():
            yield np.arange(8, dtype=np.uint64)
            raise OSError("disk gave out mid-write")

        with pytest.raises(OSError, match="mid-write"):
            CorpusWriter(directory).add_chunks("s", stream(), 16)
        assert _listing(directory) == []
