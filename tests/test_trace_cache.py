"""The persistent trace cache: round-trips, key invalidation, corruption.

Three contracts:

* a stored trace/artifact comes back bit-identical, across processes
  (simulated here by clearing the in-memory layer);
* the key covers everything the trace depends on — workload *program*,
  bus, cycle budget — so edits and different budgets miss instead of
  serving stale data;
* a corrupt or truncated cache file is evicted and re-simulated, never
  fatal.
"""

import json
import os

import numpy as np
import pytest

from repro.traces import (
    BusTrace,
    TraceCache,
    cache_enabled_by_env,
    default_cache_dir,
    get_default_cache,
    set_default_cache,
)
from repro.traces.cache import CACHE_DIR_ENV, CACHE_ENABLE_ENV
from repro.workloads import clear_caches, program_hash, register_trace
from repro.workloads.suite import _trace_cache_key


@pytest.fixture
def tmp_cache(tmp_path):
    """A fresh default cache in a throwaway directory (restored after)."""
    previous = get_default_cache()
    cache = TraceCache(str(tmp_path / "cache"))
    set_default_cache(cache)
    clear_caches()
    yield cache
    set_default_cache(previous)
    clear_caches()


def _trace(seed=0, n=50, width=16, name="t"):
    rng = np.random.default_rng(seed)
    return BusTrace(
        rng.integers(0, 1 << width, size=n, dtype=np.uint64), width, name
    )


# -- round trips ----------------------------------------------------------


def test_trace_round_trip_through_disk(tmp_cache):
    trace = _trace(seed=1, name="roundtrip")
    key = tmp_cache.key("test", "roundtrip")
    tmp_cache.store(key, trace)
    tmp_cache.clear_memory()  # force the disk layer
    loaded = tmp_cache.load(key)
    assert loaded is not None
    assert np.array_equal(loaded.values, trace.values)
    assert loaded.width == trace.width
    assert loaded.name == trace.name
    assert os.path.exists(tmp_cache.trace_path(key))


def test_json_round_trip_through_disk(tmp_cache):
    key = tmp_cache.key("test", "artifact")
    payload = {"ops": {"match": 12, "shift": 3}, "width": 34}
    tmp_cache.store_json(key, payload)
    tmp_cache.clear_memory()
    assert tmp_cache.load_json(key) == payload


def test_miss_on_unknown_key(tmp_cache):
    assert tmp_cache.load(tmp_cache.key("nope")) is None
    assert tmp_cache.load_json(tmp_cache.key("nope", "json")) is None
    assert tmp_cache.stats()["misses"] == 2
    assert tmp_cache.stats()["hits"] == 0


def test_disabled_cache_never_stores(tmp_path):
    cache = TraceCache(str(tmp_path / "off"), enabled=False)
    key = cache.key("k")
    cache.store(key, _trace())
    cache.store_json(key, {"a": 1})
    assert cache.load(key) is None
    assert cache.load_json(key) is None
    assert not os.path.exists(str(tmp_path / "off"))


# -- key invalidation -----------------------------------------------------


def test_key_is_stable_and_sensitive():
    a = TraceCache.key("trace", "gcc", "register", 5000, "abc")
    assert a == TraceCache.key("trace", "gcc", "register", 5000, "abc")
    assert a != TraceCache.key("trace", "gcc", "register", 5001, "abc")
    assert a != TraceCache.key("trace", "gcc", "memory", 5000, "abc")
    assert a != TraceCache.key("trace", "gcc", "register", 5000, "abd")
    assert a != TraceCache.key("trace", "swim", "register", 5000, "abc")


def test_program_hash_distinguishes_workloads():
    assert program_hash("gcc") != program_hash("swim")
    assert program_hash("gcc") == program_hash("gcc")


def test_suite_key_changes_with_cycles_and_program(tmp_cache):
    k1 = _trace_cache_key("gcc", "register", 1000)
    k2 = _trace_cache_key("gcc", "register", 2000)
    k3 = _trace_cache_key("swim", "register", 1000)
    assert len({k1, k2, k3}) == 3


def test_suite_traces_persist_and_reload(tmp_cache):
    cold = register_trace("gcc", 1200)
    key = _trace_cache_key("gcc", "register", 1200)
    assert os.path.exists(tmp_cache.trace_path(key))
    clear_caches()  # drop lru + memory; the next call must hit the disk
    warm = register_trace("gcc", 1200)
    assert tmp_cache.stats()["hits"] >= 1
    assert np.array_equal(cold.values, warm.values)
    # A different cycle budget is a different key: re-simulates.
    other = register_trace("gcc", 600)
    assert len(other) != len(cold)


def test_one_request_persists_one_bus(tmp_cache, monkeypatch):
    """Only the asked-for bus is written; another bus in a fresh process
    re-simulates and matches the pinned CPU digests."""
    from repro.cpu.machine import Machine
    from repro.traces.io import trace_digest
    from repro.workloads import memory_trace
    from tests.test_cpu_digests import SHORT_CYCLES, _load

    register_trace("gcc", SHORT_CYCLES)
    key = _trace_cache_key("gcc", "register", SHORT_CYCLES)
    assert os.listdir(tmp_cache.directory) == [os.path.basename(tmp_cache.trace_path(key))]

    fresh = TraceCache(tmp_cache.directory)
    set_default_cache(fresh)
    clear_caches()  # a new process: no run memo either
    runs = []
    original = Machine.run
    monkeypatch.setattr(
        Machine, "run", lambda machine: runs.append(1) or original(machine)
    )
    memory = memory_trace("gcc", SHORT_CYCLES)
    assert len(runs) == 1 and fresh.stats()["misses"] == 1
    pinned = _load()["cases"][f"program:gcc@{SHORT_CYCLES}"]["buses"]
    assert trace_digest(memory) == pinned["memory"]
    assert len(os.listdir(tmp_cache.directory)) == 2


# -- corruption recovery --------------------------------------------------


def test_corrupt_trace_file_is_evicted_and_resimulated(tmp_cache):
    cold = register_trace("gcc", 1200)
    key = _trace_cache_key("gcc", "register", 1200)
    path = tmp_cache.trace_path(key)
    with open(path, "wb") as handle:
        handle.write(b"this is not an npz archive")
    clear_caches()
    recovered = register_trace("gcc", 1200)  # must not raise
    assert np.array_equal(recovered.values, cold.values)
    assert tmp_cache.stats()["corrupt_evictions"] >= 1


def test_corrupt_json_artifact_is_evicted(tmp_cache):
    key = tmp_cache.key("artifact")
    tmp_cache.store_json(key, {"x": 1})
    with open(tmp_cache.json_path(key), "w") as handle:
        handle.write("{truncated")
    tmp_cache.clear_memory()
    assert tmp_cache.load_json(key) is None
    assert tmp_cache.stats()["corrupt_evictions"] == 1
    assert not os.path.exists(tmp_cache.json_path(key))


def test_readonly_directory_degrades_to_memory(tmp_path):
    target = tmp_path / "ro"
    target.mkdir()
    os.chmod(target, 0o500)
    try:
        cache = TraceCache(str(target))
        key = cache.key("k")
        cache.store(key, _trace())  # must not raise
        assert cache.load(key) is not None  # memory layer still serves it
    finally:
        os.chmod(target, 0o700)


# -- environment configuration --------------------------------------------


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "custom"))
    assert default_cache_dir() == str(tmp_path / "custom")
    monkeypatch.delenv(CACHE_DIR_ENV)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == str(tmp_path / "xdg" / "repro" / "traces")


def test_cache_enabled_by_env(monkeypatch):
    for off in ("0", "false", "OFF", "no"):
        monkeypatch.setenv(CACHE_ENABLE_ENV, off)
        assert not cache_enabled_by_env()
    monkeypatch.setenv(CACHE_ENABLE_ENV, "1")
    assert cache_enabled_by_env()
    monkeypatch.delenv(CACHE_ENABLE_ENV)
    assert cache_enabled_by_env()


# -- content digest verification (silent-corruption class) ----------------


def _corrupt_counter():
    from repro import obs

    return obs.get_registry().counter("trace_cache.corrupt")


def test_plausible_trace_tamper_is_detected_and_recomputed(tmp_cache):
    """A value swap that keeps the archive structurally valid must be
    caught by the digest on load, counted, evicted, recomputed."""
    cold = register_trace("gcc", 1200)
    key = _trace_cache_key("gcc", "register", 1200)
    path = tmp_cache.trace_path(key)
    with np.load(path) as data:
        members = {k: data[k] for k in data.files}
    values = np.array(members["values"], dtype=np.uint64)
    values[0] ^= 1  # the bit-flip the structural checks cannot see
    members["values"] = values
    np.savez_compressed(path, **members)

    before = _corrupt_counter()
    clear_caches()
    recovered = register_trace("gcc", 1200)  # must not raise, must not lie
    assert np.array_equal(recovered.values, cold.values)
    assert _corrupt_counter() == before + 1
    assert tmp_cache.stats()["corrupt_evictions"] >= 1


def test_json_envelope_tamper_is_detected(tmp_cache):
    key = tmp_cache.key("artifact", "sealed")
    tmp_cache.store_json(key, {"x": 1, "y": [2, 3]})
    with open(tmp_cache.json_path(key), "r", encoding="utf-8") as handle:
        blob = json.load(handle)
    blob["value"]["x"] = 99  # parses fine; envelope digest now lies
    with open(tmp_cache.json_path(key), "w", encoding="utf-8") as handle:
        json.dump(blob, handle)
    tmp_cache.clear_memory()
    before = _corrupt_counter()
    assert tmp_cache.load_json(key) is None
    assert _corrupt_counter() == before + 1
    assert not os.path.exists(tmp_cache.json_path(key))


def test_legacy_bare_json_artifact_treated_as_corrupt(tmp_cache):
    # Pre-envelope cache files (a bare value, no {"sha256","value"}
    # wrapper) cannot be verified; they are evicted, not trusted.
    key = tmp_cache.key("artifact", "legacy")
    os.makedirs(tmp_cache.directory, exist_ok=True)
    with open(tmp_cache.json_path(key), "w", encoding="utf-8") as handle:
        json.dump({"x": 1}, handle)
    assert tmp_cache.load_json(key) is None
    assert not os.path.exists(tmp_cache.json_path(key))


def test_json_round_trip_keeps_envelope_on_disk(tmp_cache):
    key = tmp_cache.key("artifact", "envelope")
    tmp_cache.store_json(key, [1, 2, 3])
    with open(tmp_cache.json_path(key), "r", encoding="utf-8") as handle:
        blob = json.load(handle)
    assert set(blob) == {"sha256", "value"}
    assert blob["value"] == [1, 2, 3]
    tmp_cache.clear_memory()
    assert tmp_cache.load_json(key) == [1, 2, 3]
