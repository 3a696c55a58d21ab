"""Running the workload suite and caching its bus traces.

Trace generation (running the CPU substrate) is the expensive step of
every experiment, and every figure reuses the same traces, so this
module memoises them twice over:

* **in-process** — :func:`run_workload` is ``lru_cache``-memoised per
  ``(benchmark, cycle budget)``, with a *bounded* size so a long sweep
  over many cycle budgets cannot hold every simulation result alive;
* **across processes** — each bus trace that is asked for is persisted
  through :mod:`repro.traces.cache` keyed by ``(workload, bus, cycles,
  program-hash)``, so repeated sweeps, the ``benchmarks/`` figure
  suite, and parallel sweep workers skip CPU re-simulation for it.
  The program hash covers the kernel source and its deterministic data
  seed: editing a kernel invalidates exactly its own entries.

All experiments in ``benchmarks/`` pull traces from here.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..cpu.machine import Machine, SimulationResult
from ..cpu.pipeline import PipelineConfig
from ..traces.cache import get_default_cache
from ..traces.trace import BusTrace
from .extended import EXTENDED_WORKLOADS
from .programs import WORKLOADS, Workload

__all__ = [
    "run_workload",
    "program_hash",
    "register_trace",
    "memory_trace",
    "address_trace",
    "result_trace",
    "suite_traces",
    "clear_caches",
    "DEFAULT_CYCLES",
    "BUS_NAMES",
]

#: Default trace length (cycles).  Long enough for the dictionaries and
#: counters to reach steady state, short enough to sweep dozens of
#: configurations per figure.
DEFAULT_CYCLES = 60_000

#: The four traced buses of a :class:`SimulationResult`.
BUS_NAMES = ("register", "memory", "address", "result")

#: In-process memo entries for :func:`run_workload`.  Each entry holds
#: four full traces, so the bound keeps worst-case residency at a few
#: hundred MB instead of unbounded growth across a long sweep.
RUN_CACHE_SIZE = 64


def _get(name: str) -> Workload:
    workload = WORKLOADS.get(name) or EXTENDED_WORKLOADS.get(name)
    if workload is None:
        known = ", ".join(sorted(set(WORKLOADS) | set(EXTENDED_WORKLOADS)))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None
    return workload


def program_hash(name: str) -> str:
    """Content hash of one benchmark's program and data initialisation.

    Keys the persistent trace cache: covers the kernel source text and
    the deterministic data seed, so editing a kernel (or renaming it,
    which changes its seed) invalidates its cached traces and nothing
    else.
    """
    workload = _get(name)
    digest = hashlib.sha256()
    digest.update(workload.source.encode())
    digest.update(f"|{workload.name}|{workload.category}|{workload.seed}".encode())
    return digest.hexdigest()[:16]


@lru_cache(maxsize=RUN_CACHE_SIZE)
def run_workload(name: str, cycles: int = DEFAULT_CYCLES) -> SimulationResult:
    """Run one benchmark for ``cycles`` cycles; memoised (bounded LRU)."""
    workload = _get(name)
    machine = Machine(
        source=workload.source,
        config=PipelineConfig(max_cycles=cycles),
        name=workload.name,
    )
    workload.setup(machine.memory, workload.rng())
    return machine.run()


def clear_caches() -> None:
    """Drop every in-process trace memo (persistent disk entries stay).

    Clears the bounded :func:`run_workload` LRU and the default
    :class:`~repro.traces.cache.TraceCache`'s memory layer.  Long-lived
    services call this between sweeps to release simulation results;
    the next lookup falls through to the on-disk cache, not to a
    re-simulation.
    """
    run_workload.cache_clear()
    get_default_cache().clear_memory()


def _trace_cache_key(name: str, bus: str, cycles: int) -> str:
    cache = get_default_cache()
    return cache.key("trace", name, bus, cycles, program_hash(name))


def _bus_trace(name: str, bus: str, cycles: int) -> BusTrace:
    """One benchmark's trace on one bus, through both cache layers."""
    if bus not in BUS_NAMES:
        raise ValueError(f"bus must be one of {sorted(BUS_NAMES)}, got {bus!r}")
    cache = get_default_cache()
    key = _trace_cache_key(name, bus, cycles)
    cached = cache.load(key)  # None when the cache is disabled
    if cached is not None:
        return cached
    trace = getattr(run_workload(name, cycles), f"{bus}_trace")
    # Only the bus asked for: the cost of a cold store is the file count.
    # Another bus re-simulates in a later process (DESIGN.md, perf item 3).
    cache.store(key, trace)
    return trace


def register_trace(name: str, cycles: int = DEFAULT_CYCLES) -> BusTrace:
    """The register-bus trace of one benchmark."""
    return _bus_trace(name, "register", cycles)


def memory_trace(name: str, cycles: int = DEFAULT_CYCLES) -> BusTrace:
    """The memory-bus trace of one benchmark."""
    return _bus_trace(name, "memory", cycles)


def address_trace(name: str, cycles: int = DEFAULT_CYCLES) -> BusTrace:
    """The memory-address-bus trace of one benchmark."""
    return _bus_trace(name, "address", cycles)


def result_trace(name: str, cycles: int = DEFAULT_CYCLES) -> BusTrace:
    """The writeback/result-bus trace of one benchmark."""
    return _bus_trace(name, "result", cycles)


def suite_traces(
    bus: str,
    names: Optional[Tuple[str, ...]] = None,
    cycles: int = DEFAULT_CYCLES,
) -> Dict[str, BusTrace]:
    """Traces of many benchmarks on one bus (``"register"``/``"memory"``)."""
    if bus not in BUS_NAMES:
        raise ValueError(f"bus must be one of {sorted(BUS_NAMES)}, got {bus!r}")
    selected: List[str] = list(names) if names is not None else sorted(WORKLOADS)
    return {name: _bus_trace(name, bus, cycles) for name in selected}
