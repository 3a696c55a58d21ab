"""High-level experiment orchestration.

Convenience entry points that the benches and examples share: savings
sweeps across the workload suite, the Table 3 crossover matrix, and the
paper's headline transition-savings number.

The sweep paths are **hardened**: :func:`isolated_suite_traces` and
:func:`robust_savings_sweep` give every workload its own error
isolation boundary, so one kernel that assembles badly, trips the cycle
watchdog or blows up mid-encode yields a structured
:class:`SweepFailure` record instead of killing a whole overnight
sweep.  The strict behaviour (first failure propagates) remains
available via ``keep_going=False`` and is what the CLI's ``--strict``
flag selects.

The sweep paths are also **parallel**: every matrix here fans its
(workload x parameter x technology) cells across worker processes via
:func:`repro.analysis.parallel.parallel_map_cells` when ``jobs > 1``,
with a deterministic merge — results are identical to the serial run,
cell for cell, failure for failure.  Strict mode re-raises the
*original* exception by deterministically re-running the first failing
cell in-process.  Trace simulation itself is fanned out too, and every
worker shares the persistent trace cache, so a sweep's cold cost is
paid once per machine rather than once per run.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..coding.base import Transcoder
from ..energy.accounting import normalized_energy_removed
from ..hardware.cam import LOW_BITS
from ..hardware.operations import Op, OperationCounts
from ..traces.cache import get_default_cache
from ..traces.trace import BusTrace
from ..wires.technology import Technology
from ..workloads.programs import FP_WORKLOADS, INT_WORKLOADS
from ..workloads.suite import DEFAULT_CYCLES, program_hash, suite_traces
from .crossover import CrossoverAnalysis, median_crossover, window_artifacts
from .parallel import CellOutcome, parallel_map_cells, resolve_jobs

__all__ = [
    "savings_for",
    "savings_sweep",
    "headline_transition_savings",
    "crossover_table",
    "CrossoverCell",
    "SweepFailure",
    "SweepOutcome",
    "isolated_suite_traces",
    "robust_savings_sweep",
]


@dataclass(frozen=True)
class SweepFailure:
    """Structured record of one isolated per-workload failure.

    Attributes
    ----------
    workload:
        The benchmark whose cell failed.
    stage:
        Where it failed (``"trace"``, ``"encode"``, or an
        experiment-specific label such as ``"faults[reset-both, ber=1e-05]"``).
    kind:
        The exception class name.
    message:
        ``str(exception)``, one line.
    detail:
        Short traceback excerpt for post-mortems; never printed by the
        default reports.
    """

    workload: str
    stage: str
    kind: str
    message: str
    detail: str = ""


@dataclass
class SweepOutcome:
    """Curves that survived plus the failures that did not."""

    curves: Dict[str, List[float]] = field(default_factory=dict)
    failures: List[SweepFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _reraise_strict(cell_fn: Callable, outcome: CellOutcome):
    """Strict-mode recovery: re-run the failing cell in-process.

    Deterministic cells raise the *original* exception type with the
    original message — exactly what the serial strict path propagates.
    If the retry unexpectedly succeeds (a transient worker failure),
    its value is used.
    """
    return cell_fn(outcome.cell)


def _suite_traces_strict(
    bus: str,
    names: Optional[Tuple[str, ...]],
    cycles: int,
    jobs: Optional[int] = 1,
) -> Dict[str, BusTrace]:
    """:func:`suite_traces` with parallel per-workload simulation.

    Strict like ``suite_traces``: any workload failure propagates (the
    failing workload is re-run in-process so the original exception
    escapes, not a pickled stand-in).
    """
    if resolve_jobs(jobs) <= 1:
        return suite_traces(bus, names, cycles)
    if names is None:
        from ..workloads.programs import WORKLOADS

        names = tuple(sorted(WORKLOADS))

    def _simulate(name: str) -> BusTrace:
        return suite_traces(bus, (name,), cycles)[name]

    traces: Dict[str, BusTrace] = {}
    for outcome in parallel_map_cells(_simulate, names, jobs):
        if outcome.ok:
            traces[outcome.cell] = outcome.value
        else:
            traces[outcome.cell] = _reraise_strict(_simulate, outcome)
    return traces


def isolated_suite_traces(
    bus: str,
    names: Optional[Tuple[str, ...]] = None,
    cycles: int = DEFAULT_CYCLES,
    keep_going: bool = True,
    jobs: Optional[int] = 1,
) -> Tuple[Dict[str, BusTrace], List[SweepFailure]]:
    """Like :func:`~repro.workloads.suite.suite_traces`, per-workload isolated.

    Each benchmark's simulation runs inside its own isolation boundary
    (its own worker process when ``jobs > 1``); a failure (unknown
    name, assembly error, cycle-budget watchdog, ...) becomes a
    :class:`SweepFailure` and the remaining benchmarks still produce
    traces.  With ``keep_going=False`` the first failure propagates
    unchanged (strict mode).
    """
    if names is None:
        from ..workloads.programs import WORKLOADS

        names = tuple(sorted(WORKLOADS))

    def _simulate(name: str) -> BusTrace:
        with obs.span("sweep.simulate", workload=name, bus=bus, cycles=cycles):
            return suite_traces(bus, (name,), cycles)[name]

    traces: Dict[str, BusTrace] = {}
    failures: List[SweepFailure] = []
    for outcome in parallel_map_cells(_simulate, names, jobs):
        if outcome.ok:
            traces[outcome.cell] = outcome.value
            continue
        if not keep_going:
            traces[outcome.cell] = _reraise_strict(_simulate, outcome)
            continue
        obs.inc("sweep.cells_failed", stage="trace")
        failures.append(
            SweepFailure(
                workload=outcome.cell,
                stage="trace",
                kind=outcome.error.kind,
                message=outcome.error.message,
                detail=outcome.error.detail,
            )
        )
    return traces, failures


def savings_for(trace: BusTrace, coder: Transcoder, lam: float = 1.0) -> float:
    """Normalized energy removed (%) by one coder on one trace."""
    return normalized_energy_removed(trace, coder.encode_trace(trace), lam)


def savings_sweep(
    bus: str,
    coder_factory: Callable[[int], Transcoder],
    parameter_values: Sequence[int],
    names: Optional[Tuple[str, ...]] = None,
    cycles: int = DEFAULT_CYCLES,
    lam: float = 1.0,
    jobs: Optional[int] = 1,
) -> Dict[str, List[float]]:
    """Savings (%) per benchmark as one coder parameter sweeps.

    This is the engine behind Figures 16-25: ``coder_factory`` builds a
    transcoder from the swept parameter (number of strides, shift
    register size, table size, divide period ...), and each benchmark
    contributes one curve.  ``jobs > 1`` fans the (workload, parameter)
    cells across worker processes; the curves are identical to the
    serial run and failures propagate as the original exception.
    """
    with obs.span("sweep.simulate_phase", bus=bus, cycles=cycles):
        traces = _suite_traces_strict(bus, names, cycles, jobs)

    def _cell(cell: Tuple[str, int]) -> float:
        name, value = cell
        with obs.span("sweep.cell", workload=name, param=value, bus=bus):
            return savings_for(traces[name], coder_factory(value), lam)

    cells = [(name, value) for name in traces for value in parameter_values]
    results: Dict[Tuple[str, int], float] = {}
    with obs.span("sweep.encode_phase", cells=len(cells)):
        for outcome in parallel_map_cells(_cell, cells, jobs):
            results[outcome.cell] = (
                outcome.value if outcome.ok else _reraise_strict(_cell, outcome)
            )
    return {
        name: [results[(name, value)] for value in parameter_values]
        for name in traces
    }


def headline_transition_savings(
    coder_factory: Callable[[], Transcoder],
    bus: str = "register",
    names: Optional[Tuple[str, ...]] = None,
    cycles: int = DEFAULT_CYCLES,
    jobs: Optional[int] = 1,
) -> float:
    """Average % of bus transitions removed across the suite.

    The paper's headline: "an average of 36% savings in transitions on
    internal buses" — a pure transition count (coupling ratio 0).
    """
    traces = _suite_traces_strict(bus, names, cycles, jobs)
    savings = [savings_for(t, coder_factory(), lam=0.0) for t in traces.values()]
    return float(np.mean(savings))


def robust_savings_sweep(
    bus: str,
    coder_factory: Callable[[int], Transcoder],
    parameter_values: Sequence[int],
    names: Optional[Tuple[str, ...]] = None,
    cycles: int = DEFAULT_CYCLES,
    lam: float = 1.0,
    keep_going: bool = True,
    jobs: Optional[int] = 1,
) -> SweepOutcome:
    """:func:`savings_sweep` with per-workload error isolation.

    A benchmark that fails to simulate, or a coder that blows up on one
    of its traces, contributes a :class:`SweepFailure` instead of
    aborting the sweep; every other curve is still computed.  With
    ``keep_going=False`` this behaves exactly like the strict
    :func:`savings_sweep` (first failure propagates).  ``jobs > 1``
    parallelises both the simulations and the encode cells with a
    deterministic merge.
    """
    with obs.span("sweep.simulate_phase", bus=bus, cycles=cycles):
        traces, failures = isolated_suite_traces(bus, names, cycles, keep_going, jobs)
    outcome = SweepOutcome(failures=failures)

    def _cell(cell: Tuple[str, int]) -> float:
        name, value = cell
        with obs.span("sweep.cell", workload=name, param=value, bus=bus):
            return savings_for(traces[name], coder_factory(value), lam)

    cells = [(name, value) for name in traces for value in parameter_values]
    results: Dict[Tuple[str, int], CellOutcome] = {}
    with obs.span("sweep.encode_phase", cells=len(cells)):
        for cell_outcome in parallel_map_cells(_cell, cells, jobs):
            if not cell_outcome.ok and not keep_going:
                _reraise_strict(_cell, cell_outcome)
            results[cell_outcome.cell] = cell_outcome
    for name in traces:
        per_param = [results[(name, value)] for value in parameter_values]
        failed = next((r for r in per_param if not r.ok), None)
        if failed is None:
            outcome.curves[name] = [r.value for r in per_param]
        else:
            # Matches the serial contract: the whole curve is dropped
            # and the first failing parameter's error is recorded.
            obs.inc("sweep.cells_failed", stage="encode")
            outcome.failures.append(
                SweepFailure(
                    workload=name,
                    stage="encode",
                    kind=failed.error.kind,
                    message=failed.error.message,
                    detail=failed.error.detail,
                )
            )
    return outcome


@dataclass(frozen=True)
class CrossoverCell:
    """One cell of the Table 3 matrix."""

    technology: str
    entries: int
    suite: str  # "SPECint" / "SPECfp" / "ALL"
    median_mm: float


def _cached_window_artifacts(
    trace: BusTrace, name: str, bus: str, cycles: int, size: int
) -> Tuple[OperationCounts, BusTrace]:
    """:func:`window_artifacts`, memoised through the persistent cache.

    The coded trace round-trips through the validated ``.npz`` store
    and the operation counts through the JSON artifact store, both
    keyed by the workload's program hash — so a warm :func:`crossover_table`
    skips the hardware-audited encodes, which dominate its cold cost.
    """
    cache = get_default_cache()
    phash = program_hash(name)
    ops_key = cache.key("winops", name, bus, cycles, phash, size, LOW_BITS)
    coded_key = cache.key("wincoded", name, bus, cycles, phash, size, LOW_BITS)
    if cache.enabled:
        ops_blob = cache.load_json(ops_key)
        coded = cache.load(coded_key)
        if ops_blob is not None and coded is not None:
            try:
                ops = OperationCounts({Op(k): int(v) for k, v in ops_blob.items()})
            except (ValueError, AttributeError, TypeError):
                ops = None  # unknown op name or malformed blob: recompute
            if ops is not None and coded.width == trace.width + 2:
                return ops, coded
    ops, coded = window_artifacts(trace, size)
    if cache.enabled:
        cache.store_json(ops_key, {op.value: n for op, n in ops.as_dict().items()})
        cache.store(coded_key, coded)
    return ops, coded


def crossover_table(
    technologies: Sequence[Technology],
    entry_sizes: Sequence[int] = (8, 16),
    bus: str = "register",
    cycles: int = DEFAULT_CYCLES,
    jobs: Optional[int] = 1,
) -> List[CrossoverCell]:
    """Regenerate Table 3: median crossover lengths by technology,
    dictionary size and benchmark class.

    The expensive work — simulating each benchmark and the
    hardware-audited window encode per ``(workload, size)`` — is
    technology-independent, so it runs once (optionally fanned across
    ``jobs`` workers, persisted by the trace cache) and every
    technology's cells are derived from it.  Output order and values
    match the original serial implementation exactly.
    """
    int_names = tuple(INT_WORKLOADS)
    fp_names = tuple(FP_WORKLOADS)
    all_names = int_names + fp_names
    with obs.span("table3.simulate", bus=bus, cycles=cycles, workloads=len(all_names)):
        traces = _suite_traces_strict(bus, all_names, cycles, jobs)

    def _artifact(cell: Tuple[str, int]) -> Tuple[OperationCounts, BusTrace]:
        name, size = cell
        with obs.span("table3.cell", workload=name, entries=size, bus=bus):
            return _cached_window_artifacts(traces[name], name, bus, cycles, size)

    artifact_cells = [(name, size) for name in all_names for size in entry_sizes]
    artifacts: Dict[Tuple[str, int], Tuple[OperationCounts, BusTrace]] = {}
    with obs.span("table3.artifacts", cells=len(artifact_cells)):
        for outcome in parallel_map_cells(_artifact, artifact_cells, jobs):
            artifacts[outcome.cell] = (
                outcome.value if outcome.ok else _reraise_strict(_artifact, outcome)
            )

    # Each (workload, size) analysis is built once, with its wire
    # activity, and repriced for every technology.
    shared: Dict[Tuple[str, int], CrossoverAnalysis] = {}

    def _analysis(tech: Technology, name: str, size: int) -> CrossoverAnalysis:
        if (name, size) not in shared:
            ops, coded = artifacts[(name, size)]
            shared[(name, size)] = CrossoverAnalysis(
                traces[name], tech, size, ops=ops, coded=coded
            )
        return shared[(name, size)].with_technology(tech)

    cells: List[CrossoverCell] = []
    with obs.span("table3.assemble", technologies=len(list(technologies))):
        for tech in technologies:
            for size in entry_sizes:
                analyses = {name: _analysis(tech, name, size) for name in all_names}
                groups = {
                    "SPECint": [analyses[name] for name in int_names],
                    "SPECfp": [analyses[name] for name in fp_names],
                    "ALL": [analyses[name] for name in all_names],
                }
                for suite_name, group in groups.items():
                    cells.append(
                        CrossoverCell(
                            tech.name, size, suite_name, median_crossover(group)
                        )
                    )
    return cells
