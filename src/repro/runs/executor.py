"""The crash-resumable cell executor.

Wraps :func:`repro.analysis.parallel.parallel_map_cells` with the
fault-isolation discipline the serving stack already uses:

* every cell attempt is journalled in the run's ledger *before* it
  runs and its artifact is digest-sealed *after* — a SIGKILL at any
  instant loses at most the in-flight batch;
* watchdog expiries and transport-ish failures (``timeout``,
  ``OSError``, ``ConnectionError``, ...) are **transient**: retried
  under a :class:`~repro.retry.RetryPolicy` with decorrelated
  jitter, up to the attempt budget;
* everything else is **deterministic**: re-running it would burn the
  pool for the same exception, so the cell is quarantined after one
  attempt with a record naming the error;
* a per-(kind, coder-family) :class:`~repro.retry.CircuitBreaker`
  stops a poisoned spec family: once it opens, that family's remaining
  cells fail fast with class ``circuit-open`` instead of executing;
* **resume** replays the ledger, verifies every recorded artifact's
  bytes against its journalled digest (corrupt or missing -> quarantine
  + re-run; never a crash, never silent reuse) and re-executes only
  what is incomplete;
* **degraded-mode completion**: the summary table is always emitted,
  with ``FAILED:<class>`` holes for the cells that stayed failed;
  ``--strict`` turns those holes into a nonzero exit.

Determinism contract: the aggregate outputs (``summary.json`` /
``summary.txt``) are a pure function of the :class:`RunConfig` and the
cell values — no timestamps, pids, run ids or attempt counts — so an
interrupted-then-resumed run is byte-identical to an uninterrupted one
(provided the same cells ultimately succeed; the ``repro run-soak``
gate in CI proves exactly that under SIGKILL).
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from .._seal import atomic_write
from ..analysis.parallel import parallel_map_cells
from ..analysis.reporting import format_table
from ..obs.export import read_jsonl
from ..retry import CircuitBreaker, CircuitOpenError, RetryPolicy
from ..workloads.programs import FP_WORKLOADS, INT_WORKLOADS
from .ledger import (
    LEDGER_FILENAME,
    LedgerState,
    RunLedger,
    canonical_json,
    file_digest,
    replay_ledger,
)
from .matrix import (
    CellSpec,
    RunConfig,
    build_cells,
    cell_key,
    coder_family,
    config_digest,
    default_run_id,
    make_cell_fn,
)

__all__ = [
    "ExecutorOptions",
    "RunDirectory",
    "RunResult",
    "TRANSIENT_KINDS",
    "run_matrix",
]

#: Error kinds the retry logic treats as transient.  ``timeout`` is the
#: structured watchdog kind from :mod:`repro.analysis.parallel`; the
#: rest are the environment-failure classes of the serve taxonomy —
#: same discipline, applied to sweep cells.
TRANSIENT_KINDS = frozenset(
    {
        "timeout",
        "TimeoutError",
        "OSError",
        "ConnectionError",
        "ConnectionResetError",
        "ConnectionRefusedError",
        "BrokenPipeError",
        "EOFError",
        "MemoryError",
    }
)

#: Median stand-in for benchmarks that never break even (matches
#: :func:`repro.analysis.crossover.median_crossover`'s never_value).
_NEVER_MM = 100.0


@dataclass(frozen=True)
class ExecutorOptions:
    """Execution knobs — none of them participate in cell identity."""

    jobs: int = 1
    timeout_s: Optional[float] = None  #: per-cell watchdog
    retries: int = 3  #: max attempts per transient-failing cell
    breaker_threshold: int = 4  #: consecutive failures to open a family
    batch: int = 0  #: cells per pool batch (0 = auto)
    kill_at: Optional[int] = None  #: SIGKILL self after N done events (soak)
    chaos: Tuple[str, ...] = ()  #: scripted chaos (``wedge@I=S``/``fail@I``/``flaky@I``)
    strict: bool = False  #: nonzero exit when any cell stays failed
    sleep: Callable[[float], None] = time.sleep  #: injectable for tests


@dataclass
class RunResult:
    """What a (possibly degraded) completed run hands back."""

    run_id: str
    config: RunConfig
    cells: List[CellSpec]
    results: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    failed: Dict[str, str] = field(default_factory=dict)  #: key -> class
    skipped: int = 0  #: cells satisfied from the ledger on resume
    quarantined: int = 0
    retried: int = 0
    summary_json: str = ""
    summary_text: str = ""

    @property
    def ok(self) -> bool:
        return not self.failed

    @property
    def status(self) -> str:
        return "complete" if self.ok else "degraded"

    def exit_code(self, strict: bool) -> int:
        return 1 if (strict and self.failed) else 0


class RunDirectory:
    """Layout of one ``runs/<run-id>/`` directory."""

    def __init__(self, root: str, run_id: str):
        if not run_id or "/" in run_id or run_id.startswith("."):
            raise ValueError(f"invalid run id {run_id!r}")
        self.root = root
        self.run_id = run_id
        self.path = os.path.join(root, run_id)
        self.ledger_path = os.path.join(self.path, LEDGER_FILENAME)
        self.cells_dir = os.path.join(self.path, "cells")
        self.quarantine_dir = os.path.join(self.path, "quarantine")
        self.summary_json_path = os.path.join(self.path, "summary.json")
        self.summary_text_path = os.path.join(self.path, "summary.txt")

    def exists(self) -> bool:
        return os.path.exists(self.ledger_path)

    def artifact_rel(self, key: str) -> str:
        return os.path.join("cells", f"{key}.json")

    def artifact_path(self, key: str) -> str:
        return os.path.join(self.cells_dir, f"{key}.json")

    def write_artifact(self, key: str, value: Dict[str, Any]) -> str:
        """Atomically write a cell artifact; returns its byte digest.

        The file's exact bytes are the canonical JSON of the value plus
        one newline — the digest journalled in the ``done`` event is
        over those bytes, so resume verification is a pure byte check.
        The ``cells/`` directory must exist (:func:`run_matrix` makes it).
        """
        payload = (canonical_json(value) + "\n").encode("utf-8")
        return atomic_write(self.artifact_path(key), [payload])

    def verify_artifact(
        self, key: str, expected_digest: str
    ) -> Tuple[Optional[Dict[str, Any]], str]:
        """Check a journalled artifact: ``(value, "")`` or ``(None, reason)``.

        Reasons are the quarantine classes ``artifact-missing``,
        ``artifact-digest-mismatch`` and ``artifact-unreadable``.
        """
        path = self.artifact_path(key)
        if not os.path.exists(path):
            return None, "artifact-missing"
        if file_digest(path) != expected_digest:
            return None, "artifact-digest-mismatch"
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle), ""
        except (OSError, ValueError):
            return None, "artifact-unreadable"

    def quarantine(
        self, key: str, reason: str, detail: Dict[str, Any]
    ) -> str:
        """Write a quarantine record (and impound the artifact, if any).

        Returns the record's path relative to the run directory.  A
        corrupt artifact is *moved* into quarantine as evidence rather
        than deleted, so a post-mortem can diff it against the re-run.
        """
        os.makedirs(self.quarantine_dir, exist_ok=True)
        artifact = self.artifact_path(key)
        impounded = ""
        if os.path.exists(artifact):
            impounded = os.path.join(self.quarantine_dir, f"{key}.artifact")
            os.replace(artifact, impounded)
        record = {
            "key": key,
            "reason": reason,
            "impounded": os.path.relpath(impounded, self.path) if impounded else "",
        }
        record.update(detail)
        rel = os.path.join("quarantine", f"{key}.json")
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
        atomic_write(os.path.join(self.path, rel), [text.encode("utf-8")])
        return rel


# -- chaos scripting --------------------------------------------------


def parse_chaos(directives: Tuple[str, ...]) -> Dict[int, Tuple[str, float]]:
    """Parse ``wedge@I=S`` / ``fail@I`` / ``flaky@I`` directives.

    Maps matrix index -> (mode, parameter).  ``wedge`` sleeps S seconds
    on attempt 1 (tripping the watchdog -> transient retry), ``flaky``
    raises ``OSError`` on attempt 1 (transient, no watchdog needed),
    ``fail`` raises ``ValueError`` on every attempt (deterministic ->
    quarantine).  Used by the tests and the ``run-soak`` gate; never
    part of cell identity.
    """
    table: Dict[int, Tuple[str, float]] = {}
    for directive in directives:
        mode, _at, rest = directive.partition("@")
        if mode not in ("wedge", "fail", "flaky") or not rest:
            raise ValueError(
                f"bad chaos directive {directive!r}; "
                f"expected wedge@INDEX=SECONDS, fail@INDEX or flaky@INDEX"
            )
        index_text, _eq, param = rest.partition("=")
        try:
            index = int(index_text)
        except ValueError:
            raise ValueError(
                f"bad chaos index in {directive!r}: {index_text!r}"
            ) from None
        seconds = 0.0
        if mode == "wedge":
            if not param:
                raise ValueError(f"wedge needs seconds: {directive!r}")
            seconds = float(param)
        table[index] = (mode, seconds)
    return table


def _apply_chaos(mode: str, seconds: float, attempt: int) -> None:
    if mode == "wedge" and attempt == 1:
        time.sleep(seconds)
    elif mode == "flaky" and attempt == 1:
        raise OSError("chaos: scripted transient failure (attempt 1)")
    elif mode == "fail":
        raise ValueError("chaos: scripted deterministic failure")


# -- summaries --------------------------------------------------------


def _cell_row(
    spec: CellSpec,
    value: Optional[Dict[str, Any]],
    failure: Optional[str],
) -> Tuple:
    hole = f"FAILED:{failure}" if failure else ""
    if spec.kind == "savings":
        metric = hole or round(value["savings_pct"], 4)
        return (spec.workload, spec.coder, metric)
    if spec.kind in ("crossover", "table3"):
        if hole:
            metric = hole
        else:
            mm = value["crossover_mm"]
            metric = "never" if mm is None else round(mm, 2)
        return (spec.workload, spec.coder, spec.technology, metric)
    if hole:
        return (spec.workload, spec.coder, spec.policy, f"{spec.ber:g}") + (hole,) * 4
    recovery = value["mean_cycles_to_recovery"]
    return (
        spec.workload,
        spec.coder,
        spec.policy,
        f"{spec.ber:g}",
        round(value["savings_pct"], 4),
        round(100.0 * value["correct_fraction"], 3),
        value["detections"],
        "-" if recovery is None else round(recovery, 1),
    )


_HEADERS = {
    "savings": ["workload", "coder", "savings %"],
    "crossover": ["workload", "entries", "technology", "crossover mm"],
    "table3": ["workload", "entries", "technology", "crossover mm"],
    "faults": [
        "workload", "coder", "policy", "BER", "net savings %", "correct %",
        "detects", "cycles to recover",
    ],
}


#: The cells that have a value, each with it, in matrix order.
_Done = List[Tuple[CellSpec, Dict[str, Any]]]


def _table3_aggregates(done: _Done) -> List[Dict[str, Any]]:
    """Median crossover per (technology, entries, benchmark class).

    Suite streams are classed SPECint/SPECfp by the workload registry;
    corpus/generator streams only contribute to ALL.  Cells that stayed
    failed are excluded (the per-cell table carries the hole).
    """
    groups: Dict[Tuple[str, str, str], List[float]] = {}
    for spec, value in done:
        mm = value["crossover_mm"]
        length = _NEVER_MM if mm is None else float(mm)
        base = spec.workload.partition("/")[0]
        classes = ["ALL"]
        if base in INT_WORKLOADS:
            classes.append("SPECint")
        elif base in FP_WORKLOADS:
            classes.append("SPECfp")
        for cls in classes:
            groups.setdefault((spec.technology, spec.coder, cls), []).append(length)
    aggregates = []
    for (tech, coder, cls), lengths in sorted(groups.items()):
        aggregates.append(
            {
                "technology": tech,
                "entries": coder,
                "suite": cls,
                "median_mm": round(float(np.median(lengths)), 4),
                "cells": len(lengths),
            }
        )
    return aggregates


def _savings_aggregates(done: _Done) -> List[Dict[str, Any]]:
    groups: Dict[str, List[float]] = {}
    for spec, value in done:
        groups.setdefault(spec.coder, []).append(value["savings_pct"])
    return [
        {
            "coder": coder,
            "mean_savings_pct": round(float(np.mean(vals)), 4),
            "cells": len(vals),
        }
        for coder, vals in sorted(groups.items())
    ]


def _faults_aggregates(done: _Done) -> List[Dict[str, Any]]:
    groups: Dict[Tuple[str, float], List[float]] = {}
    for spec, value in done:
        groups.setdefault((spec.policy, spec.ber), []).append(value["savings_pct"])
    return [
        {
            "policy": policy,
            "ber": ber,
            "mean_savings_pct": round(float(np.mean(vals)), 4),
            "cells": len(vals),
        }
        for (policy, ber), vals in sorted(groups.items())
    ]


def build_summary(
    config: RunConfig,
    cells: List[CellSpec],
    keys: List[str],
    results: Dict[str, Dict[str, Any]],
    failed: Dict[str, str],
) -> Tuple[str, str]:
    """The deterministic aggregate outputs: (json text, table text).

    Pure function of config + cell values + failure classes: no run
    ids, timestamps, attempt counts or pids — the byte-equality
    guarantee resume-exactness is measured against.
    """
    rows = []
    cell_docs = []
    for spec, key in zip(cells, keys):
        value = results.get(key)
        failure = failed.get(key)
        rows.append(_cell_row(spec, value, failure))
        doc: Dict[str, Any] = {"key": key}
        doc.update(vars(spec))
        if failure:
            doc["failed"] = failure
        else:
            doc["value"] = value
        cell_docs.append(doc)
    done = [(spec, results[key]) for spec, key in zip(cells, keys) if key in results]
    aggregates: Dict[str, Any] = {}
    if config.matrix == "savings":
        aggregates["per_coder"] = _savings_aggregates(done)
    elif config.matrix == "table3":
        aggregates["median_crossover"] = _table3_aggregates(done)
    elif config.matrix == "faults":
        aggregates["per_policy_ber"] = _faults_aggregates(done)
    document = {
        "matrix": config.matrix,
        "config": asdict(config),
        "config_digest": config_digest(config),
        "status": "complete" if not failed else "degraded",
        "cells": cell_docs,
        "aggregates": aggregates,
        "counts": {
            "total": len(cells),
            "done": len(results),
            "failed": len(failed),
        },
    }
    json_text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    title = f"{config.matrix} matrix | {len(cells)} cells"
    if failed:
        title += f" | {len(failed)} FAILED"
    table = format_table(_HEADERS[config.matrix], rows, title=title)
    if config.matrix == "table3":
        agg_rows = [
            (a["technology"], a["entries"], a["suite"], a["median_mm"])
            for a in aggregates["median_crossover"]
        ]
        table += "\n" + format_table(
            ["Technology", "Entries", "Suite", "Median mm"],
            agg_rows,
            title="median crossover lengths",
        )
    return json_text, table + "\n"


# -- the executor -----------------------------------------------------


def _resolve_run_id(
    config: Optional[RunConfig],
    run_id: Optional[str],
    resume_id: Optional[str],
) -> str:
    if resume_id:
        return resume_id
    if run_id:
        return run_id
    if config is None:
        raise ValueError("--resume without a run id needs the matrix arguments")
    return default_run_id(config)


def run_matrix(
    config: Optional[RunConfig],
    runs_root: str,
    run_id: Optional[str] = None,
    resume: Optional[str] = None,
    options: ExecutorOptions = ExecutorOptions(),
) -> RunResult:
    """Execute (or resume) one matrix run under ``runs_root``.

    Parameters
    ----------
    config:
        The run configuration, or None when resuming purely by id (the
        configuration is then reconstructed from the ledger header).
    run_id:
        Explicit run id; defaults to :func:`default_run_id`.
    resume:
        When not None, resume mode: the value is the run id to resume
        (or ``""`` to resume the id derived from ``config``/``run_id``).
        A run directory that already has a ledger refuses to start
        fresh — pass resume (or a new id) explicitly.
    """
    resume_id = None
    if resume is not None:
        resume_id = resume or _resolve_run_id(config, run_id, None)
    rid = _resolve_run_id(config, run_id, resume_id)
    rundir = RunDirectory(runs_root, rid)

    state = LedgerState()
    if resume_id is not None:
        if not rundir.exists():
            raise ValueError(
                f"nothing to resume: no ledger at {rundir.ledger_path}"
            )
        events = read_jsonl(rundir.ledger_path, torn_tail=True)
        state = replay_ledger(events)
        if state.header is None:
            raise ValueError(
                f"{rundir.ledger_path}: ledger has no run_open header "
                f"(torn before the first event); start a fresh run id"
            )
        recorded = RunConfig.from_dict(state.header["config"])
        if config is None:
            config = recorded
        elif config_digest(config) != config_digest(recorded):
            raise ValueError(
                f"--resume {rid}: configuration mismatch (ledger has "
                f"{config_digest(recorded)[:12]}, arguments give "
                f"{config_digest(config)[:12]}); resume without matrix "
                f"arguments or start a fresh run id"
            )
    elif rundir.exists():
        raise ValueError(
            f"run {rid!r} already has a ledger at {rundir.ledger_path}; "
            f"pass --resume {rid} to continue it or --run-id for a fresh run"
        )
    assert config is not None

    cells = build_cells(config)
    keys = [cell_key(spec) for spec in cells]  # once: the summary reuses them
    by_key = dict(zip(keys, cells))
    chaos = parse_chaos(options.chaos)
    retry_policy = RetryPolicy(
        attempts=max(1, options.retries),
        base_backoff_s=0.02,
        max_backoff_s=0.25,
        seed=config.seed,
    )

    result = RunResult(run_id=rid, config=config, cells=cells)
    obs.inc("runs.cells_total", len(cells))

    ledger = RunLedger(rundir.ledger_path)
    try:
        os.makedirs(rundir.cells_dir, exist_ok=True)
        # -- resume: verify recorded artifacts ------------------------
        pending: List[Tuple[int, str]] = []  # (matrix index, key)
        if resume_id is not None:
            with obs.span("runs.resume_verify", cells=len(state.done)):
                for index, key in enumerate(keys):
                    done = state.done.get(key)
                    if done is None:
                        pending.append((index, key))
                        continue
                    value, reason = rundir.verify_artifact(
                        key, str(done.get("sha256", ""))
                    )
                    if value is not None:
                        result.results[key] = value
                        result.skipped += 1
                        obs.inc("runs.cells_skipped")
                        continue
                    record = rundir.quarantine(
                        key,
                        reason,
                        {"artifact": str(done.get("artifact", ""))},
                    )
                    ledger.append(
                        "quarantined", key=key, reason=reason, record=record
                    )
                    result.quarantined += 1
                    obs.inc("runs.cells_quarantined")
                    pending.append((index, key))
            ledger.append(
                "resumed",
                skipped=result.skipped,
                quarantined=result.quarantined,
                pending=len(pending),
            )
        else:
            ledger.append(
                "run_open",
                run_id=rid,
                matrix=config.matrix,
                config=asdict(config),
                config_digest=config_digest(config),
                cells=len(cells),
            )
            pending = list(enumerate(keys))

        # -- execute --------------------------------------------------
        cell_fn = make_cell_fn()

        def _wrapped(payload: Tuple[int, int, CellSpec]) -> Dict[str, Any]:
            index, attempt, spec = payload
            directive = chaos.get(index)
            if directive is not None:
                _apply_chaos(directive[0], directive[1], attempt)
            with obs.span("runs.cell", index=index, attempt=attempt):
                return cell_fn(spec)

        breakers: Dict[str, CircuitBreaker] = {}
        retry_states: Dict[str, Any] = {}
        attempts: Dict[str, int] = {}
        batch_size = options.batch or max(2 * max(1, options.jobs), 4)
        done_events = 0
        queue: List[Tuple[int, str]] = list(pending)
        while queue:
            batch, queue = queue[:batch_size], queue[batch_size:]
            payloads: List[Tuple[int, int, CellSpec]] = []
            for index, key in batch:
                spec = by_key[key]
                family = f"{spec.kind}:{coder_family(spec.coder)}"
                breaker = breakers.setdefault(
                    family, CircuitBreaker(options.breaker_threshold, 30.0)
                )
                try:
                    breaker.before_attempt()
                except CircuitOpenError as exc:
                    record = rundir.quarantine(
                        key, "circuit-open", {"family": family, "error": str(exc)}
                    )
                    ledger.append(
                        "quarantined", key=key, reason="circuit-open", record=record
                    )
                    ledger.append(
                        "failed",
                        key=key,
                        index=index,
                        kind="CircuitOpenError",
                        message=str(exc),
                        klass="circuit-open",
                        final=True,
                    )
                    result.failed[key] = "circuit-open"
                    result.quarantined += 1
                    obs.inc("runs.cells_failed")
                    obs.inc("runs.cells_quarantined")
                    continue
                attempt = attempts.get(key, 0) + 1
                attempts[key] = attempt
                if key not in retry_states:
                    retry_states[key] = retry_policy.start(key=index)
                retry_states[key].begin_attempt()
                ledger.append("started", key=key, index=index, attempt=attempt)
                payloads.append((index, attempt, spec))

            if not payloads:
                continue
            outcomes = parallel_map_cells(
                _wrapped, payloads, jobs=options.jobs, timeout_s=options.timeout_s
            )
            for outcome in outcomes:
                index, attempt, spec = outcome.cell
                key = keys[index]
                family = f"{spec.kind}:{coder_family(spec.coder)}"
                if outcome.ok:
                    digest = rundir.write_artifact(key, outcome.value)
                    ledger.append(
                        "done",
                        key=key,
                        index=index,
                        attempt=attempt,
                        artifact=rundir.artifact_rel(key),
                        sha256=digest,
                    )
                    result.results[key] = outcome.value
                    result.failed.pop(key, None)
                    breakers[family].record_success()
                    obs.inc("runs.cells_done")
                    done_events += 1
                    if options.kill_at is not None and done_events >= options.kill_at:
                        # The soak's scripted crash: a real SIGKILL, not
                        # an exception — nothing below this line runs.
                        os.kill(os.getpid(), signal.SIGKILL)
                    continue
                error = outcome.error
                breakers[family].record_failure()
                obs.inc("runs.cell_errors", kind=error.kind)
                if error.kind == "timeout":
                    obs.inc("runs.timeouts")
                transient = error.kind in TRANSIENT_KINDS
                retry_state = retry_states[key]
                if transient and retry_state.more_attempts():
                    ledger.append(
                        "failed",
                        key=key,
                        index=index,
                        attempt=attempt,
                        kind=error.kind,
                        message=error.message,
                        klass="transient",
                        pid=error.pid,
                        elapsed_s=round(error.elapsed_s, 4),
                        final=False,
                    )
                    options.sleep(retry_state.next_backoff())
                    queue.append((index, key))
                    result.retried += 1
                    obs.inc("runs.retries")
                    continue
                klass = "retries-exhausted" if transient else "deterministic-failure"
                record = rundir.quarantine(
                    key,
                    klass,
                    {
                        "kind": error.kind,
                        "message": error.message,
                        "detail": error.detail,
                        "attempts": attempt,
                    },
                )
                ledger.append(
                    "quarantined", key=key, reason=klass, record=record
                )
                ledger.append(
                    "failed",
                    key=key,
                    index=index,
                    attempt=attempt,
                    kind=error.kind,
                    message=error.message,
                    klass=klass,
                    pid=error.pid,
                    elapsed_s=round(error.elapsed_s, 4),
                    final=True,
                )
                result.failed[key] = klass
                result.quarantined += 1
                obs.inc("runs.cells_failed")
                obs.inc("runs.cells_quarantined")

        # -- summarise ------------------------------------------------
        json_text, table_text = build_summary(
            config, cells, keys, result.results, result.failed
        )
        atomic_write(rundir.summary_json_path, [json_text.encode("utf-8")])
        atomic_write(rundir.summary_text_path, [table_text.encode("utf-8")])
        result.summary_json = json_text
        result.summary_text = table_text
        ledger.append(
            "run_close",
            status=result.status,
            done=len(result.results),
            failed=len(result.failed),
        )
    finally:
        ledger.close()
    return result
