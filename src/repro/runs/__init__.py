"""Crash-resumable, fault-isolated experiment orchestration.

The sweep matrices behind the paper's artifacts are long-running and
embarrassingly parallel; what they lacked was *durability*.  This
package gives every matrix run a journalled identity:

* :mod:`~repro.runs.ledger` — the append-only, SIGKILL-proof
  ``ledger.jsonl`` journal (read back with
  ``repro.obs.read_jsonl(path, torn_tail=True)``);
* :mod:`~repro.runs.matrix` — content-addressed cell identity and the
  ``savings``/``crossover``/``table3``/``faults`` matrix builders over
  any ``suite:``/``corpus:``/``gen:`` workload source;
* :mod:`~repro.runs.executor` — the cell executor: watchdog timeouts,
  typed retry, per-family circuit breaking, quarantine, resume with
  artifact-digest verification, degraded-mode summaries;
* :mod:`~repro.runs.soak` — the ``repro run-soak`` acceptance gate:
  SIGKILL a seeded run mid-matrix, corrupt an artifact, resume, and
  prove the aggregate outputs byte-identical to an uninterrupted run.
"""

from .executor import (
    ExecutorOptions,
    RunDirectory,
    RunResult,
    TRANSIENT_KINDS,
    run_matrix,
)
from .ledger import (
    LEDGER_FILENAME,
    RunLedger,
    canonical_json,
    content_digest,
    file_digest,
    replay_ledger,
)
from .matrix import (
    MATRICES,
    CellSpec,
    RunConfig,
    build_cells,
    cell_key,
    config_digest,
    default_run_id,
)

__all__ = [
    "ExecutorOptions",
    "RunDirectory",
    "RunResult",
    "TRANSIENT_KINDS",
    "run_matrix",
    "LEDGER_FILENAME",
    "RunLedger",
    "canonical_json",
    "content_digest",
    "file_digest",
    "replay_ledger",
    "MATRICES",
    "CellSpec",
    "RunConfig",
    "build_cells",
    "cell_key",
    "config_digest",
    "default_run_id",
]
