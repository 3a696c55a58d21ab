"""Record the expected per-cell values the matrix workloads are checked against.

Usage (from the repository root)::

    python3 perfbench/record.py

Runs one ``table3`` pass and one ``savings`` pass per seed
``0 .. RECORDED_SEEDS - 1`` through the same ``matrix_pass.py`` the
benchmark times, and writes ``perfbench/expected/{table3,savings}.json``.  Every savings seed is
also checked against the scalar reference oracle the benchmark falls back
to for unrecorded seeds, so the two sources of truth agree at the
recording commit.  Re-record only when a change is *meant* to alter
simulated values, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import matrices
from run import SRC, WORK_ROOT, Context, child_env

#: Savings seeds with recorded values; other seeds use the oracle.
RECORDED_SEEDS = 16


def write(name: str, document: dict) -> None:
    """Write ``expected/<name>.json``, one line per top-level ``seeds`` entry."""
    os.makedirs(matrices.EXPECTED_DIR, exist_ok=True)
    path = os.path.join(matrices.EXPECTED_DIR, f"{name}.json")
    seeds = document.pop("seeds", None)
    text = json.dumps(document, indent=1, sort_keys=True)
    if seeds is not None:
        rows = ",\n".join(
            f"{json.dumps(seed)}: {json.dumps(row, sort_keys=True)}"
            for seed, row in seeds.items()
        )
        text = text[:-2] + f',\n "seeds": {{\n{rows}\n}}\n}}'
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"wrote {path}")


def one_pass(ctx: Context, config: dict) -> dict:
    document = matrices.launch_pass(ctx, config, traced=False)
    if "error" in document:
        raise SystemExit(f"record: pass failed: {document['error']}")
    if document["failed"]:
        raise SystemExit(f"record: cells failed: {document['failed']}")
    return document


def main() -> int:
    sys.path.insert(0, SRC)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="record-", dir=WORK_ROOT)
    ctx = Context(0, 0.0, False, work, child_env(work))
    try:
        table3 = one_pass(ctx, matrices.table3_config(0))
        write(
            "table3",
            {
                "cycles": matrices.TABLE3_CYCLES,
                "cells": table3["values"],
                "crossover_err_mm": matrices.crossover_err_mm(table3["aggregates"]),
            },
        )
        seeds = {}
        for seed in range(RECORDED_SEEDS):
            values = one_pass(ctx, matrices.savings_config(seed))["values"]
            if values != matrices.savings_oracle(seed):
                raise SystemExit(f"record: seed {seed}: run_matrix disagrees with the oracle")
            seeds[str(seed)] = matrices.pack_savings(values)
            print(f"savings seed {seed}: {len(values)} cells")
        write(
            "savings",
            {
                "streams": matrices.SAVINGS_STREAMS,
                "cycles": matrices.SAVINGS_CYCLES,
                "seeds": seeds,
            },
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
