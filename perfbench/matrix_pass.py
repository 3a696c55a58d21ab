"""One matrix pass in a fresh process: ``RunConfig`` -> ``run_matrix``.

The driver (``run.py``) launches this script once per pass with
``PYTHONPATH`` pointing at the program's ``src`` and a fresh, empty
trace cache and runs directory, so every pass is a first reproduction on
a fresh checkout.  It prints one JSON document on stdout:

* ``setup_s`` -- process launch to the first timed operation (imports and
  workload-source resolution through ``build_cells``);
* ``wall_s`` -- the ``run_matrix`` call, the timed operation;
* ``cell_s`` -- per-cell durations from the program's own ``runs.cell``
  spans (no benchmark wrapper is involved in an untraced pass);
* ``values`` / ``failed`` -- per-cell results keyed by the benchmark's
  cell id, for the expected-value check the driver makes;
* ``layers`` -- with ``--trace``, the :class:`layers.LayerTracer` report.

Usage: ``matrix_pass.py CONFIG_JSON RUNS_DIR LAUNCH_MONOTONIC [--trace]``
"""

from __future__ import annotations

import json
import resource
import sys
import time


def cell_id(cell) -> str:
    """The benchmark's readable cell id (stable across commits)."""
    parts = [cell.workload, cell.coder]
    if cell.technology:
        parts.append(cell.technology)
    return "|".join(parts)


def main(argv) -> int:
    config_text, runs_dir, launched = argv[0], argv[1], float(argv[2])
    traced = "--trace" in argv[3:]

    from repro import obs
    from repro.corpus.workload import parse_workload_source
    from repro.runs import ExecutorOptions, RunConfig, run_matrix
    from repro.runs.matrix import build_cells, cell_key

    spec = json.loads(config_text)
    config = RunConfig(
        matrix=spec["matrix"],
        sources=tuple(spec["sources"]),
        coders=tuple(spec["coders"]),
        technologies=tuple(spec.get("technologies", ())),
    )
    cells = build_cells(config)
    sources = {name: parse_workload_source(name) for name in config.sources}
    cycles = sum(sources[c.source].for_stream(c.stream).cycles for c in cells)
    setup_s = time.monotonic() - launched

    tracer = None
    if traced:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    spans_before = len(obs.get_tracer().records())
    start = time.perf_counter()
    result = run_matrix(config, runs_dir, options=ExecutorOptions(jobs=1))
    wall_s = time.perf_counter() - start

    cell_s = [
        record.dur
        for record in obs.get_tracer().records()[spans_before:]
        if record.name == "runs.cell"
    ]
    values = {}
    failed = {}
    for cell in cells:
        key = cell_key(cell)
        if key in result.failed:
            failed[cell_id(cell)] = result.failed[key]
        elif key in result.results:
            values[cell_id(cell)] = result.results[key]
    summary = json.loads(result.summary_json)
    document = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cycles": cycles,
        "cells": len(cells),
        "cell_s": cell_s,
        "values": values,
        "failed": failed,
        "aggregates": summary["aggregates"],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        document["layers"] = tracer.report(wall_s, len(cells))
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
