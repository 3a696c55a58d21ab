"""The ``table3`` and ``savings`` workloads: cold matrix passes.

Each pass is ``matrix_pass.py`` in a fresh process with an empty trace
cache and a fresh runs directory, building ``RunConfig`` and calling
``run_matrix`` at ``--jobs 1`` exactly as ``repro run`` does.  Passes
repeat until ``--seconds`` have elapsed; every pass does the same work,
so each pass is one measurement window and the run reports medians over
passes.

With ``--trace 1`` passes alternate untraced and traced (starting
untraced); the traced ones install :class:`layers.LayerTracer` and give
the per-layer metrics, and the ratio of traced to untraced pass time is
the tracing overhead.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from typing import Dict, List, Optional

import metrics
from layers import FAMILY_SPECS

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

#: Suite register-bus trace length per table3 stream.
TABLE3_CYCLES = 4000
#: The paper's Table 3 median crossover: 8 entries, 0.13 um, all benchmarks.
PAPER_CROSSOVER_MM = 11.5

#: Parametric streams per savings pass, and their length.  12 streams x 9
#: families = 108 cells, enough for a per-pass p90 with ten cells beyond.
SAVINGS_STREAMS = 12
SAVINGS_CYCLES = 6144

#: A pass that takes longer than this is killed and counted as failed.
PASS_TIMEOUT_S = 150.0


def table3_config(seed: int) -> Dict:
    from repro.wires.technology import TECHNOLOGIES
    from repro.workloads import WORKLOADS

    names = sorted(WORKLOADS)
    # The suite programs are fixed; the seed only orders the streams.
    random.Random(seed).shuffle(names)
    return {
        "matrix": "table3",
        "sources": [f"suite:{name}/register@{TABLE3_CYCLES}" for name in names],
        "coders": ["window8", "window16"],
        "technologies": [tech.name for tech in TECHNOLOGIES],
    }


def savings_config(seed: int) -> Dict:
    return {
        "matrix": "savings",
        "sources": [
            f"gen:mixed,seed={seed},population={SAVINGS_STREAMS},"
            f"cycles={SAVINGS_CYCLES}"
        ],
        "coders": list(FAMILY_SPECS.values()),
    }


def launch_pass(ctx, config: Dict, traced: bool) -> Dict:
    """Run one pass; returns its document, or ``{"error": ...}``."""
    env = dict(ctx.env)
    env["REPRO_TRACE_CACHE_DIR"] = ctx.fresh_dir("cache")
    command = [
        sys.executable,
        os.path.join(HERE, "matrix_pass.py"),
        json.dumps(config),
        ctx.fresh_dir("runs"),
        repr(time.monotonic()),
    ]
    if traced:
        command.append("--trace")
    try:
        proc = subprocess.run(
            command,
            env=env,
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {PASS_TIMEOUT_S:.0f} s"}
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["?"])[-1]
        return {"error": f"pass exited {proc.returncode}: {tail}"}
    document = json.loads(proc.stdout.strip().splitlines()[-1])
    document["traced"] = traced
    return document


def load_expected(name: str) -> Dict:
    with open(os.path.join(EXPECTED_DIR, f"{name}.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def crossover_err_mm(aggregates: Dict) -> Optional[float]:
    for row in aggregates.get("median_crossover", ()):
        if (row["technology"], row["entries"], row["suite"]) == ("0.13um", "window8", "ALL"):
            return abs(row["median_mm"] - PAPER_CROSSOVER_MM)
    return None


def savings_oracle(seed: int) -> Dict[str, Dict]:
    """Savings per cell from each family's scalar reference loop.

    Used for seeds with no recorded expectation; it runs after the timed
    section, in the driver process.
    """
    from repro.coding.specs import parse_coder_spec
    from repro.corpus.workload import parse_workload_source
    from repro.energy.accounting import normalized_energy_removed

    (spec,) = savings_config(seed)["sources"]
    source = parse_workload_source(spec)
    values = {}
    for index in range(source.size):
        workload = source.for_stream(index)
        trace = workload.trace()
        for coder_spec in FAMILY_SPECS.values():
            coder = parse_coder_spec(coder_spec, trace.width)
            coded = coder.encode_trace_scalar(trace)
            values[f"{workload.name}|{coder_spec}"] = {
                "savings_pct": float(normalized_energy_removed(trace, coded, 1.0))
            }
    return values


def pack_savings(values: Dict[str, Dict]) -> Dict[str, List[float]]:
    """Cell values as one row per stream, in ``FAMILY_SPECS`` order."""
    streams = sorted({cell.split("|")[0] for cell in values})
    return {
        stream: [values[f"{stream}|{coder}"]["savings_pct"] for coder in FAMILY_SPECS.values()]
        for stream in streams
    }


def unpack_savings(rows: Dict[str, List[float]]) -> Dict[str, Dict]:
    return {
        f"{stream}|{coder}": {"savings_pct": value}
        for stream, row in rows.items()
        for coder, value in zip(FAMILY_SPECS.values(), row)
    }


def expected_values(workload: str, seed: int, notes: List[str]) -> Dict[str, Dict]:
    if workload == "table3":
        return load_expected("table3")["cells"]
    recorded = load_expected("savings")["seeds"].get(str(seed))
    if recorded is not None:
        notes.append(f"expected values: recorded for seed {seed}")
        return unpack_savings(recorded)
    notes.append(f"expected values: scalar reference oracle (seed {seed} not recorded)")
    return savings_oracle(seed)


def run(workload: str, ctx) -> metrics.Outcome:
    config = table3_config(ctx.seed) if workload == "table3" else savings_config(ctx.seed)
    passes: List[Dict] = []
    deadline = time.monotonic() + ctx.seconds
    while True:
        traced = ctx.trace and len(passes) % 2 == 1
        passes.append(launch_pass(ctx, config, traced))
        if time.monotonic() >= deadline and (not ctx.trace or len(passes) >= 2):
            break

    notes: List[str] = []
    errors: List[str] = []
    expected = expected_values(workload, ctx.seed, notes)
    attempted = failed = 0
    for index, doc in enumerate(passes):
        attempted += len(expected)
        if "error" in doc:
            failed += len(expected)
            errors.append(f"pass {index}: FAILED: {doc['error']}")
            continue
        wrong = [
            cell for cell, value in expected.items() if doc["values"].get(cell) != value
        ]
        failed += len(wrong)
        for cell in wrong[:3]:
            errors.append(
                f"pass {index}: cell {cell}: got {doc['values'].get(cell)} "
                f"({doc['failed'].get(cell, 'no failure recorded')}), "
                f"expected {expected[cell]}"
            )
        if workload == "table3":
            err = crossover_err_mm(doc["aggregates"])
            want = load_expected("table3")["crossover_err_mm"]
            if err != want:
                failed += 1
                errors.append(f"pass {index}: crossover_err_mm {err} != recorded {want}")
    good = [doc for doc in passes if "error" not in doc]
    plain = [doc for doc in good if not doc["traced"]]
    traced = [doc for doc in good if doc["traced"]]
    notes.append(
        f"passes: {len(passes)} ({len(traced)} traced), "
        f"{good[0]['cells'] if good else 0} cells each; run_matrix seconds per pass: "
        + " ".join(f"{doc['wall_s']:.3f}" for doc in good)
    )
    if workload == "table3" and good:
        notes.append(
            f"crossover_err_mm: {crossover_err_mm(good[0]['aggregates'])} mm "
            f"(|median crossover, window8, 0.13um, ALL - {PAPER_CROSSOVER_MM}|, "
            f"{TABLE3_CYCLES}-cycle streams)"
        )
    outcome = metrics.Outcome(
        attempted=attempted, failed=failed, notes=notes, errors=errors
    )
    if not plain:
        raise RuntimeError(f"no untraced pass completed: {errors[:1]}")
    timing = metrics.window_summary(
        [(doc["cycles"], doc["wall_s"], doc["cell_s"]) for doc in plain]
    )
    notes.append(metrics.describe_timing("per-cell time (runs.cell spans)", timing))
    outcome.e2e = {
        "setup_s": metrics.median([doc["setup_s"] for doc in plain]),
        "mcycles_per_s": timing["mcycles_per_s"],
        "req_p50_ms": timing["p50_ms"],
        "req_tail_ms": timing["tail_ms"],
        "peak_rss_mb": metrics.median([doc["rss_mb"] for doc in plain]),
    }
    if ctx.trace:
        outcome.layers = traced_layers(plain, traced, notes)
    return outcome


def traced_layers(plain: List[Dict], traced: List[Dict], notes: List[str]) -> Dict:
    import serve_load

    if not traced:
        raise RuntimeError("no traced pass completed")
    names = [name for name in traced[0]["layers"] if name != "unattributed_s"]
    layers = {
        name: sum(doc["layers"][name] for doc in traced) / len(traced) for name in names
    }
    wall = sum(doc["wall_s"] for doc in traced)
    unexplained = sum(doc["layers"]["unattributed_s"] for doc in traced)
    layers["unattributed_frac"] = metrics.unattributed_frac(wall, [wall - unexplained])
    plain_mean = sum(d["wall_s"] for d in plain) / len(plain)
    layers["trace_overhead_frac"] = (wall / len(traced)) / plain_mean - 1.0
    layers.update(dict.fromkeys(serve_load.LAYER_NAMES, 0.0))
    notes.append("layer times are seconds per pass (mean over traced passes)")
    notes.extend(metrics.unattributed_flag(layers["unattributed_frac"]))
    return layers
