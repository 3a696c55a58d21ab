"""Tests of the benchmark's own rules and of its printed metric names.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The end-to-end cases launch ``perfbench/run.py`` with ``--seconds 1``, so
each takes one pass or round of its workload (a few seconds).
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import layers
import metrics
import serve_load

from conftest import BENCH, ROOT

RUN = os.path.join(BENCH, "run.py")


def benchmark():
    return metrics.load_benchmark()


# -- the percentile rule ------------------------------------------------------


def test_tail_percentile_takes_p99_from_a_thousand_samples():
    samples = list(range(1000))
    pct, value, count = metrics.tail_percentile(samples[::-1])
    assert (pct, value, count) == (99.0, 989, 1000)
    assert sum(1 for s in samples if s > value) == metrics.TAIL_BEYOND


def test_tail_percentile_steps_down_when_p99_has_too_few_beyond():
    pct, value, count = metrics.tail_percentile(list(range(999)))
    assert (pct, value, count) == (90.0, 899, 999)
    pct, value, count = metrics.tail_percentile(list(range(100)))
    assert (pct, value, count) == (90.0, 89, 100)
    pct, value, count = metrics.tail_percentile(list(range(99)))
    assert (pct, value, count) == (50.0, 49, 99)


def test_tail_percentile_refuses_too_few_samples():
    metrics.tail_percentile([1.0] * 20)
    with pytest.raises(ValueError):
        metrics.tail_percentile([1.0] * 19)


def test_timing_summary_reports_median_tail_and_count():
    samples = [i / 1000.0 for i in range(1, 201)]
    summary = metrics.timing_summary(samples)
    assert summary["p50_ms"] == pytest.approx(100.5)
    assert summary["tail_ms"] == pytest.approx(180.0)
    assert summary["tail_pct"] == 90.0
    assert summary["count"] == 200


def test_window_summary_takes_latency_only_from_windows_with_a_tail():
    busy = [i / 1000.0 for i in range(1, 201)]
    stalled = [5.0] * 3  # a slice a stall left nearly empty
    summary = metrics.window_summary([(2_000_000, 1.0, busy), (100, 10.0, stalled)])
    assert summary["p50_ms"] == pytest.approx(100.5)
    assert summary["count"] == 200
    assert summary["windows"] == 2
    assert summary["mcycles_per_s"] == pytest.approx((2.0 + 1e-5) / 2)
    with pytest.raises(ValueError):
        metrics.window_summary([(100, 10.0, stalled)])


# -- failures and attribution ---------------------------------------------------


def test_a_reused_pid_is_not_taken_for_the_worker():
    me = os.getpid()
    assert serve_load.alive(me, serve_load.start_time(me))
    assert not serve_load.alive(me, "0")  # same pid, another start time


def test_failed_frac_counts_against_attempted():
    assert metrics.failed_frac(0, 7) == 0.0
    assert metrics.failed_frac(3, 12) == 0.25
    with pytest.raises(ValueError):
        metrics.failed_frac(0, 0)
    with pytest.raises(ValueError):
        metrics.failed_frac(-1, 4)


def test_unattributed_frac_arithmetic():
    assert metrics.unattributed_frac(10.0, [2.0, 3.0]) == 0.5
    assert metrics.unattributed_frac(4.0, [4.0]) == 0.0
    # Overlapping layers are reported, not clamped.
    assert metrics.unattributed_frac(2.0, [1.5, 1.5]) == -0.5
    with pytest.raises(ValueError):
        metrics.unattributed_frac(0.0, [])


def test_unattributed_share_is_flagged_above_fifteen_percent():
    assert metrics.unattributed_flag(0.15) == []
    assert metrics.unattributed_flag(-0.4) == []
    assert metrics.unattributed_flag(0.151)[0].startswith("FLAG")


def test_layer_tracer_charges_self_time_once(monkeypatch):
    tracer = layers.LayerTracer()
    clock = iter([0.0, 1.0, 3.0, 10.0])  # outer start, inner start, inner end, outer end
    inner = tracer.timed("inner", lambda: None)
    outer = tracer.timed("outer", lambda: inner())
    monkeypatch.setattr(layers.time, "perf_counter", lambda: next(clock))
    outer()
    monkeypatch.undo()
    assert tracer.self_s["inner"] == 2.0
    assert tracer.self_s["outer"] == 8.0
    report = tracer.report(run_wall_s=12.0, cells=1)
    assert report["runs.overhead_s"] == 2.0


# -- names --------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["setup_s", "coding.window.mcycles_per_s", "serve.router.hop_ms", "a-1"]
)
def test_name_grammar_accepts(name):
    assert metrics.check_name(name) == name


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space", "x/y", "a" * 65, 3])
def test_name_grammar_rejects(name):
    with pytest.raises(ValueError):
        metrics.check_name(name)


def test_benchmark_json_names_follow_the_grammar_and_are_unique():
    doc = benchmark()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    for name in names:
        metrics.check_name(name)
    assert len(names) == len(set(names))
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in doc["end_to_end"]
    )
    assert max(m["bound"] for m in doc["end_to_end"]) <= 0.25


def test_per_layer_names_are_what_the_workloads_measure():
    measured = set(layers.LAYER_NAMES) | set(serve_load.LAYER_NAMES)
    measured |= {"unattributed_frac", "trace_overhead_frac"}
    assert {m["name"] for m in benchmark()["per_layer"]} == measured


def test_result_line_prints_exactly_the_listed_names():
    specs = [{"name": "a", "unit": "s"}, {"name": "b", "unit": "ms"}]
    line = json.loads(metrics.result_line(True, 3, 0, {"a": 1.5, "b": 2}, specs))
    assert line == {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {"a": {"value": 1.5, "unit": "s"}, "b": {"value": 2.0, "unit": "ms"}},
    }
    with pytest.raises(ValueError):
        metrics.result_line(True, 1, 0, {"a": 1.0}, specs)
    with pytest.raises(ValueError):
        metrics.result_line(True, 1, 0, {"a": 1.0, "b": 1.0, "c": 1.0}, specs)
    with pytest.raises(ValueError):
        metrics.result_line(True, 1, 0, {"a": math.nan, "b": 1.0}, specs)


# -- the command ---------------------------------------------------------------


def run_command(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in benchmark()["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_exactly_the_benchmark_json_names(workload, trace):
    proc = run_command(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in benchmark()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "savings", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
