"""End-to-end observability: CLI export, ``repro report``, kill switch.

The acceptance path the subsystem exists for:

* ``repro run table3 --jobs 2 --obs-dir D --trace-out T`` leaves a
  Perfetto-loadable Chrome trace and JSONL telemetry behind, with
  fork-worker metrics (``machine.*``) merged into the parent's export;
* ``repro report D`` renders per-phase timing and the trace-cache hit
  rate from those files;
* ``REPRO_OBS=0`` disables collection without changing any command's
  stdout — telemetry is a strictly write-only side channel.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.cli import main
from repro.obs.report import load_run, render_report, summarize_spans
from repro.traces.cache import TraceCache, get_default_cache, set_default_cache
from repro.workloads import clear_caches


@pytest.fixture()
def clean_obs():
    previous = obs.set_enabled(True)
    obs.reset()
    yield
    obs.reset()
    obs.set_enabled(previous)


@pytest.fixture()
def fresh_cache(tmp_path):
    """A cold per-test trace cache, so the run must actually simulate.

    The session-wide cache is warm by the time this module runs; the
    worker-side ``machine.*`` counters the merge assertions look for
    only appear when the sweep simulates rather than loads.
    """
    previous = get_default_cache()
    set_default_cache(TraceCache(str(tmp_path / "fresh-cache")))
    clear_caches()
    yield
    set_default_cache(previous)
    clear_caches()


def run_cli(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr()


# -- export round trip ----------------------------------------------------


def test_table3_exports_chrome_trace_and_jsonl(tmp_path, capsys, clean_obs, fresh_cache):
    obs_dir = str(tmp_path / "run")
    trace_out = str(tmp_path / "trace.json")
    captured = run_cli(
        capsys,
        "run",
        "table3",
        "--cycles",
        "3000",
        "--jobs",
        "2",
        "--runs-dir",
        str(tmp_path / "runs"),
        "--obs-dir",
        obs_dir,
        "--trace-out",
        trace_out,
    )
    assert "Median mm" in captured.out  # the stdout table is unaffected

    with open(trace_out, "r", encoding="utf-8") as handle:
        trace = json.load(handle)
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    assert events, "no spans exported"
    names = {e["name"] for e in events}
    assert "cli.run" in names  # the root span
    assert "runs.cell" in names  # per-cell spans (possibly from workers)
    for event in events:
        assert event["ph"] == "X"
        assert set(event) == {"name", "ph", "ts", "dur", "pid", "tid", "cat", "args"}

    spans, metrics = load_run(obs_dir)
    assert os.path.exists(os.path.join(obs_dir, "spans.jsonl"))
    assert os.path.exists(os.path.join(obs_dir, "metrics.jsonl"))
    counters = {
        (r["name"], tuple(sorted((r.get("labels") or {}).items()))): r["value"]
        for r in metrics
        if r["type"] == "counter"
    }
    # machine.runs is incremented inside fork workers: its presence in
    # the parent's export proves the delta merge worked.
    machine_runs = sum(v for (name, _), v in counters.items() if name == "machine.runs")
    assert machine_runs > 0
    assert any(name == "parallel.cells" for (name, _) in counters)
    root = [s for s in spans if s["depth"] == 0]
    assert len(root) == 1 and root[0]["name"] == "cli.run"


def test_report_renders_phases_and_cache_hit_rate(tmp_path, capsys, clean_obs):
    obs_dir = str(tmp_path / "run")
    run_cli(
        capsys, "run", "table3", "--cycles", "3000",
        "--runs-dir", str(tmp_path / "runs"), "--obs-dir", obs_dir,
    )
    captured = run_cli(capsys, "report", obs_dir)
    assert "per-phase timing" in captured.out
    assert "cli.run" in captured.out
    assert "trace cache hit rate" in captured.out
    assert "counters" in captured.out


def test_report_single_file_and_missing_path(tmp_path, capsys, clean_obs):
    obs_dir = str(tmp_path / "run")
    run_cli(capsys, "stats", "gcc", "--cycles", "3000", "--obs-dir", obs_dir)
    # A single spans.jsonl is accepted directly.
    captured = run_cli(capsys, "report", os.path.join(obs_dir, "spans.jsonl"))
    assert "cli.stats" in captured.out
    # A directory without telemetry is a one-line user error.
    code = main(["report", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("repro: error:")


def test_global_flags_accepted_before_and_after_subcommand(tmp_path, capsys, clean_obs):
    before = str(tmp_path / "before.json")
    after = str(tmp_path / "after.json")
    run_cli(capsys, "--trace-out", before, "stats", "gcc", "--cycles", "3000")
    run_cli(capsys, "stats", "gcc", "--cycles", "3000", "--trace-out", after)
    for path in (before, after):
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["traceEvents"]


def test_quiet_silences_info_logging(tmp_path, capsys, clean_obs):
    obs_dir = str(tmp_path / "run")
    captured = run_cli(
        capsys, "stats", "gcc", "--cycles", "3000", "--obs-dir", obs_dir
    )
    assert "telemetry written" in captured.err  # default: INFO on stderr
    captured = run_cli(
        capsys, "-q", "stats", "gcc", "--cycles", "3000", "--obs-dir", obs_dir
    )
    assert "telemetry written" not in captured.err
    assert "unique fraction" in captured.out  # stdout contract untouched


def test_telemetry_exported_even_on_command_error(tmp_path, capsys, clean_obs):
    obs_dir = str(tmp_path / "run")
    code = main(["report", str(tmp_path / "missing"), "--obs-dir", obs_dir])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("repro: error:")
    spans, _ = load_run(obs_dir)
    (root,) = [s for s in spans if s["depth"] == 0]
    assert root["attrs"]["error"] == "FileNotFoundError"


# -- report rendering units ----------------------------------------------


def test_summarize_spans_shares_reference_root():
    spans = [
        {"name": "cli.table3", "dur": 2.0, "depth": 0},
        {"name": "table3.cell", "dur": 0.5, "depth": 1},
        {"name": "table3.cell", "dur": 1.5, "depth": 1},
    ]
    rows = {r["name"]: r for r in summarize_spans(spans)}
    assert rows["cli.table3"]["share_pct"] == pytest.approx(100.0)
    assert rows["table3.cell"]["count"] == 2
    assert rows["table3.cell"]["total_s"] == pytest.approx(2.0)
    assert rows["table3.cell"]["share_pct"] == pytest.approx(100.0)


def test_render_report_without_records():
    assert render_report([], []) == "no telemetry records found"


# -- the kill switch ------------------------------------------------------


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_repro_obs_0_leaves_stdout_byte_identical(tmp_path, jobs):
    """The paper tables must not depend on whether telemetry is collected."""
    argv = [
        sys.executable,
        "-m",
        "repro",
        "run",
        "table3",
        "--cycles",
        "2000",
        "--jobs",
        jobs,
        "-q",
    ]
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(repo, "src"), env.get("PYTHONPATH", "")) if p
    )
    outputs = {}
    for flag in ("1", "0"):
        env["REPRO_OBS"] = flag
        # Separate cache and runs dirs: only the kill switch varies
        # between runs (each writes ./runs under its own directory, so
        # the printed run path is the same).
        env["REPRO_TRACE_CACHE_DIR"] = str(tmp_path / f"cache-{flag}")
        workdir = tmp_path / f"work-{flag}"
        workdir.mkdir()
        proc = subprocess.run(
            argv,
            env=env,
            cwd=str(workdir),
            capture_output=True,
            text=True,
            check=True,
        )
        outputs[flag] = proc.stdout
    assert outputs["1"] == outputs["0"]
    assert "Median mm" in outputs["1"]
