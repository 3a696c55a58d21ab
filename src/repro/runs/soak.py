"""The kill-the-runner soak: SIGKILL + resume = byte-identical outputs.

``repro run-soak`` is the acceptance gate for the whole resumable-run
contract, the third scenario on the :mod:`repro.soak` core next to the
chaos and cluster soaks: every step is seeded, every verdict is a
deterministic function of the seed, and a red run is a real bug, not
runner noise.

The script:

1. **Reference run** — a seeded ``savings`` matrix over a generated
   workload population, executed uninterrupted (with a scripted
   ``wedge`` chaos cell so the watchdog-timeout -> transient-retry path
   is exercised even here).
2. **Victim run** — the *same* matrix with ``--kill-at N``: the runner
   SIGKILLs itself right after journalling its Nth ``done`` event,
   mid-matrix.  The exit status must be the kill, and the ledger must
   hold completed cells but no ``run_close``.
3. **Corruption** — one of the victim's journalled artifacts is
   rewritten so it still *parses* but no longer matches its recorded
   digest (the tamper class structural validation cannot catch).
4. **Resume** — ``repro run --resume`` replays the ledger, must
   quarantine the corrupt artifact (and re-execute that cell), skip
   every intact completed cell without re-simulation (proved via the
   ``runs.cells_skipped`` counter in the exported telemetry) and
   finish the rest.
5. **Verdict** — the victim's ``summary.json``/``summary.txt`` must be
   **byte-identical** to the reference run's, the combined ledger must
   show a ``timeout`` retry that later completed and the
   quarantine-then-recompute sequence, and no cell may have been
   silently reused or silently dropped.

Runs are executed as real subprocesses (``python -m repro run ...``) so
the SIGKILL is a genuine process death, not an in-process simulation.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from ..obs.export import read_jsonl
from ..soak import SoakReport
from .ledger import LEDGER_FILENAME

__all__ = ["run_soak"]


def _repro_env() -> Dict[str, str]:
    """The subprocess environment, with this repro importable."""
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    return env


def _run_cli(args: List[str], env: Dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _find_retry_then_done(events: List[dict]) -> Optional[str]:
    """A cell key that had a non-final timeout failure and later a done."""
    timed_out = {
        e["key"]
        for e in events
        if e.get("event") == "failed"
        and e.get("kind") == "timeout"
        and not e.get("final")
    }
    done_after = {e["key"] for e in events if e.get("event") == "done"}
    survivors = timed_out & done_after
    return next(iter(sorted(survivors)), None)


def _find_quarantine_then_done(events: List[dict], reason: str) -> Optional[str]:
    """A cell key quarantined for ``reason`` and completed afterwards."""
    quarantined_at: Dict[str, int] = {}
    for i, e in enumerate(events):
        if e.get("event") == "quarantined" and e.get("reason") == reason:
            quarantined_at.setdefault(e["key"], i)
    for i, e in enumerate(events):
        if e.get("event") == "done":
            at = quarantined_at.get(e["key"])
            if at is not None and i > at:
                return e["key"]
    return None


def run_soak(
    directory: Optional[str] = None,
    quick: bool = True,
    seed: int = 7,
    jobs: int = 2,
) -> SoakReport:
    """Run the kill-the-runner soak; returns the verdict report.

    ``directory`` keeps the run artifacts (ledgers, quarantine records)
    for upload; None uses a temporary directory that is deleted unless
    a check fails.
    """
    t0 = time.monotonic()
    report = SoakReport()
    cleanup = directory is None
    root = directory or tempfile.mkdtemp(prefix="repro-run-soak-")
    os.makedirs(root, exist_ok=True)
    env = _repro_env()

    population = 6 if quick else 12
    cycles = 1024 if quick else 4096
    kill_at = 4 if quick else 8
    source = (
        f"gen:mixed,seed={seed},population={population},"
        f"cycles={cycles},width=16"
    )
    matrix_args = [
        "run",
        "savings",
        "--source",
        source,
        "--coders",
        "last,window8",
        "--runs-dir",
        root,
        "--jobs",
        str(jobs),
        "--cell-timeout",
        "0.5",
        "--chaos",
        "wedge@1=1.5",
        "--batch",
        "2",
    ]
    report.stats.update(kill_at=kill_at, cells=population * 2)

    # 1. reference run: uninterrupted, same chaos script.
    ref = _run_cli(matrix_args + ["--run-id", "ref"], env)
    report.add(
        "reference run completes",
        ref.returncode == 0,
        f"rc={ref.returncode} stderr={ref.stderr[-300:]}" if ref.returncode else "",
    )

    # 2. victim run: SIGKILLed after the kill_at-th done event.
    victim = _run_cli(
        matrix_args + ["--run-id", "soak", "--kill-at", str(kill_at)], env
    )
    killed = victim.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL, 137)
    report.add(
        "victim run SIGKILLed mid-matrix",
        killed,
        "" if killed else f"rc={victim.returncode} stderr={victim.stderr[-300:]}",
    )

    victim_ledger = os.path.join(root, "soak", LEDGER_FILENAME)
    events = (
        read_jsonl(victim_ledger, torn_tail=True)
        if os.path.exists(victim_ledger)
        else []
    )
    done_keys = [e["key"] for e in events if e.get("event") == "done"]
    closed = any(e.get("event") == "run_close" for e in events)
    report.add(
        "interrupted ledger holds completed cells, no run_close",
        bool(done_keys) and not closed,
        f"done={len(done_keys)} closed={closed}",
    )

    # 3. corrupt one journalled artifact: still parses, digest differs.
    corrupt_key = ""
    if done_keys:
        corrupt_key = done_keys[0]
        artifact = os.path.join(root, "soak", "cells", f"{corrupt_key}.json")
        try:
            with open(artifact, "r", encoding="utf-8") as handle:
                value = json.load(handle)
            value["savings_pct"] = value.get("savings_pct", 0.0) + 1.0
            with open(artifact, "w", encoding="utf-8") as handle:
                json.dump(value, handle)
            report.add("artifact corrupted (parseable tamper)", True)
        except (OSError, ValueError) as exc:
            report.add("artifact corrupted (parseable tamper)", False, str(exc))
    else:
        report.add("artifact corrupted (parseable tamper)", False, "no done cells")

    # 4. resume, exporting telemetry for the skip-counter check.
    obs_dir = os.path.join(root, "soak-obs")
    resume = _run_cli(
        [
            "run",
            "--resume",
            "soak",
            "--runs-dir",
            root,
            "--jobs",
            str(jobs),
            "--cell-timeout",
            "0.5",
            "--chaos",
            "wedge@1=1.5",
            "--batch",
            "2",
            "--obs-dir",
            obs_dir,
        ],
        env,
    )
    report.add(
        "resume completes",
        resume.returncode == 0,
        f"rc={resume.returncode} stderr={resume.stderr[-300:]}"
        if resume.returncode
        else "",
    )

    # 5. verdicts.
    events = (
        read_jsonl(victim_ledger, torn_tail=True)
        if os.path.exists(victim_ledger)
        else []
    )

    for name in ("summary.json", "summary.txt"):
        ref_path = os.path.join(root, "ref", name)
        soak_path = os.path.join(root, "soak", name)
        try:
            identical = _read_bytes(ref_path) == _read_bytes(soak_path)
            report.add(
                f"{name} byte-identical to uninterrupted run",
                identical,
                "" if identical else "outputs differ",
            )
        except OSError as exc:
            report.add(f"{name} byte-identical to uninterrupted run", False, str(exc))

    requarantined = _find_quarantine_then_done(events, "artifact-digest-mismatch")
    report.add(
        "corrupt artifact quarantined and re-executed",
        requarantined is not None and requarantined == corrupt_key,
        f"expected {corrupt_key[:12]}, saw "
        f"{(requarantined or 'none')[:12]}",
    )

    retried = _find_retry_then_done(events)
    report.add(
        "timeout cell retried to completion",
        retried is not None,
        "" if retried else "no timeout-retry-done sequence in the ledger",
    )

    resumed_events = [e for e in events if e.get("event") == "resumed"]
    skipped = max((int(e.get("skipped", 0)) for e in resumed_events), default=0)
    report.add(
        "completed cells skipped on resume (ledger)",
        skipped >= 1,
        f"skipped={skipped}",
    )

    metrics_path = os.path.join(obs_dir, "metrics.jsonl")
    try:
        counter = sum(
            float(record.get("value", 0))
            for record in read_jsonl(metrics_path)
            if record.get("name") == "runs.cells_skipped"
        )
        detail = f"counter={counter:g}"
    except (OSError, ValueError) as exc:
        counter, detail = 0.0, str(exc)
    report.add("runs.cells_skipped counter exported", counter >= 1, detail)

    quarantine_dir = os.path.join(root, "soak", "quarantine")
    records = (
        sorted(os.listdir(quarantine_dir)) if os.path.isdir(quarantine_dir) else []
    )
    report.add(
        "quarantine records written",
        any(name.endswith(".json") for name in records),
        f"records={len(records)}",
    )

    report.elapsed_s = time.monotonic() - t0
    if cleanup and report.ok:
        shutil.rmtree(root, ignore_errors=True)
    else:
        report.artifacts["run directory"] = root
    return report
