"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {table3,savings,serve} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no benchmark timers in
the program's processes; ``--trace 1`` is a separate run that prints the
per-layer metrics.  Human-readable lines come first; the last stdout line
is one JSON object with exactly the keys ``correct``, ``attempted``,
``failed`` and ``metrics``, whose names are those ``BENCHMARK.json``
lists.  Every output is checked (recorded per-cell values for the
matrices, an in-process coder oracle for ``serve``) and a mismatch counts
as a failed operation.

The program is driven from ``src/`` of the same checkout.  All scratch
state (trace caches, runs and obs directories) lives in a fresh
directory under ``.perfbench_work/`` that is removed at exit; the user's
``~/.cache`` is never read or written.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

import metrics  # noqa: E402  (sibling module; HERE is sys.path[0])

WORKLOADS = ("table3", "savings", "serve")


@dataclass
class Context:
    """What every workload needs: arguments, scratch space, child env."""

    seed: int
    seconds: float
    trace: bool
    work: str
    env: Dict[str, str]
    _counter: int = 0

    def fresh_dir(self, label: str) -> str:
        """A new empty directory under this run's scratch space."""
        self._counter += 1
        path = os.path.join(self.work, f"{label}-{self._counter}")
        os.makedirs(path)
        return path


def child_env(work: str) -> Dict[str, str]:
    """Environment for the program's processes: hermetic caches, obs on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    env["REPRO_OBS"] = "1"
    env["REPRO_TRACE_CACHE"] = "1"
    env["XDG_CACHE_HOME"] = os.path.join(work, "xdg-cache")
    # Each pass overrides this with its own empty directory.
    env["REPRO_TRACE_CACHE_DIR"] = os.path.join(work, "trace-cache")
    return env


def source_digest() -> str:
    """SHA-256 over the program's Python sources (commit-independent id)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def host_facts() -> List[str]:
    import numpy

    load = os.getloadavg()
    return [
        f"host: nproc {os.cpu_count()}, CPython {platform.python_version()}, "
        f"numpy {numpy.__version__}, REPRO_OBS=1",
        f"code: git {git_commit()}, src sha256 {source_digest()}",
        f"load average at start: {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}",
    ]


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    facts = host_facts()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    ctx = Context(args.seed, args.seconds, bool(args.trace), work, child_env(work))
    try:
        if args.workload == "serve":
            import serve_load

            outcome = serve_load.run(ctx)
        else:
            import matrices

            outcome = matrices.run(args.workload, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it

    kind = "per_layer" if ctx.trace else "end_to_end"
    specs = metrics.metric_specs(kind)
    values = outcome.layers if ctx.trace else outcome.e2e
    line = metrics.result_line(
        outcome.failed == 0, outcome.attempted, outcome.failed, values, specs
    )
    frac = metrics.failed_frac(outcome.failed, outcome.attempted)
    print(
        f"perfbench {args.workload} | seed {args.seed} | {args.seconds:g} s | "
        f"trace {args.trace}"
    )
    for note in facts + outcome.notes + outcome.errors:
        print(f"  {note}")
    for error in outcome.errors:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
    print(f"  failed_frac: {frac:.6f} ({outcome.failed} of {outcome.attempted})")
    for spec in specs:
        print(f"  {spec['name']}: {values[spec['name']]:.6g} {spec['unit']}")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
