"""The soak core: named checks, one report shape, one verdict renderer.

The three CI-blocking acceptance soaks prove one thing from three
angles: a stream encodes and decodes bit for bit however it is run —
through a hostile network (``repro chaos-soak``,
:func:`repro.serve.soak.run_chaos_soak`), through worker SIGKILLs
(``repro cluster-soak``, :func:`repro.serve.soak.run_cluster_soak`) and
through a runner SIGKILL plus resume (``repro run-soak``,
:func:`repro.runs.soak.run_soak`).  Each scenario records its
invariants as :class:`SoakCheck`\\ s on a :class:`SoakReport`; the
verdict is derived from the checks alone, and :func:`render_report` is
the one place that turns a report into a table, ``<prog>: FAIL: ...``
stderr lines and an exit code.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List

from .analysis.reporting import format_table

__all__ = ["SoakCheck", "SoakReport", "render_report"]


@dataclass(frozen=True)
class SoakCheck:
    """One verified invariant: name, verdict, evidence."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class SoakReport:
    """What a soak observed: its checks, counters and artifacts.

    :attr:`ok` and :attr:`failures` are derived from :attr:`checks`; a
    report with no checks verified nothing and does not pass.
    """

    checks: List[SoakCheck] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    #: Files the soak left behind (name -> path), for CI upload.
    artifacts: Dict[str, str] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(check.ok for check in self.checks)

    @property
    def failures(self) -> List[str]:
        return [
            f"{c.name}: {c.detail}" if c.detail else c.name
            for c in self.checks
            if not c.ok
        ]

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(SoakCheck(name, bool(ok), detail))


def _cell(value: Any) -> Any:
    """A stat as one table cell: dicts as ``k=v`` pairs, nested
    containers left out (they stay in :attr:`SoakReport.stats`)."""
    if isinstance(value, dict):
        return ", ".join(
            f"{k}={v}" for k, v in value.items() if not isinstance(v, (dict, list))
        )
    return value


def render_report(report: SoakReport, prog: str, title: str) -> int:
    """Print the verdict table; one ``<prog>: FAIL:`` line per failure.

    Returns the exit code: 0 when every check passed, else 1.
    """
    rows = [
        (check.name, "PASS" if check.ok else "FAIL", check.detail[:60])
        for check in report.checks
    ]
    rows.extend((name, "", _cell(value)) for name, value in report.stats.items())
    rows.extend((name, "", path) for name, path in report.artifacts.items())
    rows.append(("elapsed", "", f"{report.elapsed_s:.2f} s"))
    print(format_table(["check", "verdict", "detail"], rows, title=title))
    for failure in report.failures:
        print(f"{prog}: FAIL: {failure}", file=sys.stderr)
    return 0 if report.ok else 1
