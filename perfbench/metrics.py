"""Metric arithmetic shared by the benchmark driver, its workloads and tests.

Everything here is a pure function over plain numbers, so the rules the
report depends on can be tested without running a workload:

* :func:`tail_percentile` -- a timing is reported as its median and the
  highest percentile (p90 or p99) that still has at least ten samples
  beyond it;
* :func:`failed_frac` -- failures counted against operations attempted;
* :func:`unattributed_frac` -- the share of end-to-end time no layer
  claims;
* :func:`check_name` -- the metric/workload name grammar.
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: Samples a reported tail percentile must leave beyond it.
TAIL_BEYOND = 10
#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.0, 90.0, 50.0)

#: Above this share of unexplained time the traced report is flagged.
UNATTRIBUTED_FLAG = 0.15

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)


@dataclass
class Outcome:
    """A workload's verdict: operation counts, metrics and report lines."""

    attempted: int
    failed: int
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Why operations failed; printed to stderr as well as stdout.
    errors: List[str] = field(default_factory=list)


def check_name(name: str) -> str:
    """Return ``name`` if it follows the metric name grammar, else raise."""
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(f"bad metric or workload name {name!r}")
    return name


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest of :data:`TAIL_LADDER` with ten samples or more beyond it.

    Returns ``(percentile, value, count)``, the value by nearest rank:
    p99 needs at least 1000 samples, p90 at least 100.  The ladder stops at
    p99: one run's p99.9 is set by a handful of scheduler stalls on a
    shared two-core host and does not repeat from run to run.
    """
    n = len(samples)
    ordered = sorted(samples)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return pct, float(ordered[rank - 1]), n
    raise ValueError(
        f"a tail percentile needs at least {2 * TAIL_BEYOND} samples, got {n}"
    )


def failed_frac(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones (the base must be >= 1)."""
    if attempted < 1:
        raise ValueError("failed_frac needs at least one attempted operation")
    if not 0 <= failed:
        raise ValueError(f"negative failure count {failed}")
    return failed / attempted


def unattributed_frac(e2e: float, layers: Iterable[float]) -> float:
    """``(e2e - sum(layers)) / e2e``: end-to-end time no layer accounts for.

    Negative when layer times overlap (double counting), which the report
    shows as is rather than clamping.
    """
    if e2e <= 0:
        raise ValueError(f"end-to-end time must be positive, got {e2e}")
    return (e2e - math.fsum(layers)) / e2e


def unattributed_flag(value: float) -> List[str]:
    """The report line flagging too much unexplained time, if any."""
    if value <= UNATTRIBUTED_FLAG:
        return []
    return [f"FLAG: unattributed_frac {value:.3f} exceeds {UNATTRIBUTED_FLAG:.0%}"]


def safe_ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when the base is empty."""
    return numerator / denominator if denominator else 0.0


def load_benchmark(path: str = BENCHMARK_JSON) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def metric_specs(kind: str, path: str = BENCHMARK_JSON) -> List[Dict]:
    """The ``end_to_end`` or ``per_layer`` entries of ``BENCHMARK.json``."""
    return list(load_benchmark(path)[kind])


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    values: Mapping[str, float],
    specs: Sequence[Mapping],
) -> str:
    """The final stdout line: exactly the metrics ``specs`` names.

    Raises if ``values`` misses a listed metric or carries an unlisted
    one, so the printed names can never drift from ``BENCHMARK.json``.
    """
    names = [check_name(spec["name"]) for spec in specs]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing {missing}, unlisted {extra}")
    metrics = {
        spec["name"]: {"value": float(values[spec["name"]]), "unit": spec["unit"]}
        for spec in specs
    }
    for name, entry in metrics.items():
        if not math.isfinite(entry["value"]):
            raise ValueError(f"metric {name} is not finite: {entry['value']}")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        },
        sort_keys=False,
    )


def timing_summary(samples_s: Sequence[float]) -> Dict[str, float]:
    """Median and tail (ms) of latency samples given in seconds."""
    pct, tail, count = tail_percentile(samples_s)
    return {
        "p50_ms": 1e3 * median(samples_s),
        "tail_ms": 1e3 * tail,
        "tail_pct": pct,
        "count": count,
    }


def window_summary(windows: Sequence[Tuple[int, float, Sequence[float]]]) -> Dict[str, float]:
    """Throughput and latency of a run as medians over its windows.

    Each window is ``(cycles, seconds, latencies_s)``: one matrix pass, or
    a fixed slice of a serve round.  Taking the median over windows keeps
    a few seconds of host contention from setting the run's figures.
    Throughput counts every window; latency only those with samples
    enough for a tail percentile (a slice that a stall left nearly empty
    has no latency figure of its own).
    """
    if not windows:
        raise ValueError("no measurement windows")
    timed = [latencies for _c, _s, latencies in windows if len(latencies) >= 2 * TAIL_BEYOND]
    if not timed:
        raise ValueError("no measurement window holds samples enough for a tail")
    summaries = [timing_summary(latencies) for latencies in timed]
    return {
        "mcycles_per_s": median([c / 1e6 / s for c, s, _l in windows]),
        "p50_ms": median([w["p50_ms"] for w in summaries]),
        "tail_ms": median([w["tail_ms"] for w in summaries]),
        "tail_pct": min(w["tail_pct"] for w in summaries),
        "count": sum(w["count"] for w in summaries),
        "windows": len(windows),
    }


def describe_timing(label: str, summary: Mapping[str, float]) -> str:
    return (
        f"{label}: p50 {summary['p50_ms']:.3f} ms, "
        f"p{summary['tail_pct']:g} {summary['tail_ms']:.3f} ms "
        f"(medians over {int(summary['windows'])} windows of "
        f"{int(summary['count'])} samples in all)"
    )
