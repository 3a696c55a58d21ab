"""`repro bench`: smoke runs and the BENCH_*.json schema guard.

The ``bench_smoke`` marker selects the quick end-to-end runs; the
schema-validator tests are plain unit tests.  The guard's contract:
any drift in the emitted report layout (missing key, renamed key, type
change, schema-tag bump) is rejected by :func:`validate_bench_report`,
which is what makes ``repro bench --quick`` exit nonzero on drift.
"""

import copy
import json
import re

import pytest

from repro.analysis.bench import (
    BENCH_SCHEMA,
    BenchSchemaError,
    default_report_path,
    run_bench,
    validate_bench_report,
    write_report,
)
from repro.cli import main


@pytest.fixture(scope="module")
def quick_report():
    return run_bench(quick=True, jobs=1)


# -- smoke runs -----------------------------------------------------------


@pytest.mark.bench_smoke
def test_quick_bench_matches_schema(quick_report):
    validate_bench_report(quick_report)  # must not raise
    assert quick_report["schema"] == BENCH_SCHEMA
    assert quick_report["quick"] is True


@pytest.mark.bench_smoke
def test_quick_bench_kernels_are_identical_and_fast(quick_report):
    kernels = {k["coder"]: k for k in quick_report["kernels"]}
    assert set(kernels) == {"transition", "last-value", "inversion", "window-audit"}
    for record in kernels.values():
        assert record["identical"], f"{record['coder']} fast path diverged"
        assert record["fast_s"] > 0
    # Even on tiny quick-mode traces the transition kernel clears the
    # full-size acceptance bar by a wide margin.
    assert kernels["transition"]["speedup"] > 5


@pytest.mark.bench_smoke
def test_quick_bench_cache_warms_up(quick_report):
    sweeps = {s["name"]: s for s in quick_report["sweeps"]}
    assert set(sweeps) == {"robust_savings_sweep", "crossover_table"}
    for record in sweeps.values():
        assert record["cold_s"] > 0 and record["warm_s"] > 0
    # The persistent cache must make the warm crossover run faster.
    assert sweeps["crossover_table"]["warm_s"] < sweeps["crossover_table"]["cold_s"]


@pytest.mark.bench_smoke
def test_quick_bench_covers_the_corpus_stages(quick_report):
    stages = {c["name"]: c for c in quick_report["corpus"]}
    assert set(stages) == {"generate", "ingest", "read_mmap", "read_memory"}
    assert stages["ingest"]["unit"] == "MB/s"
    assert stages["generate"]["unit"] == "streams/s"
    for record in stages.values():
        assert record["per_s"] > 0 and record["elapsed_s"] >= 0
    # Both read paths walked the whole ingested shard.
    assert stages["read_mmap"]["cycles"] == stages["ingest"]["cycles"]
    assert stages["read_memory"]["cycles"] == stages["ingest"]["cycles"]


@pytest.mark.bench_smoke
def test_write_report_round_trips(quick_report, tmp_path):
    path = write_report(quick_report, str(tmp_path / "BENCH_t.json"))
    with open(path, "r", encoding="utf-8") as handle:
        loaded = json.load(handle)
    validate_bench_report(loaded)
    assert loaded["kernels"] == quick_report["kernels"]


@pytest.mark.bench_smoke
def test_cli_bench_quick_exits_zero(tmp_path, capsys):
    out = str(tmp_path / "BENCH_cli.json")
    assert main(["bench", "--quick", "--output", out]) == 0
    stdout = capsys.readouterr().out
    assert "vectorized kernels" in stdout
    assert "trace-cache" in stdout
    with open(out, "r", encoding="utf-8") as handle:
        validate_bench_report(json.load(handle))


# -- schema guard ---------------------------------------------------------


def _mutate(report, fn):
    mutated = copy.deepcopy(report)
    fn(mutated)
    return mutated


VALID = {
    "schema": BENCH_SCHEMA,
    "created": "2026-01-01T00:00:00+00:00",
    "quick": True,
    "jobs": 1,
    "numpy": "2.0.0",
    "kernels": [
        {
            "coder": "transition",
            "cycles": 1000,
            "scalar_s": 0.5,
            "fast_s": 0.05,
            "speedup": 10.0,
            "fast_mcycles_per_s": 20.0,
            "identical": True,
        }
    ],
    "sweeps": [
        {
            "name": "crossover_table",
            "cycles": 1000,
            "cold_s": 1.0,
            "warm_s": 0.25,
            "speedup": 4.0,
        }
    ],
}


CORPUS_RECORD = {
    "name": "ingest",
    "cycles": 1000,
    "mbytes": 8.0,
    "elapsed_s": 0.1,
    "per_s": 80.0,
    "unit": "MB/s",
}


def test_valid_synthetic_report_passes():
    validate_bench_report(VALID)
    validate_bench_report(_mutate(VALID, lambda r: r.update(jobs=None)))
    # `corpus` is optional: absent is fine, well-formed is fine.
    validate_bench_report(
        _mutate(VALID, lambda r: r.update(corpus=[dict(CORPUS_RECORD)]))
    )


@pytest.mark.parametrize(
    "mutator, pattern",
    [
        (lambda r: r.update(schema="repro-bench/2"), "schema tag"),
        (lambda r: r.pop("created"), "missing top-level"),
        (lambda r: r.update(extra_field=1), "unexpected top-level"),
        (lambda r: r.update(quick="yes"), "'quick' must be a bool"),
        (lambda r: r.update(jobs="four"), "'jobs' must be an int"),
        (lambda r: r.update(kernels=[]), "non-empty list"),
        (lambda r: r.update(sweeps="nope"), "non-empty list"),
        (lambda r: r["kernels"][0].pop("speedup"), "missing key 'speedup'"),
        (lambda r: r["kernels"][0].update(identical="yes"), "should be bool"),
        (lambda r: r["kernels"][0].update(unknown=1), "unexpected keys"),
        (lambda r: r["sweeps"][0].update(cold_s="slow"), "should be float"),
        (lambda r: r["sweeps"][0].update(cycles=2.5), "should be int"),
        (lambda r: r.update(corpus=[]), "non-empty list"),
        (
            lambda r: r.update(
                corpus=[{k: v for k, v in CORPUS_RECORD.items() if k != "unit"}]
            ),
            "missing key 'unit'",
        ),
        (
            lambda r: r.update(corpus=[dict(CORPUS_RECORD, per_s="fast")]),
            "should be float",
        ),
    ],
)
def test_schema_drift_is_rejected(mutator, pattern):
    with pytest.raises(BenchSchemaError, match=re.escape(pattern)):
        validate_bench_report(_mutate(VALID, mutator))


def test_non_dict_rejected():
    with pytest.raises(BenchSchemaError):
        validate_bench_report([VALID])
    with pytest.raises(BenchSchemaError):
        validate_bench_report(None)


def test_write_report_rejects_drift(tmp_path):
    bad = _mutate(VALID, lambda r: r["kernels"][0].pop("identical"))
    with pytest.raises(BenchSchemaError):
        write_report(bad, str(tmp_path / "BENCH_bad.json"))


def test_default_report_path_shape(tmp_path):
    path = default_report_path(str(tmp_path))
    assert re.fullmatch(
        r"BENCH_\d{8}T\d{6}Z\.json", path.rsplit("/", 1)[-1]
    )
