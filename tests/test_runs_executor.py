"""The crash-resumable executor: resume-exactness, quarantine, retry.

The headline invariant — an interrupted-then-resumed run produces
byte-identical ``summary.json``/``summary.txt`` to an uninterrupted one
— is proven here in-process (a truncated ledger stands in for the
SIGKILL; the subprocess version with a real ``kill -9`` is the
``repro run-soak`` gate).  Around it: artifact digest verification on
resume (corrupt/missing -> quarantine + re-run, never silent reuse),
transient-vs-deterministic retry classification, and the per-family
circuit breaker.
"""

import json
import os
import shutil

import pytest

from repro.obs import read_jsonl
from repro.runs import (
    ExecutorOptions,
    RunConfig,
    RunDirectory,
    cell_key,
    run_matrix,
)

GEN = "gen:mixed,seed=5,population=2,cycles=256,width=16"


def savings_config(coders=("last", "window8")):
    return RunConfig(matrix="savings", sources=(GEN,), coders=tuple(coders))


def fast_options(**kwargs):
    kwargs.setdefault("sleep", lambda _s: None)  # no real backoff in tests
    return ExecutorOptions(**kwargs)


class TestFreshRun:
    def test_completes_and_journals(self, tmp_path):
        result = run_matrix(
            savings_config(), str(tmp_path), run_id="r", options=fast_options()
        )
        assert result.ok and result.status == "complete"
        assert len(result.results) == 4
        rundir = RunDirectory(str(tmp_path), "r")
        events = read_jsonl(rundir.ledger_path, torn_tail=True)
        assert events[0]["event"] == "run_open"
        assert events[-1]["event"] == "run_close"
        assert sum(1 for e in events if e["event"] == "done") == 4
        # Every done event's digest matches the artifact on disk.
        from repro.runs import file_digest

        for event in events:
            if event["event"] == "done":
                path = os.path.join(rundir.path, event["artifact"])
                assert file_digest(path) == event["sha256"]
        assert os.path.exists(rundir.summary_json_path)
        assert result.summary_text.rstrip().startswith("savings matrix")

    def test_artifact_digest_is_the_file_digest(self, tmp_path):
        from repro.runs import file_digest

        rundir = RunDirectory(str(tmp_path), "r")
        os.makedirs(rundir.cells_dir)  # run_matrix makes it once per run
        for value in ({"savings_pct": 12.5}, {"crossover_mm": None, "ratio_5mm": 1.0 / 3.0}):
            digest = rundir.write_artifact("k", value)
            assert digest == file_digest(rundir.artifact_path("k"))
            assert rundir.verify_artifact("k", digest) == (value, "")

    def test_refuses_to_clobber_existing_ledger(self, tmp_path):
        run_matrix(savings_config(), str(tmp_path), run_id="r", options=fast_options())
        with pytest.raises(ValueError, match="--resume"):
            run_matrix(
                savings_config(), str(tmp_path), run_id="r", options=fast_options()
            )

    def test_bad_run_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="invalid run id"):
            run_matrix(
                savings_config(), str(tmp_path), run_id="../evil", options=fast_options()
            )


class TestResume:
    def test_resume_of_complete_run_skips_everything(self, tmp_path):
        first = run_matrix(
            savings_config(), str(tmp_path), run_id="r", options=fast_options()
        )
        again = run_matrix(
            None, str(tmp_path), resume="r", options=fast_options()
        )
        assert again.skipped == 4 and not again.retried
        assert again.results == first.results
        assert again.summary_json == first.summary_json

    def test_interrupted_run_resumes_byte_identical(self, tmp_path):
        reference = run_matrix(
            savings_config(), str(tmp_path), run_id="ref", options=fast_options()
        )
        victim = run_matrix(
            savings_config(), str(tmp_path), run_id="vic", options=fast_options()
        )
        assert victim.summary_json == reference.summary_json
        # Simulate the SIGKILL: truncate the ledger after two done
        # events and delete the summaries the dead run never wrote.
        rundir = RunDirectory(str(tmp_path), "vic")
        with open(rundir.ledger_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        kept, done = [], 0
        for line in lines:
            event = json.loads(line)
            if event["event"] == "done":
                done += 1
            kept.append(line)
            if done == 2:
                break
        with open(rundir.ledger_path, "w", encoding="utf-8") as handle:
            handle.writelines(kept)
        os.remove(rundir.summary_json_path)
        os.remove(rundir.summary_text_path)

        resumed = run_matrix(None, str(tmp_path), resume="vic", options=fast_options())
        assert resumed.skipped == 2
        assert resumed.summary_json == reference.summary_json
        assert resumed.summary_text == reference.summary_text
        with open(rundir.summary_json_path, "r", encoding="utf-8") as handle:
            assert handle.read() == reference.summary_json

    def test_corrupt_artifact_quarantined_and_reexecuted(self, tmp_path):
        first = run_matrix(
            savings_config(), str(tmp_path), run_id="r", options=fast_options()
        )
        rundir = RunDirectory(str(tmp_path), "r")
        key = cell_key(first.cells[0])
        artifact = rundir.artifact_path(key)
        with open(artifact, "r", encoding="utf-8") as handle:
            value = json.load(handle)
        value["savings_pct"] += 1.0  # still parses; digest now lies
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump(value, handle)

        resumed = run_matrix(None, str(tmp_path), resume="r", options=fast_options())
        assert resumed.quarantined == 1 and resumed.skipped == 3
        assert resumed.results == first.results  # recomputed, not reused
        assert resumed.summary_json == first.summary_json
        # Evidence impounded: record names the reason, artifact preserved.
        record_path = os.path.join(rundir.quarantine_dir, f"{key}.json")
        with open(record_path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        assert record["reason"] == "artifact-digest-mismatch"
        assert os.path.exists(os.path.join(rundir.path, record["impounded"]))
        events = read_jsonl(rundir.ledger_path, torn_tail=True)
        assert any(
            e["event"] == "quarantined"
            and e["reason"] == "artifact-digest-mismatch"
            and e["key"] == key
            for e in events
        )

    def test_missing_artifact_quarantined_and_reexecuted(self, tmp_path):
        first = run_matrix(
            savings_config(), str(tmp_path), run_id="r", options=fast_options()
        )
        key = cell_key(first.cells[1])
        rundir = RunDirectory(str(tmp_path), "r")
        os.remove(rundir.artifact_path(key))
        resumed = run_matrix(None, str(tmp_path), resume="r", options=fast_options())
        assert resumed.quarantined == 1
        assert resumed.results == first.results
        events = read_jsonl(rundir.ledger_path, torn_tail=True)
        assert any(
            e["event"] == "quarantined" and e["reason"] == "artifact-missing"
            for e in events
        )

    def test_lost_cells_directory_is_recomputed_byte_identical(self, tmp_path):
        first = run_matrix(
            savings_config(), str(tmp_path), run_id="r", options=fast_options()
        )
        rundir = RunDirectory(str(tmp_path), "r")
        with open(rundir.summary_json_path, "rb") as handle:
            summary_json = handle.read()
        with open(rundir.summary_text_path, "rb") as handle:
            summary_text = handle.read()
        shutil.rmtree(rundir.cells_dir)

        resumed = run_matrix(None, str(tmp_path), resume="r", options=fast_options())
        assert resumed.quarantined == len(first.cells) and resumed.skipped == 0
        assert resumed.results == first.results
        events = read_jsonl(rundir.ledger_path, torn_tail=True)
        reasons = [e["reason"] for e in events if e["event"] == "quarantined"]
        assert reasons == ["artifact-missing"] * len(first.cells)
        with open(rundir.summary_json_path, "rb") as handle:
            assert handle.read() == summary_json
        with open(rundir.summary_text_path, "rb") as handle:
            assert handle.read() == summary_text

    def test_resume_without_ledger_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to resume"):
            run_matrix(None, str(tmp_path), resume="ghost", options=fast_options())

    def test_resume_with_mismatched_config_refused(self, tmp_path):
        run_matrix(savings_config(), str(tmp_path), run_id="r", options=fast_options())
        other = savings_config(coders=("window16",))
        with pytest.raises(ValueError, match="configuration mismatch"):
            run_matrix(other, str(tmp_path), resume="r", options=fast_options())


class TestFailureClassification:
    def test_deterministic_failure_quarantined_after_one_attempt(self, tmp_path):
        result = run_matrix(
            savings_config(),
            str(tmp_path),
            run_id="r",
            options=fast_options(chaos=("fail@1",), retries=3),
        )
        assert result.status == "degraded"
        assert list(result.failed.values()) == ["deterministic-failure"]
        assert "FAILED:deterministic-failure" in result.summary_text
        assert result.exit_code(strict=True) == 1
        assert result.exit_code(strict=False) == 0
        ledger = RunDirectory(str(tmp_path), "r").ledger_path
        events = read_jsonl(ledger, torn_tail=True)
        failed = [e for e in events if e["event"] == "failed"]
        assert len(failed) == 1 and failed[0]["final"]
        assert failed[0]["kind"] == "ValueError"

    def test_transient_failure_retried_to_success(self, tmp_path):
        result = run_matrix(
            savings_config(),
            str(tmp_path),
            run_id="r",
            options=fast_options(chaos=("flaky@2",), retries=3),
        )
        assert result.ok and result.retried == 1
        ledger = RunDirectory(str(tmp_path), "r").ledger_path
        events = read_jsonl(ledger, torn_tail=True)
        transient = [
            e for e in events if e["event"] == "failed" and not e["final"]
        ]
        assert len(transient) == 1
        assert transient[0]["kind"] == "OSError"
        assert transient[0]["klass"] == "transient"

    def test_transient_exhaustion_is_quarantined(self, tmp_path):
        # wedge with an impossible watchdog would be slow; instead make
        # the transient error permanent by shrinking the retry budget.
        result = run_matrix(
            savings_config(coders=("last",)),
            str(tmp_path),
            run_id="r",
            options=fast_options(chaos=("flaky@0",), retries=1),
        )
        assert result.failed
        assert list(result.failed.values()) == ["retries-exhausted"]

    def test_timeout_is_transient_and_retried(self, tmp_path):
        result = run_matrix(
            savings_config(coders=("last",)),
            str(tmp_path),
            run_id="r",
            options=fast_options(
                chaos=("wedge@0=0.6",), timeout_s=0.15, retries=3
            ),
        )
        assert result.ok and result.retried >= 1
        ledger = RunDirectory(str(tmp_path), "r").ledger_path
        events = read_jsonl(ledger, torn_tail=True)
        timeouts = [
            e for e in events if e["event"] == "failed" and e["kind"] == "timeout"
        ]
        assert timeouts and not timeouts[0]["final"]
        assert timeouts[0]["elapsed_s"] >= 0.1
        assert timeouts[0]["pid"] > 0

    def test_circuit_breaker_fails_family_fast(self, tmp_path):
        config = RunConfig(
            matrix="savings",
            sources=("gen:mixed,seed=5,population=4,cycles=256,width=16",),
            coders=("last",),
        )
        result = run_matrix(
            config,
            str(tmp_path),
            run_id="r",
            options=fast_options(
                chaos=("fail@0", "fail@1"), breaker_threshold=2, batch=2
            ),
        )
        classes = sorted(result.failed.values())
        assert classes == [
            "circuit-open",
            "circuit-open",
            "deterministic-failure",
            "deterministic-failure",
        ]
        assert "FAILED:circuit-open" in result.summary_text


class TestDeterminism:
    def test_chaos_does_not_change_summaries(self, tmp_path):
        clean = run_matrix(
            savings_config(), str(tmp_path), run_id="clean", options=fast_options()
        )
        shaken = run_matrix(
            savings_config(),
            str(tmp_path),
            run_id="shaken",
            options=fast_options(chaos=("flaky@0", "flaky@3"), retries=3),
        )
        assert shaken.retried == 2
        assert shaken.summary_json == clean.summary_json
        assert shaken.summary_text == clean.summary_text

    def test_jobs_do_not_change_summaries(self, tmp_path):
        serial = run_matrix(
            savings_config(), str(tmp_path), run_id="serial", options=fast_options()
        )
        fanned = run_matrix(
            savings_config(),
            str(tmp_path),
            run_id="fanned",
            options=fast_options(jobs=2),
        )
        assert fanned.summary_json == serial.summary_json


class TestCorpusSourcedRuns:
    """Satellite: corpus digest failures surface as quarantined cells,
    not crashes — a resumed run completes degraded and names the shard."""

    @pytest.fixture(autouse=True)
    def no_trace_cache(self):
        # The content-addressed trace cache would (correctly) serve the
        # uncorrupted bytes; disable it so every read hits the shard.
        from repro.traces import TraceCache
        from repro.traces.cache import get_default_cache, set_default_cache

        previous = get_default_cache()
        set_default_cache(TraceCache(enabled=False))
        yield
        set_default_cache(previous)

    def _corpus(self, tmp_path):
        import numpy as np

        from repro.corpus import CorpusWriter
        from repro.traces import BusTrace

        directory = tmp_path / "corpus"
        rng = np.random.default_rng(11)
        with CorpusWriter(str(directory)) as writer:
            for name in ("alpha", "beta"):
                writer.add_trace(
                    name,
                    BusTrace(
                        rng.integers(0, 1 << 16, size=300, dtype=np.uint64),
                        16,
                        name,
                    ),
                    source="test",
                )
        return directory

    def test_corpus_run_completes(self, tmp_path):
        directory = self._corpus(tmp_path)
        config = RunConfig(
            matrix="savings", sources=(f"corpus:{directory}",), coders=("last",)
        )
        result = run_matrix(config, str(tmp_path), run_id="r", options=fast_options())
        assert result.ok and len(result.results) == 2
        assert {c.workload for c in result.cells} == {"alpha", "beta"}

    def test_corrupt_shard_quarantines_cell_on_resume(self, tmp_path):
        from repro.corpus import CorpusReader

        directory = self._corpus(tmp_path)
        config = RunConfig(
            matrix="savings", sources=(f"corpus:{directory}",), coders=("last",)
        )
        first = run_matrix(config, str(tmp_path), run_id="r", options=fast_options())

        # Kill the run after one cell (truncate ledger) AND flip a bit
        # inside the shard the pending cell reads.
        rundir = RunDirectory(str(tmp_path), "r")
        with open(rundir.ledger_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        kept, done = [], 0
        for line in lines:
            kept.append(line)
            if json.loads(line)["event"] == "done":
                done += 1
                if done == 1:
                    break
        with open(rundir.ledger_path, "w", encoding="utf-8") as handle:
            handle.writelines(kept)

        pending = first.cells[1].workload  # canonical order: beta pending
        meta = CorpusReader(str(directory)).meta(pending)
        shard = directory / meta.file
        blob = bytearray(shard.read_bytes())
        blob[64] ^= 0x01
        shard.write_bytes(bytes(blob))

        resumed = run_matrix(None, str(tmp_path), resume="r", options=fast_options())
        assert resumed.status == "degraded"
        assert resumed.skipped == 1
        assert list(resumed.failed.values()) == ["deterministic-failure"]
        # The quarantine record names the shard via the error message.
        records = os.listdir(rundir.quarantine_dir)
        record_path = os.path.join(
            rundir.quarantine_dir, [r for r in records if r.endswith(".json")][0]
        )
        with open(record_path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        assert record["kind"] == "CorpusFormatError"
        assert pending in record["message"]


class TestTable3Parity:
    """`repro run table3` reproduces `crossover_table`'s medians.

    Every (technology, entries, suite class) median of a ``table3`` run
    over the 17 suite register streams equals the one
    :func:`repro.analysis.crossover_table` computes, within the run
    summary's 4-decimal rounding.
    """

    CYCLES = 1500

    def test_median_crossover_matches_crossover_table(self, tmp_path):
        from repro.analysis import crossover_table
        from repro.wires import TECHNOLOGIES
        from repro.workloads import WORKLOADS

        config = RunConfig(
            matrix="table3",
            sources=tuple(
                f"suite:{name}/register@{self.CYCLES}" for name in sorted(WORKLOADS)
            ),
            coders=("window8", "window16"),
            technologies=tuple(t.name for t in TECHNOLOGIES),
        )
        result = run_matrix(config, str(tmp_path), run_id="t3", options=fast_options())
        assert result.ok
        run_medians = {
            (a["technology"], a["entries"], a["suite"]): a["median_mm"]
            for a in json.loads(result.summary_json)["aggregates"]["median_crossover"]
        }
        table = crossover_table(TECHNOLOGIES, (8, 16), cycles=self.CYCLES)
        assert len(table) == len(run_medians) == 3 * 2 * 3
        for cell in table:
            got = run_medians[(cell.technology, f"window{cell.entries}", cell.suite)]
            assert got == pytest.approx(cell.median_mm, abs=5e-5)
